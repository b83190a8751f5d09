// Exporters: the simulated equivalents of node-exporter and ping_exporter.
//
// NodeExporter scrapes one node every `interval` seconds and appends:
//   node_cpu_load{node=...}                     1-minute EMA of runnable demand
//   node_memory_available_bytes{node=...}       capacity - used
//   node_network_transmit_bytes_total{node=...} cumulative NIC tx counter
//   node_network_receive_bytes_total{node=...}  cumulative NIC rx counter
//
// PingExporter probes the full node mesh every `interval` seconds:
//   ping_rtt_seconds{src=...,dst=...}           measured RTT + noise
//
// Both add measurement noise from their own Rng stream — the model trains on
// noisy observations, exactly like the paper's Prometheus pipeline.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "simcore/engine.hpp"
#include "telemetry/tsdb.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace lts::telemetry {

inline constexpr const char* kCpuLoadMetric = "node_cpu_load";
inline constexpr const char* kMemAvailableMetric =
    "node_memory_available_bytes";
inline constexpr const char* kTxBytesMetric =
    "node_network_transmit_bytes_total";
inline constexpr const char* kRxBytesMetric =
    "node_network_receive_bytes_total";
inline constexpr const char* kPingRttMetric = "ping_rtt_seconds";
// Rich telemetry (§8 extension):
inline constexpr const char* kUplinkUtilMetric = "node_network_uplink_utilization";
inline constexpr const char* kDownlinkUtilMetric = "node_network_downlink_utilization";
inline constexpr const char* kQueueDelayMetric = "node_network_queue_delay_seconds";
inline constexpr const char* kActiveFlowsMetric = "node_network_active_flows";

struct ExporterOptions {
  SimTime scrape_interval = 2.0;
  /// Export the §8 rich metrics (link utilization, queue delay, flow
  /// counts) in addition to the paper's baseline set.
  bool rich_metrics = true;
  double load_ema_tau = 30.0;          // fast load average (30 s)
  double rtt_noise_frac = 0.01;        // multiplicative RTT measurement noise
  SimTime rtt_noise_floor = 20e-6;     // additive jitter floor
  double counter_noise_frac = 0.0;     // NIC counters are exact in Linux
};

/// Scrapes one node's host-level metrics.
class NodeExporter {
 public:
  NodeExporter(sim::Engine& engine, Tsdb& tsdb, cluster::Cluster& cluster,
               std::size_t node_index, ExporterOptions options, Rng rng,
               SimTime phase);
  /// A copy of `other` — Rng, load EMA, fault state, reports in flight —
  /// writing to `tsdb` and scraping `cluster`, with `engine` a copy of
  /// other's engine.
  NodeExporter(const NodeExporter& other, sim::Engine& engine, Tsdb& tsdb,
               cluster::Cluster& cluster);

  const std::string& node_name() const { return node_name_; }

  /// Fault injection: a silenced exporter keeps its scrape schedule but
  /// appends nothing, so this node's telemetry goes stale in the TSDB.
  /// A crashed node (Cluster::node_down) silences implicitly. Outlined
  /// (lts_lint R6): shaping knobs bump the TSDB epoch so epoch-keyed
  /// snapshot caches refresh on the next fetch.
  void set_silenced(bool silenced);
  bool silenced() const { return silenced_; }

  /// Fault injection: samples are measured on schedule but land in the
  /// TSDB `delay` seconds later (a lagging scrape pipeline). A fetch in the
  /// gap sees telemetry up to `delay` seconds old.
  void set_report_delay(SimTime delay);
  SimTime report_delay() const { return report_delay_; }

 private:
  /// Samples measured at one scrape: (metric, value) pairs.
  using Samples = std::vector<std::pair<const char*, double>>;
  /// A delayed report: the samples and their measurement time.
  struct Report {
    SimTime measured_at = 0.0;
    Samples samples;
  };

  void scrape();
  void append_samples(SimTime measured_at, const Samples& samples);
  /// Engine handler: lands the delayed report numbered `id`.
  void deliver(std::uint32_t, std::uint64_t id);

  Tsdb& tsdb_;
  cluster::Cluster& cluster_;
  std::size_t node_index_;
  std::string node_name_;
  ExporterOptions options_;
  Rng rng_;
  Ema load_ema_;
  sim::Engine& engine_;
  sim::Kind kind_;
  std::unique_ptr<sim::PeriodicTask> task_;
  bool silenced_ = false;
  SimTime report_delay_ = 0.0;
  std::uint64_t next_report_ = 0;
  std::map<std::uint64_t, Report> reports_;  // in flight, by number
};

/// Full-mesh RTT prober (one instance covers all ordered node pairs, like a
/// ping_exporter DaemonSet whose per-node results land in one TSDB).
class PingExporter {
 public:
  PingExporter(sim::Engine& engine, Tsdb& tsdb, cluster::Cluster& cluster,
               ExporterOptions options, Rng rng, SimTime phase);
  /// A copy of `other`, as NodeExporter's.
  PingExporter(const PingExporter& other, sim::Engine& engine, Tsdb& tsdb,
               cluster::Cluster& cluster);

 private:
  void probe();

  Tsdb& tsdb_;
  cluster::Cluster& cluster_;
  ExporterOptions options_;
  Rng rng_;
  sim::Engine& engine_;
  std::unique_ptr<sim::PeriodicTask> task_;
};

/// Installs a NodeExporter per node plus one PingExporter, with staggered
/// phases. This is the "Prometheus stack" install step of §5.1.
class TelemetryStack {
 public:
  TelemetryStack(sim::Engine& engine, cluster::Cluster& cluster,
                 ExporterOptions options, Rng rng);
  /// A copy of `other` — TSDB and every exporter — scraping `cluster`, with
  /// `engine` a copy of other's engine.
  TelemetryStack(const TelemetryStack& other, sim::Engine& engine,
                 cluster::Cluster& cluster);

  Tsdb& tsdb() { return tsdb_; }
  const Tsdb& tsdb() const { return tsdb_; }

  /// Per-node exporter access, indexed like Cluster nodes (for the fault
  /// injector's silence/delay primitives).
  std::size_t num_node_exporters() const { return node_exporters_.size(); }
  NodeExporter& node_exporter(std::size_t i);

 private:
  Tsdb tsdb_;
  std::vector<std::unique_ptr<NodeExporter>> node_exporters_;
  std::unique_ptr<PingExporter> ping_exporter_;
};

}  // namespace lts::telemetry
