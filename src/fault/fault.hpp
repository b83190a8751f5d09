// Fault injection: deterministic, Engine-driven perturbations of the
// simulated cluster.
//
// The paper evaluates LTS on a healthy testbed; this subsystem asks the next
// question — what happens to a telemetry-driven scheduler when the telemetry
// pipeline or the substrate itself degrades? A FaultInjector can
//   - crash and recover nodes (the host hangs: its exporters stop answering,
//     its access links drop to a dead-link trickle, in-flight transfers
//     stall rather than vanish),
//   - degrade or partition WAN links (capacity cuts, RTT spikes, loss of a
//     whole site),
//   - silence or delay node exporters (snapshots arrive stale or with
//     missing per-node rows even though the node itself is fine).
//
// Everything is driven through the shared sim::Engine, so a fault schedule
// is replayed bit-identically for every scheduler under comparison — the
// same property the counterfactual evaluation relies on. An injector with
// no faults applied touches nothing and draws no randomness; constructing
// one is free.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "k8s/api.hpp"
#include "net/topology.hpp"
#include "simcore/engine.hpp"
#include "telemetry/exporters.hpp"
#include "util/json.hpp"

namespace lts::fault {

enum class FaultKind {
  kNodeCrash,        // target = node name; host hangs, recovers on expiry
  kLinkDegrade,      // target = "siteA:siteB"; severity = capacity fraction cut
  kRttSpike,         // target = "siteA:siteB"; severity = extra one-way secs
  kSitePartition,    // target = site name; every WAN link touching it dies
  kExporterSilence,  // target = node name; exporter scrapes vanish
  kExporterDelay,    // target = node name; severity = reporting lag seconds
  kRetrainFail,      // target ignored; online refits fail while active
  kNodeLinkDegrade,  // target = node name; severity = access-capacity cut
};

const char* to_string(FaultKind kind);
FaultKind fault_kind_from_string(const std::string& s);

/// One scheduled fault. `duration <= 0` means permanent (never recovers).
/// `severity` is kind-specific: fraction of capacity removed (kLinkDegrade,
/// in [0, 1]), extra one-way propagation delay in seconds (kRttSpike), or
/// exporter reporting lag in seconds (kExporterDelay); ignored otherwise.
struct FaultSpec {
  FaultKind kind = FaultKind::kNodeCrash;
  std::string target;
  SimTime at = 0.0;
  SimTime duration = 0.0;
  double severity = 1.0;
};

Json fault_to_json(const FaultSpec& spec);
FaultSpec fault_from_json(const Json& j);
Json faults_to_json(const std::vector<FaultSpec>& specs);
std::vector<FaultSpec> faults_from_json(const Json& j);

/// Applies FaultSpecs to a live cluster, or injects/recovers directly.
///
/// The telemetry stack and API server are optional: without them, exporter
/// faults throw and node crashes skip the readiness bookkeeping (pings and
/// scrapes still stop, because the exporters consult Cluster::node_down).
class FaultInjector {
 public:
  FaultInjector(sim::Engine& engine, cluster::Cluster& cluster,
                telemetry::TelemetryStack* telemetry = nullptr,
                k8s::ApiServer* api = nullptr);
  /// A copy of `other` — its schedule, saved links and counters — acting on
  /// copies of other's engine, cluster, telemetry and API server.
  FaultInjector(const FaultInjector& other, sim::Engine& engine,
                cluster::Cluster& cluster,
                telemetry::TelemetryStack* telemetry, k8s::ApiServer* api);

  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules injection at `spec.at` and, if `spec.duration > 0`, recovery
  /// at `spec.at + spec.duration`, on the shared engine.
  void apply(const FaultSpec& spec);
  void apply_all(const std::vector<FaultSpec>& specs);

  // Direct primitives (take effect immediately). All are idempotent: a
  // second inject of the same fault is a no-op, as is recovering a fault
  // that is not active.
  void crash_node(const std::string& node);
  void recover_node(const std::string& node);
  void degrade_wan_link(const std::string& site_a, const std::string& site_b,
                        double capacity_cut_frac);
  /// Cuts a node's access-link capacity (both directions) by the given
  /// fraction — intra-site congestion/drift on topologies with no WAN
  /// links to degrade. Unlike crash_node the node stays up: exporters keep
  /// answering, only its NIC throughput shrinks.
  void degrade_node_link(const std::string& node, double capacity_cut_frac);
  void restore_node_link(const std::string& node);
  void spike_wan_rtt(const std::string& site_a, const std::string& site_b,
                     SimTime extra_one_way_delay);
  void restore_wan_link(const std::string& site_a, const std::string& site_b);
  void partition_site(const std::string& site);
  void heal_site(const std::string& site);
  void silence_exporter(const std::string& node);
  void unsilence_exporter(const std::string& node);
  void delay_exporter(const std::string& node, SimTime report_delay);
  void undelay_exporter(const std::string& node);
  void fail_retrains();
  void restore_retrains();

  /// True while a kRetrainFail fault is active. The OnlineTrainer's
  /// failure hook polls this: refits attempted in the window fail and the
  /// previous model keeps serving (the degradation the fault models is a
  /// broken training pipeline, not a broken scheduler).
  bool retrain_fail_active() const { return retrain_fail_active_; }

  /// Count of fault activations / recoveries that have fired so far.
  int injected() const { return injected_; }
  int recovered() const { return recovered_; }

 private:
  /// Which half of an applied fault an event fires (Event::target); the
  /// payload indexes specs_.
  enum : std::uint32_t { kInject, kRecover };

  /// Member-wise copy; the public copy constructor rebinds it.
  FaultInjector(const FaultInjector&) = default;

  void on_event(std::uint32_t action, std::uint64_t spec_index);
  void inject(const FaultSpec& spec);
  void recover(const FaultSpec& spec);
  /// Forward link id of the WAN edge between two sites (either order).
  net::LinkId wan_forward_link(const std::string& site_a,
                               const std::string& site_b) const;
  telemetry::NodeExporter& exporter_for(const std::string& node);
  /// Advances the TSDB epoch so epoch-keyed snapshot caches rebuild:
  /// called by every fault primitive that changes how telemetry must be
  /// interpreted without appending a sample (counter resets on node
  /// recovery, exporter silence/delay toggles). No-op without a stack.
  void bump_telemetry_epoch();
  /// Saves a link's pristine capacity/delay on first touch, then mutates.
  void cut_link_capacity(net::LinkId l, double keep_frac);
  void add_link_delay(net::LinkId l, SimTime extra);
  void restore_link(net::LinkId l);

  sim::Engine* engine_;
  cluster::Cluster* cluster_;
  telemetry::TelemetryStack* telemetry_;
  k8s::ApiServer* api_;
  sim::Kind kind_;
  std::vector<FaultSpec> specs_;  // every applied fault, by apply() order

  struct SavedLink {
    Rate capacity;
    SimTime prop_delay;
  };
  std::map<net::LinkId, SavedLink> saved_links_;
  bool retrain_fail_active_ = false;
  int injected_ = 0;
  int recovered_ = 0;
};

}  // namespace lts::fault
