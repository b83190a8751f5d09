#include "telemetry/exporters.hpp"

#include <cmath>

namespace lts::telemetry {

NodeExporter::NodeExporter(sim::Engine& engine, Tsdb& tsdb,
                           cluster::Cluster& cluster, std::size_t node_index,
                           ExporterOptions options, Rng rng, SimTime phase)
    : tsdb_(tsdb),
      cluster_(cluster),
      node_index_(node_index),
      node_name_(cluster.node(node_index).name()),
      options_(options),
      rng_(rng),
      load_ema_(options.load_ema_tau),
      engine_(engine),
      kind_(engine.add_handler<&NodeExporter::deliver>(this)) {
  task_ = std::make_unique<sim::PeriodicTask>(
      engine, options_.scrape_interval, phase, [this] { scrape(); });
}

NodeExporter::NodeExporter(const NodeExporter& other, sim::Engine& engine,
                           Tsdb& tsdb, cluster::Cluster& cluster)
    : tsdb_(tsdb),
      cluster_(cluster),
      node_index_(other.node_index_),
      node_name_(other.node_name_),
      options_(other.options_),
      rng_(other.rng_),
      load_ema_(other.load_ema_),
      engine_(engine),
      kind_(other.kind_),
      task_(std::make_unique<sim::PeriodicTask>(*other.task_, engine,
                                                [this] { scrape(); })),
      silenced_(other.silenced_),
      report_delay_(other.report_delay_),
      next_report_(other.next_report_),
      reports_(other.reports_) {
  engine.rebind_handler<&NodeExporter::deliver>(kind_, this);
}

void NodeExporter::set_silenced(bool silenced) {
  silenced_ = silenced;
  // Silencing changes what future fetches observe (telemetry goes stale or
  // resumes) without appending a sample, so epoch-keyed snapshot caches
  // must be told explicitly.
  tsdb_.bump_epoch();
}

void NodeExporter::set_report_delay(SimTime delay) {
  LTS_REQUIRE(delay >= 0.0, "NodeExporter: negative report delay");
  report_delay_ = delay;
  // Same caching contract as set_silenced: the delay shapes which samples
  // a snapshot sees, so the shift itself invalidates cached snapshots.
  tsdb_.bump_epoch();
}

void NodeExporter::scrape() {
  // A silenced exporter (fault injection) or one on a crashed node scrapes
  // nothing; the EMA freezes too, exactly as a dead process's state would.
  if (silenced_ || cluster_.node_down(node_index_)) return;

  const SimTime now = engine_.now();
  auto& node = cluster_.node(node_index_);

  // Measure everything now; where the samples land (immediately or after
  // the injected reporting delay) is decided below.
  Samples samples;
  load_ema_.update(now, node.cpu().total_demand());
  samples.emplace_back(kCpuLoadMetric, load_ema_.value());
  samples.emplace_back(kMemAvailableMetric,
                       std::max(0.0, node.memory_available()));

  auto noisy_counter = [&](double v) {
    if (options_.counter_noise_frac <= 0.0) return v;
    return v * (1.0 + options_.counter_noise_frac * rng_.normal());
  };
  // Per-host NIC counters and flow gauges resolve through the FlowManager's
  // intrusive per-host indexes: each scrape costs O(flows touching this
  // host), so a full fleet sweep is O(total flows), not O(hosts x flows).
  samples.emplace_back(
      kTxBytesMetric,
      noisy_counter(cluster_.flows().host_tx_bytes(node.vertex())));
  samples.emplace_back(
      kRxBytesMetric,
      noisy_counter(cluster_.flows().host_rx_bytes(node.vertex())));

  if (options_.rich_metrics) {
    const auto& flows = cluster_.flows();
    const auto up = cluster_.node_uplink(node_index_);
    const auto down = cluster_.node_downlink(node_index_);
    samples.emplace_back(kUplinkUtilMetric, flows.link_utilization(up));
    samples.emplace_back(kDownlinkUtilMetric, flows.link_utilization(down));
    samples.emplace_back(kQueueDelayMetric,
                         std::max(flows.link_queue_delay(up),
                                  flows.link_queue_delay(down)));
    samples.emplace_back(
        kActiveFlowsMetric,
        static_cast<double>(flows.host_active_flows(node.vertex())));
  }

  if (report_delay_ <= 0.0) {
    append_samples(now, samples);
    return;
  }
  // Delayed reporting: the samples keep their measurement timestamp but
  // become visible only once the event fires, so a snapshot taken in the
  // gap sees stale data. When the delay shrinks mid-run (the fault
  // recovers), a fresher sample can land first; the TSDB then drops the
  // late arrivals and counts them in telemetry_out_of_order_dropped_total
  // instead of aborting ingestion.
  const std::uint64_t id = next_report_++;
  reports_.emplace(id, Report{now, std::move(samples)});
  engine_.schedule_in(report_delay_, sim::Event{kind_, 0, id});
}

void NodeExporter::append_samples(SimTime measured_at,
                                  const Samples& samples) {
  const Labels labels{{"node", node_name_}};
  for (const auto& [metric, value] : samples) {
    tsdb_.append(metric, labels, measured_at, value);
  }
}

void NodeExporter::deliver(std::uint32_t, std::uint64_t id) {
  const auto it = reports_.find(id);
  LTS_ASSERT(it != reports_.end());
  append_samples(it->second.measured_at, it->second.samples);
  reports_.erase(it);
}

PingExporter::PingExporter(sim::Engine& engine, Tsdb& tsdb,
                           cluster::Cluster& cluster, ExporterOptions options,
                           Rng rng, SimTime phase)
    : tsdb_(tsdb),
      cluster_(cluster),
      options_(options),
      rng_(rng),
      engine_(engine) {
  task_ = std::make_unique<sim::PeriodicTask>(
      engine, options_.scrape_interval, phase, [this] { probe(); });
}

PingExporter::PingExporter(const PingExporter& other, sim::Engine& engine,
                           Tsdb& tsdb, cluster::Cluster& cluster)
    : tsdb_(tsdb),
      cluster_(cluster),
      options_(other.options_),
      rng_(other.rng_),
      engine_(engine),
      task_(std::make_unique<sim::PeriodicTask>(*other.task_, engine,
                                                [this] { probe(); })) {}

void PingExporter::probe() {
  const SimTime now = engine_.now();
  const std::size_t n = cluster_.num_nodes();
  for (std::size_t i = 0; i < n; ++i) {
    if (cluster_.node_down(i)) continue;  // dead host answers no echo
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j || cluster_.node_down(j)) continue;
      const SimTime true_rtt = cluster_.flows().current_rtt(
          cluster_.node(i).vertex(), cluster_.node(j).vertex());
      // ICMP echo measurements see scheduler jitter and serialization
      // variance: multiplicative noise plus an additive floor.
      const SimTime measured =
          true_rtt * (1.0 + options_.rtt_noise_frac * std::abs(rng_.normal())) +
          options_.rtt_noise_floor * rng_.uniform();
      tsdb_.append(kPingRttMetric,
                   Labels{{"src", cluster_.node(i).name()},
                          {"dst", cluster_.node(j).name()}},
                   now, measured);
    }
  }
}

TelemetryStack::TelemetryStack(sim::Engine& engine, cluster::Cluster& cluster,
                               ExporterOptions options, Rng rng) {
  const std::size_t n = cluster.num_nodes();
  for (std::size_t i = 0; i < n; ++i) {
    // Stagger scrapes across the interval so samples interleave.
    const SimTime phase =
        options.scrape_interval * static_cast<double>(i) /
        static_cast<double>(n + 1);
    node_exporters_.push_back(std::make_unique<NodeExporter>(
        engine, tsdb_, cluster, i, options, rng.split(), phase));
  }
  ping_exporter_ = std::make_unique<PingExporter>(
      engine, tsdb_, cluster, options, rng.split(),
      options.scrape_interval * static_cast<double>(n) /
          static_cast<double>(n + 1));
}

TelemetryStack::TelemetryStack(const TelemetryStack& other,
                               sim::Engine& engine, cluster::Cluster& cluster)
    : tsdb_(other.tsdb_),
      ping_exporter_(std::make_unique<PingExporter>(*other.ping_exporter_,
                                                    engine, tsdb_, cluster)) {
  node_exporters_.reserve(other.node_exporters_.size());
  for (const auto& exporter : other.node_exporters_) {
    node_exporters_.push_back(
        std::make_unique<NodeExporter>(*exporter, engine, tsdb_, cluster));
  }
}

NodeExporter& TelemetryStack::node_exporter(std::size_t i) {
  LTS_REQUIRE(i < node_exporters_.size(),
              "TelemetryStack: node exporter index out of range");
  return *node_exporters_[i];
}

}  // namespace lts::telemetry
