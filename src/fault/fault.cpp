#include "fault/fault.hpp"

#include <algorithm>

namespace lts::fault {
namespace {

/// Capacity of a "dead" link. Not zero: the max-min solver keeps flows
/// mathematically alive at a trickle, so transfers crossing a dead link
/// stall (like TCP retrying into a black hole) instead of vanishing, and
/// recover when the link does.
constexpr Rate kDeadLinkRate = 1e-3;

std::pair<std::string, std::string> split_site_pair(const std::string& target) {
  const auto colon = target.find(':');
  LTS_REQUIRE(colon != std::string::npos && colon > 0 &&
                  colon + 1 < target.size(),
              "fault: link target must be \"siteA:siteB\", got: " + target);
  return {target.substr(0, colon), target.substr(colon + 1)};
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNodeCrash: return "node_crash";
    case FaultKind::kLinkDegrade: return "link_degrade";
    case FaultKind::kRttSpike: return "rtt_spike";
    case FaultKind::kSitePartition: return "site_partition";
    case FaultKind::kExporterSilence: return "exporter_silence";
    case FaultKind::kExporterDelay: return "exporter_delay";
    case FaultKind::kRetrainFail: return "retrain_fail";
    case FaultKind::kNodeLinkDegrade: return "node_link_degrade";
  }
  throw Error("fault: unknown FaultKind");
}

FaultKind fault_kind_from_string(const std::string& s) {
  if (s == "node_crash") return FaultKind::kNodeCrash;
  if (s == "link_degrade") return FaultKind::kLinkDegrade;
  if (s == "rtt_spike") return FaultKind::kRttSpike;
  if (s == "site_partition") return FaultKind::kSitePartition;
  if (s == "exporter_silence") return FaultKind::kExporterSilence;
  if (s == "exporter_delay") return FaultKind::kExporterDelay;
  if (s == "retrain_fail") return FaultKind::kRetrainFail;
  if (s == "node_link_degrade") return FaultKind::kNodeLinkDegrade;
  throw Error("fault: unknown fault kind: " + s);
}

Json fault_to_json(const FaultSpec& spec) {
  JsonObject o;
  o["kind"] = to_string(spec.kind);
  o["target"] = spec.target;
  o["at"] = spec.at;
  o["duration"] = spec.duration;
  o["severity"] = spec.severity;
  return Json(std::move(o));
}

FaultSpec fault_from_json(const Json& j) {
  LTS_REQUIRE(j.is_object(), "fault: spec must be a JSON object");
  FaultSpec spec;
  spec.kind = fault_kind_from_string(j.at("kind").as_string());
  spec.target = j.at("target").as_string();
  if (j.contains("at")) spec.at = j.at("at").as_double();
  if (j.contains("duration")) spec.duration = j.at("duration").as_double();
  if (j.contains("severity")) spec.severity = j.at("severity").as_double();
  return spec;
}

Json faults_to_json(const std::vector<FaultSpec>& specs) {
  Json arr = Json::array();
  for (const auto& spec : specs) arr.push_back(fault_to_json(spec));
  return arr;
}

std::vector<FaultSpec> faults_from_json(const Json& j) {
  LTS_REQUIRE(j.is_array(), "fault: schedule must be a JSON array");
  std::vector<FaultSpec> specs;
  specs.reserve(j.size());
  for (std::size_t i = 0; i < j.size(); ++i) {
    specs.push_back(fault_from_json(j.at(i)));
  }
  return specs;
}

FaultInjector::FaultInjector(sim::Engine& engine, cluster::Cluster& cluster,
                             telemetry::TelemetryStack* telemetry,
                             k8s::ApiServer* api)
    : engine_(&engine),
      cluster_(&cluster),
      telemetry_(telemetry),
      api_(api),
      kind_(engine.add_handler<&FaultInjector::on_event>(this)) {}

FaultInjector::FaultInjector(const FaultInjector& other, sim::Engine& engine,
                             cluster::Cluster& cluster,
                             telemetry::TelemetryStack* telemetry,
                             k8s::ApiServer* api)
    : FaultInjector(other) {
  engine_ = &engine;
  cluster_ = &cluster;
  telemetry_ = telemetry;
  api_ = api;
  engine.rebind_handler<&FaultInjector::on_event>(kind_, this);
}

void FaultInjector::apply(const FaultSpec& spec) {
  LTS_REQUIRE(spec.at >= engine_->now(), "fault: injection time is in the past");
  const std::uint64_t index = specs_.size();
  specs_.push_back(spec);
  engine_->schedule_at(spec.at, sim::Event{kind_, kInject, index});
  if (spec.duration > 0.0) {
    engine_->schedule_at(spec.at + spec.duration,
                         sim::Event{kind_, kRecover, index});
  }
}

void FaultInjector::on_event(std::uint32_t action, std::uint64_t spec_index) {
  // A copy, not a reference: the handler may apply() more faults.
  const FaultSpec spec = specs_[spec_index];
  if (action == kInject) {
    inject(spec);
  } else {
    recover(spec);
  }
}

void FaultInjector::apply_all(const std::vector<FaultSpec>& specs) {
  for (const auto& spec : specs) apply(spec);
}

void FaultInjector::inject(const FaultSpec& spec) {
  switch (spec.kind) {
    case FaultKind::kNodeCrash:
      crash_node(spec.target);
      break;
    case FaultKind::kLinkDegrade: {
      const auto [a, b] = split_site_pair(spec.target);
      degrade_wan_link(a, b, spec.severity);
      break;
    }
    case FaultKind::kRttSpike: {
      const auto [a, b] = split_site_pair(spec.target);
      spike_wan_rtt(a, b, spec.severity);
      break;
    }
    case FaultKind::kSitePartition:
      partition_site(spec.target);
      break;
    case FaultKind::kExporterSilence:
      silence_exporter(spec.target);
      break;
    case FaultKind::kExporterDelay:
      delay_exporter(spec.target, spec.severity);
      break;
    case FaultKind::kRetrainFail:
      fail_retrains();
      break;
    case FaultKind::kNodeLinkDegrade:
      degrade_node_link(spec.target, spec.severity);
      break;
  }
  ++injected_;
}

void FaultInjector::recover(const FaultSpec& spec) {
  switch (spec.kind) {
    case FaultKind::kNodeCrash:
      recover_node(spec.target);
      break;
    case FaultKind::kLinkDegrade:
    case FaultKind::kRttSpike: {
      const auto [a, b] = split_site_pair(spec.target);
      restore_wan_link(a, b);
      break;
    }
    case FaultKind::kSitePartition:
      heal_site(spec.target);
      break;
    case FaultKind::kExporterSilence:
      unsilence_exporter(spec.target);
      break;
    case FaultKind::kExporterDelay:
      undelay_exporter(spec.target);
      break;
    case FaultKind::kRetrainFail:
      restore_retrains();
      break;
    case FaultKind::kNodeLinkDegrade:
      restore_node_link(spec.target);
      break;
  }
  ++recovered_;
}

void FaultInjector::crash_node(const std::string& node) {
  const std::size_t idx = cluster_->node_index(node);
  if (cluster_->node_down(idx)) return;
  cluster_->set_node_down(idx, true);
  // The host hangs: both access-link directions collapse to a trickle, so
  // every transfer touching the node stalls. Exporters stop on their own
  // (they consult node_down before scraping).
  cut_link_capacity(cluster_->node_uplink(idx), 0.0);
  cut_link_capacity(cluster_->node_downlink(idx), 0.0);
  cluster_->flows().invalidate_rates();
  if (api_ != nullptr) api_->set_node_ready(node, false);
  // The node's exporters stop answering (they consult node_down): cached
  // snapshots must not keep serving its last pre-crash heartbeat age.
  bump_telemetry_epoch();
}

void FaultInjector::recover_node(const std::string& node) {
  const std::size_t idx = cluster_->node_index(node);
  if (!cluster_->node_down(idx)) return;
  cluster_->set_node_down(idx, false);
  restore_link(cluster_->node_uplink(idx));
  restore_link(cluster_->node_downlink(idx));
  // The host rebooted: its cumulative NIC counters restart from zero, so
  // the exporter's next scrape publishes a value below the pre-crash one.
  // Rate queries must treat that as a counter reset (Tsdb::rate does), not
  // as negative throughput.
  cluster_->flows().reset_host_counters(cluster_->node(idx).vertex());
  cluster_->flows().invalidate_rates();
  if (api_ != nullptr) api_->set_node_ready(node, true);
  // Counter semantics just changed under every cached snapshot.
  bump_telemetry_epoch();
}

void FaultInjector::degrade_wan_link(const std::string& site_a,
                                     const std::string& site_b,
                                     double capacity_cut_frac) {
  LTS_REQUIRE(capacity_cut_frac >= 0.0 && capacity_cut_frac <= 1.0,
              "fault: capacity cut fraction must be in [0, 1]");
  const net::LinkId fwd = wan_forward_link(site_a, site_b);
  cut_link_capacity(fwd, 1.0 - capacity_cut_frac);
  cut_link_capacity(fwd + 1, 1.0 - capacity_cut_frac);
  cluster_->flows().invalidate_rates();
}

void FaultInjector::degrade_node_link(const std::string& node,
                                      double capacity_cut_frac) {
  LTS_REQUIRE(capacity_cut_frac >= 0.0 && capacity_cut_frac <= 1.0,
              "fault: capacity cut fraction must be in [0, 1]");
  const std::size_t idx = cluster_->node_index(node);
  cut_link_capacity(cluster_->node_uplink(idx), 1.0 - capacity_cut_frac);
  cut_link_capacity(cluster_->node_downlink(idx), 1.0 - capacity_cut_frac);
  cluster_->flows().invalidate_rates();
}

void FaultInjector::restore_node_link(const std::string& node) {
  const std::size_t idx = cluster_->node_index(node);
  restore_link(cluster_->node_uplink(idx));
  restore_link(cluster_->node_downlink(idx));
  cluster_->flows().invalidate_rates();
}

void FaultInjector::spike_wan_rtt(const std::string& site_a,
                                  const std::string& site_b,
                                  SimTime extra_one_way_delay) {
  LTS_REQUIRE(extra_one_way_delay >= 0.0, "fault: negative RTT spike");
  const net::LinkId fwd = wan_forward_link(site_a, site_b);
  add_link_delay(fwd, extra_one_way_delay);
  add_link_delay(fwd + 1, extra_one_way_delay);
  cluster_->flows().invalidate_rates();
}

void FaultInjector::restore_wan_link(const std::string& site_a,
                                     const std::string& site_b) {
  const net::LinkId fwd = wan_forward_link(site_a, site_b);
  restore_link(fwd);
  restore_link(fwd + 1);
  cluster_->flows().invalidate_rates();
}

void FaultInjector::partition_site(const std::string& site) {
  bool touched = false;
  for (const auto& wan : cluster_->wan_links()) {
    if (wan.site_a != site && wan.site_b != site) continue;
    cut_link_capacity(wan.forward, 0.0);
    cut_link_capacity(wan.forward + 1, 0.0);
    touched = true;
  }
  LTS_REQUIRE(touched, "fault: no WAN links touch site: " + site);
  cluster_->flows().invalidate_rates();
}

void FaultInjector::heal_site(const std::string& site) {
  for (const auto& wan : cluster_->wan_links()) {
    if (wan.site_a != site && wan.site_b != site) continue;
    restore_link(wan.forward);
    restore_link(wan.forward + 1);
  }
  cluster_->flows().invalidate_rates();
}

// The exporter setters bump the TSDB epoch themselves (lts_lint R6: the
// mutation and its cache invalidation live in one place), so the injector
// only routes the calls.

void FaultInjector::silence_exporter(const std::string& node) {
  exporter_for(node).set_silenced(true);
}

void FaultInjector::unsilence_exporter(const std::string& node) {
  exporter_for(node).set_silenced(false);
}

void FaultInjector::delay_exporter(const std::string& node,
                                   SimTime report_delay) {
  exporter_for(node).set_report_delay(report_delay);
}

void FaultInjector::undelay_exporter(const std::string& node) {
  exporter_for(node).set_report_delay(0.0);
}

void FaultInjector::fail_retrains() { retrain_fail_active_ = true; }

void FaultInjector::restore_retrains() { retrain_fail_active_ = false; }

net::LinkId FaultInjector::wan_forward_link(const std::string& site_a,
                                            const std::string& site_b) const {
  for (const auto& wan : cluster_->wan_links()) {
    if ((wan.site_a == site_a && wan.site_b == site_b) ||
        (wan.site_a == site_b && wan.site_b == site_a)) {
      return wan.forward;
    }
  }
  throw Error("fault: no WAN link between " + site_a + " and " + site_b);
}

void FaultInjector::bump_telemetry_epoch() {
  if (telemetry_ != nullptr) telemetry_->tsdb().bump_epoch();
}

telemetry::NodeExporter& FaultInjector::exporter_for(const std::string& node) {
  LTS_REQUIRE(telemetry_ != nullptr,
              "fault: exporter faults need a TelemetryStack");
  // TelemetryStack builds one NodeExporter per cluster node, in node order.
  return telemetry_->node_exporter(cluster_->node_index(node));
}

void FaultInjector::cut_link_capacity(net::LinkId l, double keep_frac) {
  // First touch records the pristine capacity, so repeated or overlapping
  // cuts never compound and restore always returns to the original.
  const auto [it, inserted] =
      saved_links_.try_emplace(l, SavedLink{cluster_->topology().link(l).capacity,
                                            cluster_->topology().link(l).prop_delay});
  cluster_->topology().set_link_capacity(
      l, std::max(kDeadLinkRate, it->second.capacity * keep_frac));
}

void FaultInjector::add_link_delay(net::LinkId l, SimTime extra) {
  const auto [it, inserted] =
      saved_links_.try_emplace(l, SavedLink{cluster_->topology().link(l).capacity,
                                            cluster_->topology().link(l).prop_delay});
  cluster_->topology().set_link_prop_delay(l, it->second.prop_delay + extra);
}

void FaultInjector::restore_link(net::LinkId l) {
  const auto it = saved_links_.find(l);
  if (it == saved_links_.end()) return;  // never faulted: nothing to restore
  cluster_->topology().set_link_capacity(l, it->second.capacity);
  cluster_->topology().set_link_prop_delay(l, it->second.prop_delay);
  saved_links_.erase(it);
}

}  // namespace lts::fault
