// Simulated experiment environment: the paper's §5.1 testbed in a box.
//
// One SimEnv owns a discrete-event engine, the 6-node/3-site cluster, the
// telemetry stack (node exporters + ping mesh + TSDB), a Kubernetes API
// server with the default scheduler, and a randomized set of background-load
// pods (§5.2). Everything is a deterministic function of the seed, so
// rebuilding a SimEnv with the same seed and running the same job with a
// *different* driver node is an exact counterfactual — the basis of the
// Table 4 ground truth. A SimEnv can also be copied: the copy is the same
// world at the same instant, so a counterfactual may branch from one warmed
// world instead of re-warming a fresh one.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/background.hpp"
#include "cluster/cluster.hpp"
#include "core/job_builder.hpp"
#include "fault/fault.hpp"
#include "k8s/api.hpp"
#include "k8s/scheduler.hpp"
#include "simcore/engine.hpp"
#include "spark/runtime.hpp"
#include "spark/workloads.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/snapshot.hpp"

namespace lts::exp {

struct EnvOptions {
  cluster::ClusterSpec cluster_spec = cluster::paper_cluster_spec();
  telemetry::ExporterOptions exporter;
  telemetry::SnapshotOptions snapshot;

  /// System-reserved resources subtracted from node capacity to form the
  /// Kubernetes allocatable values.
  double cpu_reserve = 0.5;
  Bytes memory_reserve = 1.0 * 1024 * 1024 * 1024;

  /// Background contention pods (the curl loops of §5.2): each scenario
  /// draws a count in [min, max] and random client/server node pairs.
  int min_background_pods = 1;
  int max_background_pods = 4;
  int min_parallel_fetches = 1;
  int max_parallel_fetches = 6;
  cluster::BackgroundLoadOptions background;

  /// Per-node heterogeneity, drawn per environment: extra one-way access
  /// delay in [0, max] (virtualization path differences; observable through
  /// the ping mesh) and a resident system-daemon CPU demand in [min, max]
  /// (observable through the load average).
  SimTime max_node_extra_delay = 12.0e-3;
  double min_daemon_cpu = 0.2;
  double max_daemon_cpu = 2.0;

  /// Simulated seconds to run before the first snapshot, so load averages
  /// and rate() windows have settled.
  SimTime warmup = 40.0;

  /// Abort guard: a job exceeding this much simulated time is a bug.
  SimTime max_job_duration = 1800.0;

  /// Fault schedule, applied through the environment's FaultInjector at
  /// construction. Empty (the default) leaves the event sequence — and so
  /// every output — exactly as without fault support.
  std::vector<fault::FaultSpec> faults;

  spark::RuntimeOptions runtime;
  spark::WorkloadCost workload_cost;
};

/// Knobs for a deterministic network-drift schedule: a staircase of
/// permanent, escalating WAN degradations (capacity cuts + RTT spikes) on
/// a fixed subset of links. Unlike generate_fault_schedule's transient
/// faults, drift never recovers — the environment a static model was
/// trained for progressively stops existing, which is the regime online
/// retraining (OnlineTrainer, bench_ext_retrain) is built for.
struct DriftScheduleOptions {
  /// First step lands here; keep it at or after warmup plus some healthy
  /// stream so the retrainer has pre-drift completions in its window.
  SimTime start = 80.0;
  /// Number of escalation steps; each step raises severity linearly until
  /// the final step reaches max_capacity_cut / max_rtt_spike.
  int steps = 4;
  SimTime step_interval = 90.0;
  /// How many WAN links drift (chosen deterministically from the seed).
  int drift_links = 2;
  /// Final fraction of link capacity removed, in [0, 1).
  double max_capacity_cut = 0.85;
  /// Final extra one-way propagation delay, seconds.
  SimTime max_rtt_spike = 0.060;
};

/// Deterministically generates the drift staircase against `spec`'s WAN
/// links. Same (spec, seed, options) -> same schedule. Each step re-injects
/// the link fault at a higher severity; the FaultInjector always mutates
/// relative to the pristine link state, so severities do not compound.
std::vector<fault::FaultSpec> generate_drift_schedule(
    const cluster::ClusterSpec& spec, std::uint64_t seed,
    const DriftScheduleOptions& options = {});

/// Knobs for the parameterized scale-out topology generator. Every knob is
/// validated against paper-scale bounds — scaled_cluster_spec throws
/// lts::Error with a specific message on nonsensical input instead of
/// emitting a topology whose RTTs or capacities silently leave the regime
/// the flow model (and the paper's telemetry features) are calibrated for.
struct ScaledClusterOptions {
  int sites = 3;
  int nodes_per_site = 2;

  /// Baseline effective per-node NIC rate (see ClusterSpec), bytes/sec.
  Rate access_capacity_bps = 200e6;
  /// Heterogeneous NIC speeds: node i's access capacity is multiplied by
  /// nic_speed_tiers[i % size] (think mixed VM flavors on one substrate).
  /// Empty = homogeneous.
  std::vector<double> nic_speed_tiers;
  /// Deterministic per-node capacity jitter amplitude in [0, 0.5]: node i's
  /// capacity is further scaled by 1 + nic_jitter * u_i with u_i hashed
  /// from i into [-1, 1). Makes every node's fair share distinct, which is
  /// the worst case for a global progressive fill (each share freezes in
  /// its own round) and the regime the hierarchical solver targets.
  double nic_jitter = 0.0;

  /// Chain-of-distance RTT mesh: rtt(a, b) = min(rtt_base + rtt_per_hop *
  /// (b - a), rtt_max), like a string of geographically spread sites.
  SimTime rtt_base = 0.008;
  SimTime rtt_per_hop = 0.014;
  SimTime rtt_max = 0.090;
  /// Per-direction capacity of each pairwise WAN link.
  Rate wan_capacity_bps = 600e6;

  /// > 0 drops the pairwise mesh for a shared core: one core router, one
  /// trunk per site with capacity sites' aggregate access rate divided by
  /// this factor — i.e. a trunk oversubscribed `core_oversubscription`:1
  /// against its site's NICs. Trunk delays grow with the site index so the
  /// RTT mesh keeps its chain-of-distance shape (clamped at rtt_max).
  double core_oversubscription = 0.0;

  /// Solve max-min fair rates with the per-site hierarchical solver.
  bool hierarchical_solver = false;
};

/// Builds a larger deployment in the same style as the paper's testbed:
/// `sites` site routers in a chain-of-distance full mesh (nearby sites get
/// short RTTs, distant pairs long ones), `nodes_per_site` nodes each, with
/// the paper's per-node resources. Node names stay "node-1".."node-N" in
/// global order. Used by the §8 "evaluation at larger scale" extension.
cluster::ClusterSpec scaled_cluster_spec(const ScaledClusterOptions& options);

/// Shorthand for the defaults above with just the shape overridden.
cluster::ClusterSpec scaled_cluster_spec(int sites, int nodes_per_site);

/// A job whose pods SimEnv::launch_job bound and whose app it submitted.
struct LaunchedJob {
  /// The submitted app; null when an executor fit nowhere, in which case
  /// nothing stays bound and `rejection` is that executor's attempt.
  std::unique_ptr<spark::SparkApp> app;
  /// Pods bound for the job, driver first; SimEnv::unbind removes them
  /// once the job completes or is cancelled.
  std::vector<std::string> pods;
  k8s::ScheduleResult rejection;
};

class SimEnv {
 public:
  explicit SimEnv(std::uint64_t seed, EnvOptions options = {});

  /// The same world at the same instant: every pending event, RNG stream,
  /// EMA, epoch, id counter and binding. Running a job on the copy gives
  /// exactly what running it on `other` would, and leaves `other` as it
  /// was. Throws lts::Error while a job or any other closure is in flight
  /// (see sim::Engine's copy).
  SimEnv(const SimEnv& other);
  SimEnv& operator=(const SimEnv&) = delete;

  sim::Engine& engine() { return engine_; }
  cluster::Cluster& cluster() { return *cluster_; }
  const cluster::Cluster& cluster() const { return *cluster_; }
  const telemetry::Tsdb& tsdb() const { return stack_->tsdb(); }
  k8s::ApiServer& api() { return api_; }
  k8s::DefaultScheduler& kube_scheduler() { return *kube_scheduler_; }
  fault::FaultInjector& fault_injector() { return *faults_; }
  const std::vector<std::string>& node_names() const { return node_names_; }
  const EnvOptions& options() const { return options_; }
  std::uint64_t seed() const { return seed_; }

  /// Runs the engine until options().warmup; idempotent.
  void warmup();

  /// Telemetry snapshot of all nodes as of now.
  telemetry::ClusterSnapshot snapshot() const;

  /// Places a job the paper's way (§3.2.3, §4) and submits it: binds the
  /// driver pod pinned on `driver_node` (nodeAffinity), then each executor
  /// pod where kube_scheduler() puts it, restricted to the `offered` nodes
  /// when that list is non-empty. The first executor that fits nowhere
  /// unbinds every pod of the job and returns with a null app. `job_seed`
  /// alone drives the job's own randomness (DAG skew, startup and task
  /// jitter), so placement never perturbs those draws. `on_complete` fires
  /// once the app finishes.
  LaunchedJob launch_job(
      const spark::JobConfig& config, const std::string& job_name,
      std::size_t driver_node, std::uint64_t job_seed,
      std::function<void(const spark::AppResult&)> on_complete,
      const std::vector<std::string>& offered = {});

  /// Removes `job`'s pods from the API server and forgets them.
  void unbind(LaunchedJob& job);

  /// Launches a job (see launch_job; every executor must fit) and runs the
  /// engine until it completes, then removes its pods. `job_seed` must be
  /// held fixed across counterfactual runs.
  spark::AppResult run_job(const spark::JobConfig& config,
                           std::size_t driver_node, std::uint64_t job_seed);

  /// Full ranking the default Kubernetes scheduler would produce for this
  /// job's driver pod right now (the Table 4 baseline).
  k8s::ScheduleResult kube_ranking(const spark::JobConfig& config) const;

  /// Background load pods active in this environment (for inspection).
  std::size_t num_background_pods() const { return background_.size(); }
  const cluster::BackgroundLoad& background_pod(std::size_t i) const;

 private:
  std::uint64_t seed_;
  EnvOptions options_;
  sim::Engine engine_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<telemetry::TelemetryStack> stack_;
  k8s::ApiServer api_;
  std::unique_ptr<k8s::DefaultScheduler> kube_scheduler_;
  std::unique_ptr<fault::FaultInjector> faults_;
  std::vector<std::string> node_names_;
  std::vector<std::unique_ptr<cluster::BackgroundLoad>> background_;
  bool warmed_up_ = false;
  int job_counter_ = 0;
};

}  // namespace lts::exp
