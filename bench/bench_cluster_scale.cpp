// Cluster scale-out benchmark: the hierarchical max-min solver at 100
// sites and the event engine under 1k-node flow churn.
//
// Part 1 — solver: a 100-site, 100k-flow storm where traffic is mostly
// site-local (the regime the decomposition targets: WAN flows confined to
// two sites, every other site an independent subproblem). Per-node NIC
// jitter makes every fair share distinct, the worst case for a global
// progressive fill. Measures wall time per full recompute, flat vs
// hierarchical, on the SAME topology and flow set, and cross-checks the
// resulting rates agree. Exits nonzero if the speedup falls below the 5x
// acceptance floor or the rates diverge.
//
// Part 2 — churn stream: a 1k-node cluster under per-site periodic flow
// churn. Measures end-to-end events/sec with the hierarchical solver
// serving every recompute.
//
// Emits BENCH_cluster_scale.json via exp::BenchReport; CI uploads it with
// the other perf-trajectory artifacts.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "exp/benchio.hpp"
#include "exp/envgen.hpp"
#include "net/flow.hpp"
#include "simcore/engine.hpp"
#include "util/table.hpp"

namespace {

using namespace lts;

constexpr int kSites = 100;
constexpr int kNodesPerSite = 10;
constexpr int kLocalFlowsPerSite = 1000;  // 100 sites x 1000 = 100k flows
constexpr int kCrossSiteFlows = 20;       // confined to sites 0 and 1
constexpr int kMeasuredRecomputes = 2;

exp::ScaledClusterOptions scale_options() {
  exp::ScaledClusterOptions o;
  o.sites = kSites;
  o.nodes_per_site = kNodesPerSite;
  o.nic_jitter = 0.3;  // distinct per-node shares: every share its own round
  return o;
}

// Deterministic site-local pair for the k-th flow of a site: walks the
// nodes with a varying stride so every node sources and sinks many flows.
std::pair<int, int> local_pair(int k) {
  const int src = k % kNodesPerSite;
  const int dst = (src + 1 + (k / kNodesPerSite) % (kNodesPerSite - 1)) %
                  kNodesPerSite;
  return {src, dst};
}

double elapsed_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct SolverRun {
  double seconds_per_recompute = 0.0;
  std::vector<Rate> rates;  // by flow start order
  net::FlowManager::SolverStats stats;
};

SolverRun run_solver(cluster::Cluster& cl, net::SolverMode mode) {
  sim::Engine engine;  // private engine: never run, flushes are on-demand
  net::FlowOptions options;
  options.solver = mode;
  net::FlowManager fm(engine, cl.topology(), options);

  std::vector<net::FlowId> ids;
  ids.reserve(static_cast<std::size_t>(kSites) * kLocalFlowsPerSite +
              kCrossSiteFlows);
  for (int s = 0; s < kSites; ++s) {
    const int base = s * kNodesPerSite;
    for (int k = 0; k < kLocalFlowsPerSite; ++k) {
      const auto [src, dst] = local_pair(k);
      ids.push_back(fm.start(
          cl.node(static_cast<std::size_t>(base + src)).vertex(),
          cl.node(static_cast<std::size_t>(base + dst)).vertex(), 1e15,
          nullptr));
    }
  }
  for (int k = 0; k < kCrossSiteFlows; ++k) {
    ids.push_back(fm.start(
        cl.node(static_cast<std::size_t>(k % kNodesPerSite)).vertex(),
        cl.node(static_cast<std::size_t>(kNodesPerSite + k % kNodesPerSite))
            .vertex(),
        1e15, nullptr));
  }

  SolverRun out;
  (void)fm.solver_stats();  // warmup: first full fill outside the clock
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kMeasuredRecomputes; ++r) {
    fm.invalidate_rates();
    out.stats = fm.solver_stats();  // flushes the recompute
  }
  out.seconds_per_recompute = elapsed_since(t0) / kMeasuredRecomputes;

  out.rates.reserve(ids.size());
  for (const auto id : ids) out.rates.push_back(fm.info(id).rate);
  return out;
}

struct StreamRun {
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t completed = 0;
};

StreamRun run_churn_stream() {
  sim::Engine engine;
  auto spec_options = scale_options();
  spec_options.hierarchical_solver = true;
  cluster::Cluster cl(engine, exp::scaled_cluster_spec(spec_options));

  StreamRun out;

  // One periodic churn source per site, each starting site-local flows.
  // Phases de-synchronize the sites like real scrape jitter does.
  std::vector<std::unique_ptr<sim::PeriodicTask>> churn;
  std::vector<int> next_flow(kSites, 0);
  churn.reserve(kSites);
  for (int s = 0; s < kSites; ++s) {
    churn.push_back(std::make_unique<sim::PeriodicTask>(
        engine, 0.1, 1e-4 * static_cast<double>(s), [&, s] {
          const int base = s * kNodesPerSite;
          const auto [src, dst] = local_pair(next_flow[
              static_cast<std::size_t>(s)]++);
          cl.flows().start(
              cl.node(static_cast<std::size_t>(base + src)).vertex(),
              cl.node(static_cast<std::size_t>(base + dst)).vertex(), 1e6,
              nullptr);
        }));
  }

  const auto t0 = std::chrono::steady_clock::now();
  engine.run_until(5.0);
  for (auto& task : churn) task->stop();
  engine.run();
  out.wall_seconds = elapsed_since(t0);
  out.events = engine.num_processed();
  out.completed = cl.flows().num_completed();
  return out;
}

std::string fmt(double v, const char* spec = "%.4f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

}  // namespace

int main() {
  exp::BenchReport report("cluster_scale");
  report.note("topology",
              "scaled_cluster_spec: 100 sites x 10 nodes, nic_jitter 0.3 "
              "(every fair share distinct)");
  report.note("workload",
              "100k site-local flows (1000/site) + 20 WAN flows confined "
              "to sites 0-1; full-recompute wall time, flat vs "
              "hierarchical, identical topology and flow set");

  // ---- Part 1: hierarchical vs flat solver at 100 sites / 100k flows ----
  sim::Engine topo_engine;
  cluster::Cluster cl(topo_engine, exp::scaled_cluster_spec(scale_options()));
  const SolverRun flat = run_solver(cl, net::SolverMode::kFlat);
  const SolverRun hier = run_solver(cl, net::SolverMode::kHierarchical);

  double max_rel_diff = 0.0;
  for (std::size_t i = 0; i < flat.rates.size(); ++i) {
    const double denom = std::max(std::abs(flat.rates[i]), 1e-9);
    max_rel_diff =
        std::max(max_rel_diff, std::abs(hier.rates[i] - flat.rates[i]) / denom);
  }
  const double speedup =
      flat.seconds_per_recompute / hier.seconds_per_recompute;
  const std::size_t total_flows = flat.rates.size();

  const std::string solver = "hierarchical_solver/100sites_100kflows";
  report.add(solver, "flat_seconds_per_recompute", flat.seconds_per_recompute,
             "s");
  report.add(solver, "hierarchical_seconds_per_recompute",
             hier.seconds_per_recompute, "s");
  report.add(solver, "speedup", speedup);
  report.add(solver, "max_rel_rate_diff", max_rel_diff);
  report.add(solver, "total_flows", static_cast<double>(total_flows));
  report.add(solver, "coupled_flows",
             static_cast<double>(hier.stats.coupled_flows));
  report.add(solver, "site_local_flows",
             static_cast<double>(hier.stats.site_local_flows));
  report.add(solver, "sites_solved_independently",
             static_cast<double>(hier.stats.sites_solved));

  AsciiTable solver_table({"solver", "s/recompute", "speedup", "coupled",
                           "site-local", "indep sites"});
  solver_table.add_row({"flat", fmt(flat.seconds_per_recompute), "1.0x",
                        std::to_string(total_flows), "0", "0"});
  solver_table.add_row({"hierarchical", fmt(hier.seconds_per_recompute),
                        fmt(speedup, "%.1fx"),
                        std::to_string(hier.stats.coupled_flows),
                        std::to_string(hier.stats.site_local_flows),
                        std::to_string(hier.stats.sites_solved)});
  std::printf("%s", solver_table
                        .render("Max-min solver at 100 sites / 100k flows")
                        .c_str());

  // ---- Part 2: 1k-node churn stream ----
  const StreamRun stream = run_churn_stream();
  const std::string churn = "churn_stream/1000nodes";
  report.add(churn, "wall_seconds", stream.wall_seconds, "s");
  report.add(churn, "events", static_cast<double>(stream.events));
  report.add(churn, "events_per_second",
             static_cast<double>(stream.events) / stream.wall_seconds);
  report.add(churn, "flows_completed", static_cast<double>(stream.completed));

  AsciiTable stream_table(
      {"nodes", "wall (s)", "events", "events/s", "completed"});
  stream_table.add_row(
      {"1000", fmt(stream.wall_seconds), std::to_string(stream.events),
       fmt(static_cast<double>(stream.events) / stream.wall_seconds, "%.0f"),
       std::to_string(stream.completed)});
  std::printf("\n%s",
              stream_table.render("1k-node churn stream").c_str());

  report.write("BENCH_cluster_scale.json");
  std::printf("\nwrote BENCH_cluster_scale.json\n");

  // ---- acceptance gates ----
  int rc = 0;
  if (speedup < 5.0) {
    std::fprintf(stderr,
                 "ERROR: hierarchical solver speedup %.2fx below the 5x "
                 "floor at 100 sites / 100k flows\n",
                 speedup);
    rc = 1;
  }
  if (max_rel_diff > 1e-6) {
    std::fprintf(stderr,
                 "ERROR: hierarchical rates diverged from flat by %.3e "
                 "(relative)\n",
                 max_rel_diff);
    rc = 1;
  }
  return rc;
}
