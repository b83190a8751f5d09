// perfbench, the repository benchmark: one process, one workload, one seed.
//
//   perfbench --workload table4|live_stream|tenant_mix --seed N
//             --seconds S --trace 0|1 [--git-sha X] [--source-digest Y]
//
// Every workload has a set-up phase (collect a training corpus, fit the
// models it uses) and a measured pass:
//
//   table4      exp::evaluate_methods — Top-k node selection against
//               counterfactual ground truth (thousands of fresh SimEnvs);
//   live_stream exp::run_job_stream under the learned scheduler on six
//               heavy-load Poisson plans (the identical plans also run once
//               under kube-default for comparison);
//   tenant_mix  tenant::run_tenant_streams under DRF, sixteen mixes of bursty
//               best-effort batch, a quota'd Poisson service on the learned
//               scheduler and diurnal weight-2 adhoc.
//
// The untraced run (--trace 0) repeats the measured pass until --seconds
// of it have been measured (at least kMinPassReps times) and the whole
// set-up kSetupReps times, spread over the run. Every repetition does
// identical work from the same seed and must reproduce the first one's
// simulated digests bit for bit. Each host-time metric is the median of its
// repetitions; every repetition's time is in the report line.
//
// The traced run (--trace 1) runs set-up and the measured pass once with
// the obs registry off and once with it on, checks that both give the same
// digests, and reports per-layer numbers: the program's obs counters over
// the traced pass, plus timings of public calls made from here.
//
// Output: a `report {...}` line with provenance, sizes, digests, raw
// per-repetition times and gate results, then as the last line the result
// object {"correct", "attempted", "failed", "metrics"}. A failed gate is
// named on stderr and the exit code is 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/scheduler.hpp"
#include "core/trainer.hpp"
#include "exp/collector.hpp"
#include "exp/evaluate.hpp"
#include "exp/scenario.hpp"
#include "exp/stream.hpp"
#include "obs/metrics.hpp"
#include "tenant/stream.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace lts;
using Clock = std::chrono::steady_clock;

// ---- sizes ---------------------------------------------------------------
// Fixed per workload; only --seed changes the inputs.

constexpr int kSetupReps = 5;
constexpr int kMinPassReps = 3;
constexpr int kMaxPassReps = 40;

// Set-up corpus: every paper configuration on every node, kCollectRepeats
// times (60 x 6 x 1 = 360 samples), in one collect call.
constexpr int kCollectRepeats = 1;

// JCT tails are reported as p90, which needs >= 100 samples so that ten lie
// beyond it.
//
// table4: counterfactual evaluation, one evaluate call.
constexpr int kEvalScenarios = 150;
constexpr int kTruthRepeats = 1;

// live_stream: kStreamParts independent heavy-load Poisson plans, each on
// its own cluster. Several parts average the seed's effect on the work
// (event counts vary by about 8 % between single plans).
constexpr int kStreamParts = 6;
constexpr int kStreamJobs = 100;  // per part
constexpr double kStreamInterarrival = 12.0;

// tenant_mix: kMixParts independent three-tenant mixes, each the
// bench_multitenant mix (same tenants, arrival processes and rates) with
// kMixScale times its job counts (batch 32, svc 12, adhoc 12), and svc on
// the learned scheduler. Single mixes vary more between seeds than single
// streams (preemptions and retries), hence more parts.
constexpr int kMixParts = 16;
constexpr int kMixScale = 2;
constexpr int kBatchJobs = 32 * kMixScale;
constexpr int kSvcJobs = 12 * kMixScale;
constexpr int kAdhocJobs = 12 * kMixScale;

// Traced-run probes.
constexpr int kEnvProbes = 16;
constexpr int kKubeRanksPerEnv = 10;
constexpr int kDecisionProbes = 500;
constexpr int kQualityProbes = 30;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// FNV-1a over bit patterns: a digest of simulated outputs that changes if
// any double changes in any bit.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 1099511628211ULL;
    }
  }
  void f64(double v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

using Digests = std::map<std::string, std::string>;
using Metrics = std::map<std::string, double>;

template <typename Value>
Json to_json(const std::map<std::string, Value>& map) {
  Json j = Json::object();
  for (const auto& [k, v] : map) j[k] = v;
  return j;
}

// Named correctness gates; any failure makes the run incorrect.
class Gates {
 public:
  void check(bool ok, const std::string& name, const std::string& detail) {
    if (ok) return;
    if (failures_.size() < 20) {
      std::fprintf(stderr, "GATE FAILED %s: %s\n", name.c_str(),
                   detail.c_str());
    }
    failures_.push_back(name);
  }
  bool ok() const { return failures_.empty(); }
  Json to_json() const {
    Json j = Json::array();
    for (const auto& f : failures_) j.push_back(f);
    return j;
  }

 private:
  std::vector<std::string> failures_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

// ---- workload inputs -----------------------------------------------------

// Seeds: each --seed owns the range [1e9 seed, 1e9 (seed + 1)), split into
// disjoint sub-ranges for the corpus, the evaluation scenarios and the
// streams.
constexpr std::uint64_t kSeedSpan = 1'000'000'000ULL;
std::uint64_t collect_seed(std::uint64_t s) { return kSeedSpan * s + 12'000; }
std::uint64_t eval_seed(std::uint64_t s) {
  return kSeedSpan * s + 500'000'000;
}
std::uint64_t stream_seed(std::uint64_t s, int part = 0) {
  return kSeedSpan * s + 900'000'000 +
         101ULL * static_cast<std::uint64_t>(part);
}

// The streams run on one long-lived cluster whose background load is drawn
// once per run. A fixed background level (2 contention pods x 3 parallel
// fetches, the middle of the paper's ranges) keeps the per-event cost of
// the substrate the same on every seed; node heterogeneity, pod placement,
// the job plan and arrivals still come from the seed.
exp::EnvOptions stream_env() {
  exp::EnvOptions env;
  env.min_background_pods = env.max_background_pods = 2;
  env.min_parallel_fetches = env.max_parallel_fetches = 3;
  return env;
}

std::vector<std::string> models_for(const std::string& workload) {
  if (workload == "table4") return {"linear", "xgboost", "random_forest"};
  return {"random_forest"};
}

// ---- set-up: corpus + fits -----------------------------------------------

struct SetupResult {
  std::map<std::string, std::shared_ptr<const ml::Regressor>> models;
  ml::Dataset data;
  Digests digests;
  double collect_s = 0.0;
  std::map<std::string, double> fit_s;
  double wall_s = 0.0;
};

SetupResult run_setup(const Args& args) {
  const auto t0 = Clock::now();
  SetupResult out;
  exp::CollectorOptions collect;
  collect.repeats = kCollectRepeats;
  collect.base_seed = collect_seed(args.seed);
  auto t = Clock::now();
  const CsvTable log =
      exp::collect_training_data(exp::paper_scenario_matrix(), collect);
  out.collect_s = since(t);

  std::ostringstream csv;
  log.write(csv);
  Digest d;
  d.str(csv.str());
  out.digests["training_csv"] = d.hex();

  out.data = core::Trainer::dataset_from_log(log);
  for (const auto& name : models_for(args.workload)) {
    t = Clock::now();
    out.models[name] = core::Trainer::train(name, out.data);
    out.fit_s[name] = since(t);
  }
  out.wall_s = since(t0);
  return out;
}

// ---- measured passes -----------------------------------------------------

struct PassResult {
  Digests digests;
  Metrics sim;           // simulated-time end-to-end metrics
  Metrics quality;       // further simulated numbers, in every report
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
  // Traced-run extras.
  double kube_wall_s = 0.0;
  double warmups = 0.0;
  double placement_retries = 0.0;
  double offer_rounds = 0.0;
  double preemptions = 0.0;
};

double p90(const std::vector<double>& xs) { return percentile(xs, 90.0); }

Digest jct_digest(const std::vector<double>& durations) {
  Digest d;
  for (double x : durations) d.f64(x);
  return d;
}

bool is_permutation_of_nodes(const std::vector<std::size_t>& ranking,
                             std::size_t n) {
  if (ranking.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (std::size_t i : ranking) {
    if (i >= n || seen[i]) return false;
    seen[i] = true;
  }
  return true;
}

// The table4 evaluation: one exp::evaluate_methods call over
// kEvalScenarios scenarios.
std::vector<exp::ScenarioOutcome> evaluate(
    const Args& args, const std::vector<exp::MethodUnderTest>& methods,
    Gates& gates) {
  exp::EvalOptions eval;
  eval.num_scenarios = kEvalScenarios;
  eval.truth_repeats = kTruthRepeats;
  eval.base_seed = eval_seed(args.seed);
  auto result = exp::evaluate_methods(methods, exp::paper_scenario_matrix(),
                                      eval);
  for (const auto& acc : result.accuracy) {
    gates.check(acc.top2 >= acc.top1, "top2_ge_top1",
                acc.method + " has Top-2 below Top-1");
  }
  return std::move(result.outcomes);
}

PassResult run_table4(const Args& args, const SetupResult& setup,
                      Gates& gates) {
  std::vector<exp::MethodUnderTest> methods;
  for (const auto& name : models_for(args.workload)) {
    methods.emplace_back(name, setup.models.at(name));
  }
  PassResult out;
  const auto outcomes = evaluate(args, methods, gates);

  Digest truth;
  Digest rankings;
  std::vector<double> lts_jct;
  std::vector<double> kube_jct;
  double rf_hits = 0.0;
  double rf_regret = 0.0;
  out.attempted = outcomes.size();
  for (const auto& o : outcomes) {
    const std::size_t n = o.node_durations.size();
    bool positive = n > 0;
    for (double d : o.node_durations) {
      truth.f64(d);
      positive = positive && std::isfinite(d) && d > 0.0;
    }
    if (!positive) ++out.failed;
    gates.check(positive, "positive_counterfactual",
                "scenario " + o.scenario_id + " has a non-positive truth");
    bool ranked = true;
    for (const auto& [method, ranking] : o.rankings) {
      rankings.str(method);
      for (std::size_t i : ranking) rankings.u64(i);
      const bool all = is_permutation_of_nodes(ranking, n);
      gates.check(all, "ranks_every_node",
                  method + " does not rank every node once in scenario " +
                      o.scenario_id);
      ranked = ranked && all;
    }
    if (!positive || !ranked) continue;
    const std::size_t rf = o.rankings.at("random_forest").front();
    const std::size_t kube = o.rankings.at("kube_default").front();
    lts_jct.push_back(o.node_durations[rf]);
    kube_jct.push_back(o.node_durations[kube]);
    rf_hits += rf == o.fastest_node ? 1.0 : 0.0;
    rf_regret += o.node_durations[rf] - o.node_durations[o.fastest_node];
  }
  gates.check(!lts_jct.empty(), "positive_counterfactual",
              "no scenario produced a usable counterfactual");
  if (lts_jct.empty()) return out;

  const double scored = static_cast<double>(lts_jct.size());
  out.digests["counterfactual_truth"] = truth.hex();
  out.digests["rankings"] = rankings.hex();
  out.sim["lts_jct_mean_s"] = mean(lts_jct);
  out.sim["lts_jct_p90_s"] = p90(lts_jct);
  out.sim["kube_jct_mean_s"] = mean(kube_jct);
  out.quality["rf_top1"] = rf_hits / scored;
  out.quality["rf_regret_s"] = rf_regret / scored;
  const double nodes =
      static_cast<double>(outcomes.front().node_durations.size());
  out.warmups = static_cast<double>(kEvalScenarios) *
                (1.0 + nodes * static_cast<double>(kTruthRepeats));
  return out;
}

exp::StreamOptions stream_options(const Args& args, int part) {
  exp::StreamOptions s;
  s.num_jobs = kStreamJobs;
  s.mean_interarrival = kStreamInterarrival;
  s.seed = stream_seed(args.seed, part);
  s.env = stream_env();
  return s;
}

// Completed-job durations of one stream pass; counts failures.
std::vector<double> stream_durations(const exp::StreamResult& r, int planned,
                                     const std::string& pass,
                                     std::size_t& failed, Gates& gates) {
  std::vector<double> out;
  for (const auto& job : r.jobs) {
    if (std::isfinite(job.duration) && job.duration > 0.0) {
      out.push_back(job.duration);
    } else {
      ++failed;
    }
  }
  failed += static_cast<std::size_t>(
      std::max(0, planned - static_cast<int>(r.jobs.size())));
  gates.check(static_cast<int>(out.size()) == planned, "jobs_complete",
              pass + ": " + std::to_string(out.size()) + " of " +
                  std::to_string(planned) + " planned jobs completed");
  return out;
}

// Runs one stream pass, turning an exhausted placement retry (the runner
// throws) into a counted failure of every job in the pass.
std::vector<double> run_stream_pass(
    exp::StreamPolicy policy, const std::shared_ptr<const ml::Regressor>& model,
    const exp::StreamOptions& options, const std::string& pass,
    PassResult& out, Gates& gates) {
  out.attempted += static_cast<std::size_t>(options.num_jobs);
  try {
    const auto r = exp::run_job_stream(policy, model,
                                       exp::paper_scenario_matrix(), options);
    for (const auto& job : r.jobs) {
      out.placement_retries += job.placement_retries;
    }
    return stream_durations(r, options.num_jobs, pass, out.failed, gates);
  } catch (const Error& e) {
    out.failed += static_cast<std::size_t>(options.num_jobs);
    gates.check(false, "placement_exhausted", pass + ": " + e.what());
    return {};
  }
}

PassResult run_live_stream(const Args& args, const SetupResult& setup,
                           Gates& gates) {
  PassResult out;
  std::vector<double> lts;
  for (int part = 0; part < kStreamParts; ++part) {
    const auto jct = run_stream_pass(exp::StreamPolicy::kModel,
                                     setup.models.at("random_forest"),
                                     stream_options(args, part), "lts", out,
                                     gates);
    lts.insert(lts.end(), jct.begin(), jct.end());
  }
  out.warmups = kStreamParts;
  if (lts.empty()) return out;
  out.digests["jct_lts"] = jct_digest(lts).hex();
  out.sim["lts_jct_mean_s"] = mean(lts);
  out.sim["lts_jct_p90_s"] = p90(lts);
  return out;
}

tenant::TenantStreamsOptions tenant_options(const Args& args,
                                            const SetupResult& setup,
                                            int part) {
  constexpr Bytes kGiB = 1024.0 * 1024.0 * 1024.0;
  tenant::TenantStreamsOptions o;
  o.seed = stream_seed(args.seed, part) + 50;
  o.env = stream_env();
  o.sharing = tenant::SharingMode::kDrf;
  o.tenants.resize(3);

  auto& batch = o.tenants[0];
  batch.spec.name = "batch";
  batch.policy = exp::StreamPolicy::kKubeDefault;
  batch.num_jobs = kBatchJobs;
  batch.arrivals.process = tenant::ArrivalProcess::kBursty;
  batch.arrivals.mean_interarrival = 6.0;
  batch.arrivals.burst_size = 8;
  batch.arrivals.burst_spacing = 0.5;

  auto& svc = o.tenants[1];
  svc.spec.name = "svc";
  svc.spec.quota = {12.0, 16.0 * kGiB};
  svc.policy = exp::StreamPolicy::kModel;
  svc.model = setup.models.at("random_forest");
  svc.num_jobs = kSvcJobs;
  svc.arrivals.process = tenant::ArrivalProcess::kExponential;
  svc.arrivals.mean_interarrival = 30.0;

  auto& adhoc = o.tenants[2];
  adhoc.spec.name = "adhoc";
  adhoc.spec.weight = 2.0;
  adhoc.policy = exp::StreamPolicy::kKubeDefault;
  adhoc.num_jobs = kAdhocJobs;
  adhoc.arrivals.process = tenant::ArrivalProcess::kDiurnal;
  adhoc.arrivals.mean_interarrival = 25.0;
  adhoc.arrivals.diurnal_amplitude = 0.8;
  adhoc.arrivals.diurnal_period = 300.0;
  return o;
}

// What the tenant_mix pass collects over its mixes.
struct MixTotals {
  std::vector<double> lts_jct, kube_jct, svc_queue, jain;
  Digest digest;
};

// One mix of the tenant_mix pass; folds its results into `out` and `totals`.
void run_one_mix(const Args& args, const SetupResult& setup, int part,
                 PassResult& out, MixTotals& totals, Gates& gates) {
  const auto options = tenant_options(args, setup, part);
  std::size_t planned_jobs = 0;
  for (const auto& t : options.tenants) {
    planned_jobs += static_cast<std::size_t>(t.num_jobs);
  }
  out.attempted += planned_jobs;
  tenant::TenantStreamsResult run;
  try {
    run = tenant::run_tenant_streams(exp::paper_scenario_matrix(), options);
  } catch (const Error& e) {
    out.failed += planned_jobs;
    gates.check(false, "placement_exhausted", e.what());
    return;
  }

  gates.check(run.tenants.size() == options.tenants.size(),
              "tenant_job_counts", "tenant count differs from the plan");
  for (std::size_t i = 0; i < run.tenants.size(); ++i) {
    const auto& planned = options.tenants[i];
    const auto& t = run.tenants[i];
    gates.check(static_cast<int>(t.jobs.size()) == planned.num_jobs,
                "tenant_job_counts",
                t.tenant + ": " + std::to_string(t.jobs.size()) +
                    " jobs, plan has " + std::to_string(planned.num_jobs));
    out.failed += static_cast<std::size_t>(
        std::max(0, planned.num_jobs - static_cast<int>(t.jobs.size())));
    totals.digest.str(t.tenant);
    totals.digest.f64(t.makespan);
    totals.digest.f64(t.share_integral);
    for (const auto& job : t.jobs) {
      totals.digest.str(job.driver_node);
      totals.digest.f64(job.submitted);
      totals.digest.f64(job.duration);
      totals.digest.u64(static_cast<std::uint64_t>(job.placement_retries));
      totals.digest.u64(static_cast<std::uint64_t>(job.preemptions));
      out.placement_retries += job.placement_retries;
      const bool done = std::isfinite(job.duration) && job.duration > 0.0;
      gates.check(done, "jobs_complete",
                  t.tenant + " job " + job.scenario_id + " did not complete");
      if (!done) {
        ++out.failed;
        continue;
      }
      if (planned.policy == exp::StreamPolicy::kModel) {
        totals.lts_jct.push_back(job.duration);
        totals.svc_queue.push_back(job.queueing_delay);
      } else {
        totals.kube_jct.push_back(job.duration);
      }
    }
  }
  totals.digest.f64(run.jain_share);
  totals.digest.f64(run.horizon);
  gates.check(run.jain_share > 0.0 && run.jain_share <= 1.0, "drf_jain_range",
              "Jain index " + std::to_string(run.jain_share) +
                  " outside (0, 1]");
  totals.jain.push_back(run.jain_share);
  out.offer_rounds += run.offer_rounds;
  out.preemptions += run.total_preemptions;
}

PassResult run_tenant_mix(const Args& args, const SetupResult& setup,
                          Gates& gates) {
  PassResult out;
  MixTotals totals;
  for (int part = 0; part < kMixParts; ++part) {
    run_one_mix(args, setup, part, out, totals, gates);
  }
  out.warmups = kMixParts;
  if (totals.lts_jct.empty() || totals.kube_jct.empty()) return out;

  out.digests["tenant_results"] = totals.digest.hex();
  out.sim["lts_jct_mean_s"] = mean(totals.lts_jct);
  out.sim["lts_jct_p90_s"] = p90(totals.lts_jct);
  out.sim["kube_jct_mean_s"] = mean(totals.kube_jct);
  out.quality["drf_jain"] = mean(totals.jain);
  out.quality["svc_queue_mean_s"] = mean(totals.svc_queue);
  return out;
}

// The same pass with the learned scheduler taken out: table4 evaluates only
// the baselines, live_stream places the identical plans by kube-default,
// tenant_mix runs the identical mixes with svc on kube-default. It costs
// the substrate alone, separating substrate gains from core gains. On
// live_stream it also gives kube_jct_mean_s; being deterministic, it runs
// once per process, outside the timed repetitions.
void run_kube_pass(const Args& args, const SetupResult& setup,
                   PassResult& out, Gates& gates) {
  const auto t0 = Clock::now();
  if (args.workload == "table4") {
    out.attempted += evaluate(args, {}, gates).size();
  } else if (args.workload == "live_stream") {
    std::vector<double> kube;
    for (int part = 0; part < kStreamParts; ++part) {
      const auto jct =
          run_stream_pass(exp::StreamPolicy::kKubeDefault, nullptr,
                          stream_options(args, part), "kube", out, gates);
      kube.insert(kube.end(), jct.begin(), jct.end());
    }
    if (!kube.empty()) {
      out.digests["jct_kube"] = jct_digest(kube).hex();
      out.sim["kube_jct_mean_s"] = mean(kube);
    }
  } else {
    for (int part = 0; part < kMixParts; ++part) {
      auto options = tenant_options(args, setup, part);
      options.tenants[1].policy = exp::StreamPolicy::kKubeDefault;
      options.tenants[1].model = nullptr;
      for (const auto& t : options.tenants) {
        out.attempted += static_cast<std::size_t>(t.num_jobs);
      }
      try {
        tenant::run_tenant_streams(exp::paper_scenario_matrix(), options);
      } catch (const Error& e) {
        out.failed += kBatchJobs + kSvcJobs + kAdhocJobs;
        gates.check(false, "placement_exhausted", e.what());
      }
    }
  }
  out.kube_wall_s = since(t0);
}

PassResult run_pass(const Args& args, const SetupResult& setup, Gates& gates) {
  const auto t0 = Clock::now();
  PassResult out = args.workload == "table4"
                       ? run_table4(args, setup, gates)
                   : args.workload == "live_stream"
                       ? run_live_stream(args, setup, gates)
                       : run_tenant_mix(args, setup, gates);
  out.wall_s = since(t0);
  return out;
}

// ---- traced-run probes ---------------------------------------------------
// Timings of public calls made from outside the library, on inputs drawn
// from this workload's seed. They run outside the measured passes.

struct Probes {
  double env_build_ms = 0.0;
  double env_warmup_ms = 0.0;
  double run_job_ms = 0.0;
  double kube_rank_us = 0.0;
  double fetch_us_p50 = 0.0;
  double decide_us_p50 = 0.0;
  double decide_us_p99 = 0.0;
  double predict_us_per_row = 0.0;
  std::map<std::string, double> fit_s;
  double rf_top1 = 0.0;
  double rf_regret_s = 0.0;
  double wall_s = 0.0;
};

Probes run_probes(const Args& args, const SetupResult& setup) {
  const auto t0 = Clock::now();
  Probes p;
  const auto matrix = exp::paper_scenario_matrix();
  const exp::EnvOptions env_options = args.workload == "table4"
                                          ? exp::EnvOptions{}
                                          : stream_env();
  Rng rng(eval_seed(args.seed) ^ 0x9B0BE5ULL);

  // Environment lifecycle: build, warm up, rank, run one pinned job.
  std::vector<double> build_ms, warmup_ms, job_ms, rank_us;
  for (int i = 0; i < kEnvProbes; ++i) {
    const std::uint64_t seed = eval_seed(args.seed) + 7919ULL * i;
    const auto& scenario = exp::sample_scenario(matrix, rng);
    auto t = Clock::now();
    exp::SimEnv env(seed, env_options);
    build_ms.push_back(since(t) * 1e3);
    t = Clock::now();
    env.warmup();
    warmup_ms.push_back(since(t) * 1e3);
    for (int k = 0; k < kKubeRanksPerEnv; ++k) {
      t = Clock::now();
      const auto ranking = env.kube_ranking(scenario.config);
      rank_us.push_back(since(t) * 1e6);
    }
    t = Clock::now();
    env.run_job(scenario.config,
                static_cast<std::size_t>(i) % env.node_names().size(),
                seed ^ 0x5eedf00dULL);
    job_ms.push_back(since(t) * 1e3);
  }
  p.env_build_ms = mean(build_ms);
  p.env_warmup_ms = mean(warmup_ms);
  p.run_job_ms = mean(job_ms);
  p.kube_rank_us = percentile(rank_us, 50.0);

  // Decision path on one warm environment: fetch, then rank from the
  // snapshot, once per simulated second.
  const auto& model = setup.models.at("random_forest");
  exp::SimEnv env(stream_seed(args.seed), env_options);
  env.warmup();
  core::LtsScheduler scheduler(
      core::TelemetryFetcher(env.tsdb(), env.node_names(),
                             env_options.snapshot),
      model);
  std::vector<double> fetch_us, decide_us;
  for (int i = 0; i < kDecisionProbes; ++i) {
    env.engine().run_until(env.engine().now() + 1.0);
    const auto& scenario = exp::sample_scenario(matrix, rng);
    auto t = Clock::now();
    const auto snapshot = scheduler.fetcher().fetch(env.engine().now());
    fetch_us.push_back(since(t) * 1e6);
    t = Clock::now();
    const auto decision =
        scheduler.schedule_from_snapshot(snapshot, scenario.config);
    decide_us.push_back(since(t) * 1e6);
  }
  p.fetch_us_p50 = percentile(fetch_us, 50.0);
  p.decide_us_p50 = percentile(decide_us, 50.0);
  p.decide_us_p99 = percentile(decide_us, 99.0);

  // Batched prediction over the training feature block; fastest of three.
  const auto& x = setup.data.x();
  std::vector<double> out(x.rows());
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t = Clock::now();
    model->predict_batch(x.data(), x.rows(), x.cols(), out);
    best = std::min(best, since(t));
  }
  p.predict_us_per_row = best * 1e6 / static_cast<double>(x.rows());

  // Fits the set-up does not make, timed on its corpus.
  for (const std::string name : {"linear", "xgboost", "random_forest"}) {
    const auto it = setup.fit_s.find(name);
    if (it != setup.fit_s.end()) {
      p.fit_s[name] = it->second;
      continue;
    }
    const auto t = Clock::now();
    core::Trainer::train(name, setup.data);
    p.fit_s[name] = since(t);
  }

  // Random-forest placement quality against counterfactual truth, on this
  // workload's cluster conditions. table4's pass measures it on all its
  // scenarios; the streams have no counterfactual, so a small evaluation
  // does.
  if (args.workload != "table4") {
    exp::EvalOptions eval;
    eval.num_scenarios = kQualityProbes;
    eval.truth_repeats = kTruthRepeats;
    eval.base_seed = eval_seed(args.seed);
    eval.env = env_options;
    const auto rf = exp::evaluate_methods(
                        std::vector<exp::MethodUnderTest>{
                            {"random_forest", model}},
                        matrix, eval)
                        .by_method("random_forest");
    p.rf_top1 = rf.top1;
    p.rf_regret_s = rf.mean_regret;
  }
  p.wall_s = since(t0);
  return p;
}

// ---- obs counters --------------------------------------------------------

struct ObsReadings {
  double events = 0.0;
  double recomputes = 0.0;
  double fill_rounds = 0.0;
  double recompute_s = 0.0;
  double decisions = 0.0;
  double fallbacks = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
};

ObsReadings read_obs() {
  auto& reg = obs::MetricsRegistry::global();
  ObsReadings r;
  r.events = reg.counter("lts_sim_events_processed_total").value();
  r.recomputes = reg.counter("lts_net_rate_recomputes_total").value();
  r.fill_rounds =
      reg.histogram("lts_net_rate_recompute_rounds", {1, 2, 4, 8, 16, 32, 64})
          .sum();
  r.recompute_s = reg.histogram("lts_net_rate_recompute_duration_seconds",
                                {1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2})
                      .sum();
  r.decisions = reg.counter("lts_scheduler_decisions_total").value();
  r.fallbacks = reg.counter("lts_scheduler_fallback_total").value();
  r.cache_hits = reg.counter("lts_snapshot_cache_hits_total").value();
  r.cache_misses = reg.counter("lts_snapshot_cache_misses_total").value();
  return r;
}

void set_tracing(bool on) {
  auto& reg = obs::MetricsRegistry::global();
  reg.set_enabled(on);
  reg.reset_values();
}

// ---- the two run modes ---------------------------------------------------

struct RunOutput {
  Metrics metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Json detail = Json::object();
};

void check_same(const Digests& want, const Digests& got,
                const std::string& what, Gates& gates) {
  gates.check(want == got, "digests_identical",
              what + " changed a simulated digest");
}

// Set-up repetition k runs once k/kSetupReps of --seconds has been
// measured, so that set-up and pass repetitions are spread over the whole
// run alike.
RunOutput run_untraced(const Args& args, Gates& gates, Digests& digests) {
  RunOutput out;
  SetupResult setup;
  PassResult first;
  std::vector<double> setup_s, pass_s;
  double measured = 0.0;
  const auto set_up = [&] {
    setup = {};  // free the previous repetition's corpus and models first
    setup = run_setup(args);
    setup_s.push_back(setup.wall_s);
    if (setup_s.size() == 1) {
      digests = setup.digests;
    } else {
      check_same(digests, setup.digests, "set-up repetition", gates);
    }
  };
  for (int rep = 0; rep < kMaxPassReps; ++rep) {
    const auto done = static_cast<double>(setup_s.size());
    if (done < kSetupReps && measured >= done * args.seconds / kSetupReps) {
      set_up();
    }
    PassResult pass = run_pass(args, setup, gates);
    pass_s.push_back(pass.wall_s);
    measured += pass.wall_s;
    out.attempted += pass.attempted;
    out.failed += pass.failed;
    if (rep == 0) {
      first = pass;
      // One reproduction's peak: later repetitions only add allocator
      // fragmentation that varies from run to run.
      out.metrics["peak_rss_mb"] = peak_rss_mb();
    } else {
      check_same(first.digests, pass.digests, "pass repetition", gates);
    }
    if (rep + 1 >= kMinPassReps && measured >= args.seconds) break;
  }
  while (static_cast<int>(setup_s.size()) < kSetupReps) set_up();
  if (args.workload == "live_stream") {
    const PassResult before = first;
    run_kube_pass(args, setup, first, gates);
    out.attempted += first.attempted - before.attempted;
    out.failed += first.failed - before.failed;
  }
  for (const auto& [k, v] : first.digests) digests[k] = v;

  for (const auto& [k, v] : first.sim) out.metrics[k] = v;
  out.detail["quality"] = to_json(first.quality);
  out.metrics["setup_s"] = percentile(setup_s, 50.0);
  out.metrics["wall_s"] = percentile(pass_s, 50.0);
  out.detail["setup_reps_s"] = Json::from_doubles(setup_s);
  out.detail["pass_reps_s"] = Json::from_doubles(pass_s);
  return out;
}

RunOutput run_traced(const Args& args, Gates& gates, Digests& digests) {
  const auto t0 = Clock::now();
  RunOutput out;

  // Untraced reference, then the same work traced. The kube pass follows
  // the traced pass's obs readings; on live_stream, where it produces
  // simulated outputs, it runs untraced too.
  const bool live = args.workload == "live_stream";
  set_tracing(false);
  const SetupResult ref_setup = run_setup(args);
  PassResult ref_pass = run_pass(args, ref_setup, gates);
  if (live) run_kube_pass(args, ref_setup, ref_pass, gates);
  digests = ref_setup.digests;
  for (const auto& [k, v] : ref_pass.digests) digests[k] = v;

  set_tracing(true);
  const SetupResult setup = run_setup(args);
  check_same(ref_setup.digests, setup.digests, "tracing the set-up", gates);
  obs::MetricsRegistry::global().reset_values();
  PassResult pass = run_pass(args, setup, gates);
  const ObsReadings obs = read_obs();
  const double placement_retries = pass.placement_retries;
  run_kube_pass(args, setup, pass, gates);
  check_same(ref_pass.digests, pass.digests, "tracing the pass", gates);
  out.attempted = ref_pass.attempted + pass.attempted;
  out.failed = ref_pass.failed + pass.failed;
  set_tracing(false);

  const Probes probes = run_probes(args, setup);

  const bool t4 = args.workload == "table4";
  Metrics& m = out.metrics;
  m["exp.collect_s"] = setup.collect_s;
  for (const auto& [name, seconds] : probes.fit_s) {
    m["ml.fit_s." + name] = seconds;
  }
  m["exp.pass_s"] = pass.wall_s;
  m["exp.kube_pass_s"] = pass.kube_wall_s;
  m["exp.env_build_ms"] = probes.env_build_ms;
  m["exp.env_warmup_ms"] = probes.env_warmup_ms;
  m["exp.warmups"] = pass.warmups;
  m["spark.run_job_ms"] = probes.run_job_ms;
  m["core.decide_us.p50"] = probes.decide_us_p50;
  m["core.decide_us.p99"] = probes.decide_us_p99;
  m["core.fetch_us.p50"] = probes.fetch_us_p50;
  m["ml.predict_us_per_row"] = probes.predict_us_per_row;
  const double fetches = obs.cache_hits + obs.cache_misses;
  m["telemetry.snapshot_cache_hit_ratio"] =
      fetches > 0.0 ? obs.cache_hits / fetches : 0.0;
  m["core.decisions"] = obs.decisions;
  m["core.fallbacks"] = obs.fallbacks;
  m["simcore.events"] = obs.events;
  m["simcore.wall_ns_per_event"] =
      obs.events > 0.0 ? pass.wall_s * 1e9 / obs.events : 0.0;
  m["net.recomputes"] = obs.recomputes;
  m["net.fill_rounds"] = obs.fill_rounds;
  m["net.recompute_s"] = obs.recompute_s;
  m["tenant.offer_rounds"] = pass.offer_rounds;
  m["tenant.preemptions"] = pass.preemptions;
  m["exp.placement_retries"] = placement_retries;
  m["k8s.kube_rank_us"] = probes.kube_rank_us;
  m["ml.rf_top1"] = t4 ? pass.quality.at("rf_top1") : probes.rf_top1;
  m["ml.rf_regret_s"] =
      t4 ? pass.quality.at("rf_regret_s") : probes.rf_regret_s;
  const auto jain = pass.quality.find("drf_jain");
  m["tenant.drf_jain"] = jain == pass.quality.end() ? 0.0 : jain->second;
  m["obs.trace_overhead_s"] =
      (setup.wall_s + pass.wall_s) - (ref_setup.wall_s + ref_pass.wall_s);
  const double children = ref_setup.wall_s + ref_pass.wall_s +
                          ref_pass.kube_wall_s + setup.wall_s + pass.wall_s +
                          pass.kube_wall_s + probes.wall_s;
  m["exp.unattributed_s"] = since(t0) - children;

  // The simulated numbers of the traced pass, for the report.
  out.detail["sim_metrics"] = to_json(pass.sim);
  out.detail["quality"] = to_json(pass.quality);
  return out;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else if (key == "--source-digest") {
      args.source_digest = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 &&
         (args.workload == "table4" || args.workload == "live_stream" ||
          args.workload == "tenant_mix");
}

Json sizes_json(const std::string& workload) {
  Json s = Json::object();
  s["setup_reps"] = kSetupReps;
  s["collect_samples"] = 60 * 6 * kCollectRepeats;
  s["fitted_models"] = static_cast<double>(models_for(workload).size());
  if (workload == "table4") {
    s["eval_scenarios"] = kEvalScenarios;
    s["truth_repeats"] = kTruthRepeats;
  } else if (workload == "live_stream") {
    s["stream_parts"] = kStreamParts;
    s["stream_jobs_per_part"] = kStreamJobs;
    s["mean_interarrival_s"] = kStreamInterarrival;
  } else {
    s["mix_parts"] = kMixParts;
    s["batch_jobs_per_mix"] = kBatchJobs;
    s["svc_jobs_per_mix"] = kSvcJobs;
    s["adhoc_jobs_per_mix"] = kAdhocJobs;
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload table4|live_stream|"
                   "tenant_mix --seed N --seconds S --trace 0|1\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: bad argument: %s\n", e.what());
    return 2;
  }

  Gates gates;
  Digests digests;
  RunOutput run;
  try {
    run = args.trace ? run_traced(args, gates, digests)
                     : run_untraced(args, gates, digests);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  Json provenance = Json::object();
  provenance["git_sha"] = args.git_sha;
  provenance["source_digest"] = args.source_digest;
  provenance["build_type"] = PERFBENCH_BUILD_TYPE;
  provenance["compiler"] = "gcc " __VERSION__;
  provenance["nproc"] =
      static_cast<double>(std::thread::hardware_concurrency());
  provenance["thread_pool_size"] =
      static_cast<double>(ThreadPool::global().size());

  Json report = Json::object();
  report["workload"] = args.workload;
  report["seed"] = static_cast<double>(args.seed);
  report["trace"] = args.trace;
  report["provenance"] = provenance;
  report["sizes"] = sizes_json(args.workload);
  report["digests"] = to_json(digests);
  report["gate_failures"] = gates.to_json();
  for (const auto& [k, v] : run.detail.as_object()) report[k] = v;
  std::printf("report %s\n", report.dump().c_str());

  // Metric values by name; run.py attaches the units BENCHMARK.json
  // declares.
  Json result = Json::object();
  result["correct"] = gates.ok();
  result["attempted"] = static_cast<double>(run.attempted);
  result["failed"] = static_cast<double>(run.failed);
  result["metrics"] = to_json(run.metrics);
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return gates.ok() ? 0 : 1;
}
