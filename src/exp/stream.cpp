#include "exp/stream.hpp"

#include <algorithm>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spark/runtime.hpp"
#include "spark/workloads.hpp"
#include "util/string_util.hpp"

namespace lts::exp {

StreamCounters stream_counters(const std::string& tenant) {
  obs::Labels labels;
  if (!tenant.empty()) labels.emplace("tenant", tenant);
  return StreamCounters{
      obs::counter("lts_stream_jobs_completed_total", labels,
                   "Jobs completed by the live job-stream runner"),
      obs::counter(
          "lts_stream_placement_retries_total", labels,
          "Placements deferred because the cluster could not fit the job")};
}

namespace {

/// Per-node rejection reasons of a scheduling attempt, one
/// "\n  node: reason" line each (an empty result is explained too).
std::string describe_rejections(const k8s::ScheduleResult& result) {
  if (result.rejected.empty()) {
    return "\n  (no per-node rejection reasons recorded)";
  }
  std::string out;
  for (const auto& [node, reason] : result.rejected) {
    out += "\n  " + node + ": " + reason;
  }
  return out;
}

/// One-line job-config summary for diagnostics.
std::string describe_job_config(const spark::JobConfig& config) {
  constexpr double kMiB = 1024.0 * 1024.0;
  return strformat(
      "app=%s input_records=%lld executors=%d "
      "executor=%.1fcores/%.0fMiB driver=%.1fcores/%.0fMiB",
      spark::to_string(config.app),
      static_cast<long long>(config.input_records), config.executors,
      config.executor_cores, config.executor_memory / kMiB,
      config.driver_cores, config.driver_memory / kMiB);
}

}  // namespace

void record_completion(StreamJobResult& job, const std::string& scenario_id,
                       const spark::AppResult& result) {
  job.scenario_id = scenario_id;
  job.driver_node = result.driver_node;
  job.submitted = result.submit_time;
  job.queueing_delay = result.submit_time - job.planned_arrival;
  job.duration = result.duration();
}

SimTime last_finish(const std::vector<StreamJobResult>& jobs) {
  SimTime last = 0.0;
  for (const auto& job : jobs) {
    last = std::max(last, job.submitted + job.duration);
  }
  return last;
}

double makespan(const std::vector<StreamJobResult>& jobs) {
  SimTime first_submit = jobs.front().submitted;
  for (const auto& job : jobs) {
    first_submit = std::min(first_submit, job.submitted);
  }
  return last_finish(jobs) - first_submit;
}

Error unplaceable_error(const std::string& job, int retries,
                        const spark::JobConfig& config,
                        const k8s::ScheduleResult& last_attempt) {
  return Error(strformat("%s still unplaceable after %d retries [%s]; "
                         "per-node rejections of the last attempt:",
                         job.c_str(), retries,
                         describe_job_config(config).c_str()) +
               describe_rejections(last_attempt));
}

StreamResult run_job_stream(StreamPolicy policy,
                            std::shared_ptr<const ml::Regressor> model,
                            const std::vector<Scenario>& matrix,
                            const StreamOptions& options) {
  LTS_REQUIRE(options.num_jobs >= 1, "run_job_stream: num_jobs >= 1");
  const bool model_policy = policy == StreamPolicy::kModel ||
                            policy == StreamPolicy::kModelRetrain;
  if (model_policy && !options.fallback.enabled) {
    LTS_REQUIRE(model != nullptr && model->is_fitted(),
                "run_job_stream: model policies need a fitted model");
  }

  SimEnv env(options.seed, options.env);
  const std::size_t n_nodes = env.node_names().size();

  // Pre-draw the job sequence and arrival times: identical across policies.
  Rng stream_rng(options.seed ^ 0x57AE57AEULL);
  struct PlannedJob {
    const Scenario* scenario;
    SimTime arrival;
    std::uint64_t job_seed;
    std::size_t random_node;  // used by kRandom
  };
  std::vector<PlannedJob> plan;
  SimTime t = env.options().warmup;
  for (int j = 0; j < options.num_jobs; ++j) {
    t += stream_rng.exponential(options.mean_interarrival);
    plan.push_back(PlannedJob{
        &sample_scenario(matrix, stream_rng), t,
        options.seed * 1000003ULL + static_cast<std::uint64_t>(j),
        static_cast<std::size_t>(stream_rng.uniform_int(
            0, static_cast<std::int64_t>(n_nodes) - 1))});
  }

  // Optional model scheduler (reused across decisions).
  std::unique_ptr<core::LtsScheduler> scheduler;
  if (model_policy) {
    scheduler = std::make_unique<core::LtsScheduler>(
        core::TelemetryFetcher(env.tsdb(), env.node_names(),
                               options.env.snapshot, options.degradation),
        model, options.features, /*risk_aversion=*/0.0, options.fallback);
  }

  // Online retraining loop (kModelRetrain only): completions feed the
  // rolling window, successful refits hot-swap the scheduler's model. A
  // kRetrainFail fault makes attempts fail while active — the previous
  // model keeps serving.
  std::unique_ptr<core::OnlineTrainer> retrainer;
  if (policy == StreamPolicy::kModelRetrain) {
    core::RetrainOptions retrain_options = options.retrain;
    retrain_options.enabled = true;
    retrainer = std::make_unique<core::OnlineTrainer>(
        retrain_options, options.features, model);
    retrainer->set_failure_hook(
        [&env] { return env.fault_injector().retrain_fail_active(); });
  }

  // Decision-time context held until the job completes, at which point it
  // becomes one training row for the retrainer.
  struct PendingFeedback {
    bool valid = false;
    core::TrainingRecord record;
    double predicted = -1.0;  // <= 0 means no usable model prediction
  };
  std::vector<PendingFeedback> feedback(plan.size());

  StreamResult result;
  result.jobs.resize(plan.size());
  for (std::size_t j = 0; j < plan.size(); ++j) {
    result.jobs[j].planned_arrival = plan[j].arrival;
  }
  std::vector<LaunchedJob> launched(plan.size());
  int remaining = options.num_jobs;
  const StreamCounters metrics = stream_counters();

  // Placement may be infeasible while the cluster is backlogged; like real
  // pending pods, the job retries a few seconds later — but only
  // options.max_placement_retries times. A permanently-infeasible job
  // (e.g. one whose pods can never fit any node) fails the stream loudly
  // with the last attempt's per-node rejection reasons instead of spinning
  // until the drain guard aborts the whole run with no explanation.
  constexpr SimTime kRetryDelay = 5.0;
  // Every event that calls try_place lives in env's engine, which is only
  // stepped inside this function.
  std::function<void(std::size_t)> try_place;
  try_place = [&](std::size_t j) {
    const PlannedJob& planned = plan[j];
    const spark::JobConfig& config = planned.scenario->config;
    const std::string job_name =
        strformat("stream-%zu-%.0f", j, env.engine().now());
    auto retry = [&, j](const k8s::ScheduleResult& last_attempt) {
      StreamJobResult& job = result.jobs[j];
      ++job.placement_retries;
      metrics.placement_retries.inc();
      if (job.placement_retries > options.max_placement_retries) {
        throw unplaceable_error(
            strformat("run_job_stream: job %zu (%s, \"%s\")", j,
                      planned.scenario->id.c_str(), job_name.c_str()),
            options.max_placement_retries, config, last_attempt);
      }
      env.engine().schedule_in(kRetryDelay, [&try_place, j] { try_place(j); });
    };

    // Per-decision trace span for the model policy: the scheduler joins it
    // with its fetch/features/predict/rank phases, and "bind" lands below
    // once the pods are placed.
    std::optional<obs::ScopedSpan> span;
    if (model_policy) {
      span.emplace(obs::Tracer::global(), "decision", env.engine().now());
    }

    // Placement decision now, from live state.
    std::size_t driver_node = 0;
    switch (policy) {
      case StreamPolicy::kModel:
      case StreamPolicy::kModelRetrain: {
        // Fetch explicitly (instead of scheduler->schedule) so the same
        // snapshot that produced the decision can seed the training row.
        // The batched serving path — fetch_shared (epoch-keyed cache, no
        // copy) + a batch-of-one schedule_many_from_snapshot (flattened
        // predict_batch) — is bit-identical to the scalar
        // fetch + schedule_from_snapshot it replaces, so the kModel
        // decision sequence is unchanged.
        const SimTime now = env.engine().now();
        const auto snapshot = scheduler->fetcher().fetch_shared(now);
        if (span) span->phase("fetch", now);
        const auto decision =
            scheduler->schedule_many_from_snapshot(*snapshot, {&config, 1})
                .front();
        driver_node = env.cluster().node_index(decision.selected());
        if (retrainer) {
          PendingFeedback& fb = feedback[j];
          fb.valid = true;
          fb.record.scenario_id = planned.scenario->id;
          fb.record.node = decision.selected();
          fb.record.snapshot_time = snapshot->at;
          fb.record.telemetry = snapshot->by_name(decision.selected());
          fb.record.config = config;
          // Fallback rankings carry heuristic scores, not durations;
          // OnlineTrainer also rejects stale-demoted scores (>= 1e8).
          fb.predicted = decision.used_fallback
                             ? -1.0
                             : decision.ranking.front().predicted_duration;
        }
        break;
      }
      case StreamPolicy::kKubeDefault: {
        const auto ranking = env.kube_ranking(config);
        if (!ranking.feasible()) {
          retry(ranking);
          return;
        }
        driver_node = env.cluster().node_index(ranking.selected());
        break;
      }
      case StreamPolicy::kRandom:
        driver_node = planned.random_node;
        break;
    }

    // The driver must fit where it was pinned; then launch (executors via
    // the default scheduler). Either failing defers the job.
    const auto driver_fit = env.kube_scheduler().schedule(
        core::JobBuilder::driver_pod(config, job_name,
                                     env.node_names()[driver_node]));
    if (!driver_fit.feasible()) {
      retry(driver_fit);
      return;
    }
    LaunchedJob job = env.launch_job(
        config, job_name, driver_node, planned.job_seed,
        [&, j](const spark::AppResult& app_result) {
          record_completion(result.jobs[j], plan[j].scenario->id, app_result);
          env.unbind(launched[j]);
          metrics.jobs_completed.inc();
          if (retrainer && feedback[j].valid) {
            PendingFeedback& fb = feedback[j];
            fb.record.duration = app_result.duration();
            fb.record.shuffle_bytes = app_result.total_shuffle_bytes;
            fb.record.max_spill_penalty = app_result.max_spill_penalty;
            const auto event =
                retrainer->on_completion(fb.record, fb.predicted);
            if (event && event->outcome == core::RetrainOutcome::kSwapped) {
              scheduler->set_model(retrainer->model());
            }
          }
          --remaining;
        });
    if (!job.app) {
      retry(job.rejection);
      return;
    }
    if (span) span->phase("bind", env.engine().now());
    launched[j] = std::move(job);
  };

  for (std::size_t j = 0; j < plan.size(); ++j) {
    env.engine().schedule_at(plan[j].arrival,
                             [&try_place, j] { try_place(j); });
  }

  while (remaining > 0) {
    LTS_REQUIRE(env.engine().step(), "run_job_stream: engine drained early");
    LTS_REQUIRE(env.engine().now() < plan.back().arrival + 7200.0,
                "run_job_stream: stream failed to complete");
  }

  result.makespan = makespan(result.jobs);
  if (retrainer) {
    result.model_version = retrainer->model_version();
    result.retrain_events = retrainer->events();
    result.final_model = retrainer->model();
  }
  return result;
}

}  // namespace lts::exp
