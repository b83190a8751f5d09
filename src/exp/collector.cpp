#include "exp/collector.hpp"

#include <mutex>

#include "util/thread_pool.hpp"

namespace lts::exp {

std::uint64_t sample_seed(const CollectorOptions& options,
                          std::size_t scenario_index, std::size_t target_node,
                          int repeat) {
  // Distinct well-spread stream per sample; SplitMix-style mixing inside
  // Rng's reseed handles the rest.
  return options.base_seed + 1000003ULL * scenario_index +
         10007ULL * target_node + 101ULL * static_cast<std::uint64_t>(repeat);
}

CsvTable collect_training_data(const std::vector<Scenario>& scenarios,
                               const CollectorOptions& options) {
  LTS_REQUIRE(!scenarios.empty(), "collect_training_data: no scenarios");
  LTS_REQUIRE(options.repeats >= 1, "collect_training_data: repeats >= 1");

  std::size_t num_nodes = 0;
  for (const auto& site : options.env.cluster_spec.sites) {
    num_nodes += site.node_names.size();
  }
  const auto repeats = static_cast<std::size_t>(options.repeats);
  const std::size_t total = scenarios.size() * num_nodes * repeats;

  // One slot per sample, index = (scenario, target, repeat) in the order
  // the training log lists them. Every sample is a pure function of its
  // seed, so the samples run in any order on any thread; the log is then
  // written serially in index order, byte-identical to a serial loop.
  struct Sample {
    telemetry::ClusterSnapshot snapshot;
    spark::AppResult result;
  };
  std::vector<Sample> samples(total);
  std::mutex progress_mutex;
  std::size_t done = 0;
  // lts-lint: shared-guarded(partitioned: sample i writes only samples[i]; scenarios/options are read-only, and the progress count is mutex-guarded)
  ThreadPool::global().parallel_for(total, [&](std::size_t i) {
    const std::size_t s = i / (num_nodes * repeats);
    const std::size_t target = i / repeats % num_nodes;
    const int rep = static_cast<int>(i % repeats);
    const std::uint64_t seed = sample_seed(options, s, target, rep);
    SimEnv env(seed, options.env);
    env.warmup();
    if (options.residual_job) {
      Rng residual_rng(seed ^ 0x4e51d0a1ULL);
      const auto& warm = sample_scenario(scenarios, residual_rng);
      const auto node = static_cast<std::size_t>(residual_rng.uniform_int(
          0, static_cast<std::int64_t>(env.node_names().size()) - 1));
      env.run_job(warm.config, node, seed ^ 0x4e51d0a2ULL);
    }
    samples[i].snapshot = env.snapshot();
    samples[i].result = env.run_job(scenarios[s].config, target,
                                    /*job_seed=*/seed ^ 0x5eedf00dULL);
    if (options.progress) {
      std::lock_guard lock(progress_mutex);
      options.progress(++done, total);
    }
  });

  core::TrainingLogger logger;
  for (std::size_t i = 0; i < total; ++i) {
    const Scenario& scenario = scenarios[i / (num_nodes * repeats)];
    logger.log_run(scenario.id, samples[i].snapshot, scenario.config,
                   samples[i].result);
  }
  return logger.table();
}

}  // namespace lts::exp
