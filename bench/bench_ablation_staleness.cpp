// Ablation: telemetry staleness.
//
// The scheduler fetches telemetry at decision time; this sweep measures how
// accuracy decays when the snapshot is T seconds old by the time the job
// launches — the "model accuracy vs scheduling latency" trade-off the
// paper's future work calls out (§8, deployability).
#include <cstdio>
#include <memory>

#include "core/scheduler.hpp"
#include "core/trainer.hpp"
#include "exp/collector.hpp"
#include "exp/scenario.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int main() {
  using namespace lts;
  const auto matrix = exp::paper_scenario_matrix();
  exp::CollectorOptions collect;
  collect.repeats = 10;
  collect.base_seed = 12000;
  std::printf("Collecting the training corpus...\n");
  const CsvTable log = exp::collect_training_data(matrix, collect);
  const ml::Dataset data = core::Trainer::dataset_from_log(log);
  const std::shared_ptr<const ml::Regressor> model(
      core::Trainer::train("random_forest", data));

  const double staleness_values[] = {0.0, 30.0, 60.0, 120.0, 300.0};
  const int num_scenarios = 60;
  AsciiTable table({"staleness (s)", "Top-1", "Top-2"});

  for (const double staleness : staleness_values) {
    int top1 = 0, top2 = 0;
    for (int s = 0; s < num_scenarios; ++s) {
      const std::uint64_t seed = 660000 + 104729ULL * s;
      Rng pick(seed ^ 0x77);
      const auto& scenario = exp::sample_scenario(matrix, pick);
      const std::uint64_t job_seed = seed ^ 0xfeedULL;

      // The ranking uses a snapshot taken `staleness` seconds before launch.
      exp::SimEnv world(seed);
      world.warmup();
      std::vector<std::size_t> ranking;
      const std::size_t n_nodes = world.node_names().size();
      {
        const auto snapshot = world.snapshot();
        core::LtsScheduler scheduler(
            core::TelemetryFetcher(world.tsdb(), world.node_names()), model);
        const auto decision =
            scheduler.schedule_from_snapshot(snapshot, scenario.config);
        for (const auto& p : decision.ranking) {
          ranking.push_back(world.cluster().node_index(p.node));
        }
      }
      // Truth: jobs launch `staleness` seconds later, on copies of the
      // world the ranking saw.
      std::vector<double> durations;
      for (std::size_t node = 0; node < n_nodes; ++node) {
        exp::SimEnv env(world);
        env.engine().run_until(env.options().warmup + staleness);
        durations.push_back(
            env.run_job(scenario.config, node, job_seed).duration());
      }
      const std::size_t fastest = static_cast<std::size_t>(
          std::min_element(durations.begin(), durations.end()) -
          durations.begin());
      if (ranking[0] == fastest) ++top1;
      if (ranking[0] == fastest || ranking[1] == fastest) ++top2;
    }
    table.add_row_numeric(
        strformat("%.0f", staleness),
        {static_cast<double>(top1) / num_scenarios,
         static_cast<double>(top2) / num_scenarios},
        3);
  }
  std::printf("%s", table
                        .render("Telemetry staleness ablation (random "
                                "forest)")
                        .c_str());
  std::printf("\nNote: background load in this simulator is stationary per\n"
              "scenario, so decay with staleness is expected to be mild; on\n"
              "bursty real clusters it would be steeper.\n");
  return 0;
}
