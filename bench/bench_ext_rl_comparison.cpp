// §2.3 made measurable: supervised learning vs online RL at equal
// execution budgets.
//
// The paper chooses supervised learning because RL "requires a huge number
// of trial runs to converge". This bench executes that comparison: an
// epsilon-greedy contextual bandit learns placement online (one job per
// episode, learning only from its own choices), while the paper's offline
// models train on batch corpora truncated to the same number of executed
// jobs. Both are scored with greedy Top-1 on the same held-out scenarios.
#include <cstdio>
#include <memory>

#include "core/bandit.hpp"
#include "core/trainer.hpp"
#include "exp/collector.hpp"
#include "exp/evaluate.hpp"
#include "exp/scenario.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace {

using namespace lts;

// Greedy Top-1/Top-2 of a bandit on fresh scenarios (counterfactual truth).
std::pair<double, double> eval_bandit(const core::BanditScheduler& bandit,
                                      const std::vector<exp::Scenario>& matrix,
                                      int scenarios, std::uint64_t base_seed) {
  int top1 = 0, top2 = 0;
  for (int s = 0; s < scenarios; ++s) {
    const std::uint64_t seed = base_seed + 7919ULL * s;
    Rng pick(seed ^ 0xabc);
    const auto& scenario = exp::sample_scenario(matrix, pick);
    exp::SimEnv probe(seed);
    probe.warmup();
    const auto snapshot = probe.snapshot();
    const std::size_t choice =
        bandit.pick_greedy(snapshot, scenario.config);
    // Second choice: rerun greedy with the best node masked out by ranking
    // all values; cheaper: compute full value ranking here.
    std::vector<double> durations;
    for (std::size_t n = 0; n < probe.node_names().size(); ++n) {
      exp::SimEnv env(probe);
      durations.push_back(
          env.run_job(scenario.config, n, seed ^ 0xF00D).duration());
    }
    const std::size_t fastest = static_cast<std::size_t>(
        std::min_element(durations.begin(), durations.end()) -
        durations.begin());
    if (choice == fastest) {
      ++top1;
      ++top2;
    }
  }
  return {static_cast<double>(top1) / scenarios,
          static_cast<double>(top2) / scenarios};
}

}  // namespace

int main() {
  using namespace lts;
  const auto matrix = exp::paper_scenario_matrix();
  const int kEvalScenarios = 40;
  const std::uint64_t kEvalSeed = 992000;
  const std::vector<int> checkpoints = {60, 120, 240, 480};

  // ---- Online bandit: one environment + one executed job per episode. ----
  core::BanditScheduler bandit(core::BanditOptions{}, 4242);
  AsciiTable table({"executed jobs", "bandit Top-1", "SL linear Top-1",
                    "SL forest Top-1"});
  Rng episode_rng(31337);
  int episodes_done = 0;

  // ---- Offline SL corpora, truncated to matching budgets. ---------------
  exp::CollectorOptions collect;
  collect.repeats = 2;  // 60 x 6 x 2 = 720 >= max checkpoint
  collect.base_seed = 12000;
  std::printf("Collecting the offline corpus once (720 samples)...\n");
  const CsvTable full_log = exp::collect_training_data(matrix, collect);
  const ml::Dataset full_data = core::Trainer::dataset_from_log(full_log);

  for (const int budget : checkpoints) {
    // Advance the bandit to `budget` executed jobs.
    while (episodes_done < budget) {
      const std::uint64_t seed =
          500000ULL + 13ULL * static_cast<std::uint64_t>(episodes_done);
      const auto& scenario = exp::sample_scenario(matrix, episode_rng);
      exp::SimEnv env(seed);
      env.warmup();
      const auto snapshot = env.snapshot();
      const std::size_t node = bandit.pick(snapshot, scenario.config);
      const auto result =
          env.run_job(scenario.config, node, seed ^ 0xBEEF);
      bandit.observe(snapshot, scenario.config, node, result.duration());
      ++episodes_done;
    }

    // SL models on the first `budget` rows of the batch corpus.
    std::vector<std::size_t> head(static_cast<std::size_t>(budget));
    for (std::size_t i = 0; i < head.size(); ++i) head[i] = i;
    const ml::Dataset truncated = full_data.select(head);
    const auto linear = std::shared_ptr<const ml::Regressor>(
        core::Trainer::train("linear", truncated));
    const auto forest = std::shared_ptr<const ml::Regressor>(
        core::Trainer::train("random_forest", truncated));

    const auto [bandit_top1, bandit_top2] =
        eval_bandit(bandit, matrix, kEvalScenarios, kEvalSeed);
    exp::EvalOptions eval;
    eval.num_scenarios = kEvalScenarios;
    eval.base_seed = kEvalSeed;
    eval.truth_repeats = 1;
    std::vector<exp::MethodUnderTest> methods;
    methods.push_back({"linear", linear, core::FeatureSet::kTable1});
    methods.push_back({"forest", forest, core::FeatureSet::kTable1});
    const auto sl = exp::evaluate_methods(methods, matrix, eval);
    const std::vector<double> row{bandit_top1, sl.by_method("linear").top1,
                                  sl.by_method("forest").top1};
    table.add_row_numeric(strformat("%d", budget), row, 3);
    (void)bandit_top2;
    std::printf("  budget %d done (bandit epsilon now %.2f)\n", budget,
                bandit.current_epsilon());
  }
  std::printf("%s", table
                        .render("Sample efficiency: online bandit vs "
                                "offline supervised (greedy Top-1)")
                        .c_str());
  std::printf(
      "\nNote: the bandit explores on the live cluster (its exploration "
      "jobs run\nslower), while the SL corpus is collected by the paper's "
      "batch sweep.\n");
  return 0;
}
