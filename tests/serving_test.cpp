// Differential tests for the batched serving path.
//
// The flattened predict_batch kernel, the epoch-keyed snapshot cache, and
// LtsScheduler::schedule_many are all pure optimizations: every test here
// pins them against the scalar reference implementations (predict_row's
// pointer walk, an uncached TSDB sweep, N sequential schedule() calls) and
// demands bit-identical results — EXPECT_EQ on doubles, not EXPECT_NEAR.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "core/features.hpp"
#include "core/fetcher.hpp"
#include "core/scheduler.hpp"
#include "core/trainer.hpp"
#include "exp/envgen.hpp"
#include "ml/flat.hpp"
#include "ml/model.hpp"
#include "ml/tree.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

// ------------------------------------------------ predict_batch kernels ----

namespace lts::ml {
namespace {

/// Synthetic regression corpus (linear + interaction + noise), same shape
/// the ml_test suite trains on.
Dataset make_synthetic(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.set_feature_names({"x0", "x1", "x2", "x3"});
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-1, 1);
    const double x1 = rng.uniform(-1, 1);
    const double x2 = rng.uniform(0, 2);
    const double x3 = rng.uniform(-1, 1);
    // Positive offset keeps the target log-transformable (duration-like).
    const double y = 10.0 + 3.0 * x0 - 2.0 * x1 + 0.5 * x2 + 2.0 * x0 * x1 +
                     0.05 * rng.normal();
    data.add_row(std::vector<double>{x0, x1, x2, x3}, y);
  }
  return data;
}

/// Row-major query block: half the rows are copied verbatim from the
/// training corpus (stressing the x <= threshold boundary, where any
/// comparison sloppiness in the flat kernel would flip a branch), half are
/// fresh uniform draws slightly outside the training range.
std::vector<double> make_query_block(const Dataset& data, std::size_t rows,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> block;
  const std::size_t cols = data.num_features();
  block.reserve(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    if (r % 2 == 0) {
      const auto row = data.row(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(data.size()) - 1)));
      block.insert(block.end(), row.begin(), row.end());
    } else {
      for (std::size_t c = 0; c < cols; ++c) {
        block.push_back(rng.uniform(-1.5, 2.5));
      }
    }
  }
  return block;
}

/// The differential itself: predict_batch over the block must equal
/// predict_row on every row, to the last bit.
void expect_batch_matches_rows(const Regressor& model,
                               const std::vector<double>& block,
                               std::size_t rows, std::size_t cols,
                               const std::string& context) {
  std::vector<double> batched(rows, -1.0);
  model.predict_batch(block, rows, cols, batched);
  const std::span<const double> x(block);
  for (std::size_t r = 0; r < rows; ++r) {
    const double scalar = model.predict_row(x.subspan(r * cols, cols));
    EXPECT_EQ(batched[r], scalar) << context << " row " << r;
  }
}

TEST(PredictBatch, MatchesPredictRowForEveryFamily) {
  // Block sizes straddle the kernel's lane budget (FlatEnsemble::kLanes,
  // 128): a lone row, a decision-sized block, the last multi-tree group
  // size, exact, one-over, and two-blocks-plus-change.
  const std::size_t sizes[] = {1, 6, 7, 64, 65, 128, 129, 130};
  for (const auto& family : registered_regressors()) {
    for (const bool log_target : {false, true}) {
      Json params = Json::object();
      params["log_target"] = log_target;
      const auto model = create_regressor(family, params);
      const auto data = make_synthetic(400, 97 + (log_target ? 1 : 0));
      model->fit(data);
      for (const std::size_t rows : sizes) {
        const auto block = make_query_block(data, rows, 1234 + rows);
        expect_batch_matches_rows(
            *model, block, rows, data.num_features(),
            family + (log_target ? "+log" : "") + " fit");
      }
    }
  }
}

TEST(PredictBatch, MatchesPredictRowAcrossRandomizedEnsembles) {
  // Many small randomized forests/GBTs: different shapes, depths, and
  // split layouts all flatten to the same predictions.
  Rng meta(5150);
  for (int trial = 0; trial < 8; ++trial) {
    const std::uint64_t seed = 7000 + static_cast<std::uint64_t>(trial);
    const auto data = make_synthetic(
        120 + 60 * static_cast<std::size_t>(trial % 3), seed);
    for (const auto& family : {"decision_tree", "random_forest", "xgboost"}) {
      const auto model = create_regressor(family);
      model->fit(data);
      const std::size_t rows =
          static_cast<std::size_t>(meta.uniform_int(1, 150));
      const auto block = make_query_block(data, rows, seed * 31);
      expect_batch_matches_rows(*model, block, rows, data.num_features(),
                                std::string(family) + " trial " +
                                    std::to_string(trial));
    }
  }
}

TEST(PredictBatch, MatchesPredictRowAfterRefit) {
  // refit() rebuilds the flat arrays in place (forest: tree replacement;
  // GBT: continued boosting); the differential must survive the swap.
  for (const auto& family : {"random_forest", "xgboost"}) {
    const auto model = create_regressor(family);
    const auto first = make_synthetic(300, 41);
    model->fit(first);
    const auto window = make_synthetic(300, 42);
    model->refit(window);
    const auto block = make_query_block(window, 130, 43);
    expect_batch_matches_rows(*model, block, 130, window.num_features(),
                              std::string(family) + " post-refit");
  }
}

TEST(PredictBatch, MatchesPredictRowAfterEnvelopeRoundTrip) {
  // A model revived from its serialized envelope must rebuild its flat
  // arrays on from_json and agree with both its own predict_row and the
  // original model's batch output.
  for (const auto& family : {"decision_tree", "random_forest", "xgboost"}) {
    const auto data = make_synthetic(300, 55);
    const auto model = create_regressor(family);
    model->fit(data);
    const auto revived = model_from_json(model_to_json(*model));
    const std::size_t rows = 96;
    const auto block = make_query_block(data, rows, 56);
    expect_batch_matches_rows(*revived, block, rows, data.num_features(),
                              std::string(family) + " round-trip");
    std::vector<double> original(rows), restored(rows);
    model->predict_batch(block, rows, data.num_features(), original);
    revived->predict_batch(block, rows, data.num_features(), restored);
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(original[r], restored[r]) << family << " row " << r;
    }
  }
}

TEST(PredictBatch, MatrixPredictAgreesWithBatch) {
  // predict(Matrix) routes through predict_batch; pin the equivalence so
  // existing callers inherited the kernel without a behavior change.
  const auto data = make_synthetic(250, 77);
  const auto model = create_regressor("random_forest");
  model->fit(data);
  const auto via_matrix = model->predict(data.x());
  std::vector<double> via_batch(data.size());
  model->predict_batch(data.x().data(), data.size(), data.num_features(),
                       via_batch);
  ASSERT_EQ(via_matrix.size(), via_batch.size());
  for (std::size_t r = 0; r < via_batch.size(); ++r) {
    EXPECT_EQ(via_matrix[r], via_batch[r]);
  }
}

// ------------------------------------------ multi-tree lane groups ----

/// A random tree in preorder (children after their parent, node 0 the
/// root) — the layout try_add_tree requires. Leaf values span sixteen
/// decades so any change in the per-row summation order changes bits.
void grow_random_tree(std::vector<TreeNode>& nodes, Rng& rng,
                      std::size_t cols, int depth_left) {
  const std::size_t at = nodes.size();
  nodes.emplace_back();
  if (depth_left == 0 || (at != 0 && rng.uniform(0.0, 1.0) < 0.3)) {
    nodes[at].value =
        rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform_int(-8, 8));
    return;
  }
  nodes[at].feature = static_cast<int>(
      rng.uniform_int(0, static_cast<std::int64_t>(cols) - 1));
  nodes[at].threshold = rng.uniform(-1.0, 1.0);
  nodes[at].left = static_cast<int>(nodes.size());
  grow_random_tree(nodes, rng, cols, depth_left - 1);
  nodes[at].right = static_cast<int>(nodes.size());
  grow_random_tree(nodes, rng, cols, depth_left - 1);
}

/// The scalar pointer walk the kernel must reproduce: one tree at a time,
/// `x <= threshold` goes left (so NaN goes right).
double walk_tree(const std::vector<TreeNode>& tree, const double* row) {
  std::size_t i = 0;
  while (!tree[i].is_leaf()) {
    const TreeNode& n = tree[i];
    i = static_cast<std::size_t>(
        row[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                                 : n.right);
  }
  return tree[i].value;
}

/// Query block in [-1.2, 1.2) with every fifth feature NaN.
std::vector<double> random_block(std::size_t rows, std::size_t cols,
                                 Rng& rng) {
  std::vector<double> block(rows * cols);
  for (std::size_t k = 0; k < block.size(); ++k) {
    block[k] = k % 5 == 3 ? std::numeric_limits<double>::quiet_NaN()
                          : rng.uniform(-1.2, 1.2);
  }
  return block;
}

/// predict() against (init + t0 + t1 + ...) / divisor and accumulate()
/// against the GBT's round-by-round `inout[r] += tree_t(x_r)`, both
/// summed tree by tree in tree order, EXPECT_EQ on every row.
void expect_kernel_matches_scalar(std::size_t n_trees, std::size_t rows,
                                  std::uint64_t seed) {
  constexpr std::size_t kCols = 5;
  Rng rng(seed);
  std::vector<std::vector<TreeNode>> trees(n_trees);
  FlatEnsemble flat;
  for (auto& tree : trees) {
    grow_random_tree(tree, rng, kCols, static_cast<int>(rng.uniform_int(0, 9)));
    ASSERT_TRUE(flat.try_add_tree(std::span<const TreeNode>(tree)));
  }
  const double init = rng.uniform(-3.0, 3.0);
  const double divisor = static_cast<double>(n_trees);
  const auto block = random_block(rows, kCols, rng);
  std::vector<double> start(rows);
  for (auto& v : start) v = rng.uniform(-5.0, 5.0);

  std::vector<double> accumulated = start;
  flat.accumulate(block.data(), rows, kCols, accumulated.data());
  flat.set_init(init);
  flat.set_divisor(divisor);
  std::vector<double> predicted(rows);
  flat.predict(block.data(), rows, kCols, predicted.data());

  const std::string context = std::to_string(n_trees) + " trees, " +
                              std::to_string(rows) + " rows, row ";
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = block.data() + r * kCols;
    double sum = init;
    double inout = start[r];
    for (const auto& tree : trees) {
      sum += walk_tree(tree, row);
      inout += walk_tree(tree, row);
    }
    EXPECT_EQ(predicted[r], sum / divisor) << context << r;
    EXPECT_EQ(accumulated[r], inout) << context << r;
  }
}

TEST(FlatKernel, MatchesScalarWalkAtLaneGroupBoundaries) {
  // Rows 1-8 walk kLanes / rows trees per group; tree counts below, at and
  // around one and two groups leave partial last groups of every size.
  for (std::size_t rows = 1; rows <= 8; ++rows) {
    const std::size_t group = FlatEnsemble::kLanes / rows;
    for (const std::size_t n_trees :
         {std::size_t{1}, group - 1, group, group + 1, 2 * group + 3}) {
      expect_kernel_matches_scalar(n_trees, rows, 900 + rows * 31 + n_trees);
    }
  }
  // Row counts where kLanes / rows changes (two trees per group up to 64
  // rows, one from 65 on) and where a second block starts (129).
  for (const std::size_t rows : {9, 21, 42, 43, 63, 64, 65, 127, 128, 129,
                                 200}) {
    for (const std::size_t n_trees : {1, 5, 7}) {
      expect_kernel_matches_scalar(n_trees, rows, 7000 + rows * 13 + n_trees);
    }
  }
}

TEST(FlatKernel, SingleLeafTreesNeedNoFeatureLoads) {
  // Depth-0 trees never read a feature, so a zero-column block is legal.
  FlatEnsemble flat;
  std::vector<TreeNode> leaf(1);
  for (int t = 0; t < 50; ++t) {
    leaf[0].value = 0.1 * t;
    ASSERT_TRUE(flat.try_add_tree(std::span<const TreeNode>(leaf)));
  }
  std::vector<double> out(6, 0.0);
  flat.accumulate(nullptr, 6, 0, out.data());
  double expected = 0.0;
  for (int t = 0; t < 50; ++t) expected += 0.1 * t;
  for (const double v : out) EXPECT_EQ(v, expected);
}

TEST(FlatKernel, DefaultDeepForestMatchesPredictRow) {
  // The forest the stream runners serve: Trainer::default_params' 800
  // unpruned trees (depth cap 40), scored at decision-sized and
  // boundary-sized blocks, some features NaN.
  const auto model = create_regressor(
      "random_forest", core::Trainer::default_params("random_forest"));
  const auto data = make_synthetic(300, 4242);
  model->fit(data);
  for (const std::size_t rows : {1, 2, 3, 4, 5, 6, 7, 8, 21, 64, 65, 128,
                                 129}) {
    auto block = make_query_block(data, rows, 4244 + rows);
    for (std::size_t k = 7; k < block.size(); k += 11) {
      block[k] = std::numeric_limits<double>::quiet_NaN();
    }
    expect_batch_matches_rows(*model, block, rows, data.num_features(),
                              "default forest, " + std::to_string(rows) +
                                  " rows");
  }
}

}  // namespace
}  // namespace lts::ml

// --------------------------------- schedule_many and the snapshot cache ----

namespace lts::core {
namespace {

/// Model trained so predicted duration tracks cpu_load: rankings are
/// non-trivial (not constant) and deterministic.
std::shared_ptr<const ml::Regressor> load_tracking_model(std::uint64_t seed) {
  Rng rng(seed);
  ml::Dataset data;
  data.set_feature_names(FeatureConstructor::feature_names());
  telemetry::NodeTelemetry t;
  t.node = "x";
  t.rtt_mean = 0.03;
  t.tx_rate = 50e6;
  t.rx_rate = 20e6;
  t.mem_available = 6.0 * 1024 * 1024 * 1024;
  spark::JobConfig config;
  for (int i = 0; i < 400; ++i) {
    t.cpu_load = rng.uniform(0.0, 6.0);
    t.tx_rate = rng.uniform(1e6, 200e6);
    config.app = spark::kAllAppTypes[static_cast<std::size_t>(i) %
                                     spark::kNumAppTypes];
    config.input_records = 100000 * (1 + i % 8);
    const auto x = FeatureConstructor::build(t, config);
    data.add_row(x, 2.0 + t.cpu_load + t.tx_rate / 100e6 +
                        config.input_records / 4e5);
  }
  auto model = ml::create_regressor("random_forest");
  model->fit(data);
  return std::shared_ptr<const ml::Regressor>(std::move(model));
}

std::vector<spark::JobConfig> make_queue(std::size_t n) {
  std::vector<spark::JobConfig> configs;
  for (std::size_t q = 0; q < n; ++q) {
    spark::JobConfig config;
    config.app = spark::kAllAppTypes[q % spark::kNumAppTypes];
    config.input_records = 200000 * (1 + static_cast<long long>(q % 5));
    config.executors = 2 + static_cast<int>(q % 3);
    config.validate();
    configs.push_back(config);
  }
  return configs;
}

void expect_decisions_equal(const Decision& a, const Decision& b,
                            const std::string& context) {
  EXPECT_EQ(a.used_fallback, b.used_fallback) << context;
  EXPECT_EQ(a.stale_demoted, b.stale_demoted) << context;
  ASSERT_EQ(a.ranking.size(), b.ranking.size()) << context;
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].node, b.ranking[i].node) << context << " #" << i;
    EXPECT_EQ(a.ranking[i].predicted_duration,
              b.ranking[i].predicted_duration)
        << context << " #" << i;
  }
}

TEST(ScheduleMany, EqualsSequentialScheduleCalls) {
  exp::SimEnv env(23);
  env.warmup();
  const SimTime now = env.engine().now();
  LtsScheduler scheduler(
      TelemetryFetcher(env.tsdb(), env.node_names()),
      load_tracking_model(6), FeatureSet::kTable1);
  const auto configs = make_queue(8);

  std::vector<Decision> sequential;
  for (const auto& config : configs) {
    sequential.push_back(scheduler.schedule(config, now));
  }
  const auto batched = scheduler.schedule_many(configs, now);
  ASSERT_EQ(batched.size(), sequential.size());
  for (std::size_t q = 0; q < configs.size(); ++q) {
    expect_decisions_equal(batched[q], sequential[q],
                           "queue slot " + std::to_string(q));
  }
}

TEST(ScheduleMany, ReplicaQueueEqualsSequentialScheduleCalls) {
  // Queues full of identical pods (deployment replicas) drive the batch
  // path's exact-row dedup: each distinct (pod, node) feature row is
  // scored once and fanned out. The fan-out must be invisible — every
  // replica's decision identical to its own sequential schedule() call.
  exp::SimEnv env(29);
  env.warmup();
  const SimTime now = env.engine().now();
  LtsScheduler scheduler(
      TelemetryFetcher(env.tsdb(), env.node_names()),
      load_tracking_model(6), FeatureSet::kTable1);
  const auto templates = make_queue(3);
  std::vector<spark::JobConfig> configs;
  for (std::size_t q = 0; q < 12; ++q) {
    configs.push_back(templates[q % templates.size()]);  // interleaved
  }

  std::vector<Decision> sequential;
  for (const auto& config : configs) {
    sequential.push_back(scheduler.schedule(config, now));
  }
  const auto batched = scheduler.schedule_many(configs, now);
  ASSERT_EQ(batched.size(), sequential.size());
  for (std::size_t q = 0; q < configs.size(); ++q) {
    expect_decisions_equal(batched[q], sequential[q],
                           "replica queue slot " + std::to_string(q));
  }
}

TEST(ScheduleMany, EmitsSameTraceSpansAsSequentialCalls) {
  exp::SimEnv env(24);
  env.warmup();
  const SimTime now = env.engine().now();
  LtsScheduler scheduler(
      TelemetryFetcher(env.tsdb(), env.node_names()),
      load_tracking_model(6), FeatureSet::kTable1);
  const auto configs = make_queue(5);

  auto& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  for (const auto& config : configs) scheduler.schedule(config, now);
  std::vector<obs::SpanRecord> sequential;
  for (std::size_t i = 0; i < tracer.num_spans(); ++i) {
    sequential.push_back(tracer.span(i));
  }
  tracer.clear();
  scheduler.schedule_many(configs, now);
  ASSERT_EQ(tracer.num_spans(), sequential.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    const auto& batch_span = tracer.span(i);
    const auto& seq_span = sequential[i];
    EXPECT_EQ(batch_span.name, seq_span.name) << i;
    EXPECT_EQ(batch_span.sim_begin, seq_span.sim_begin) << i;
    EXPECT_EQ(batch_span.sim_end, seq_span.sim_end) << i;
    ASSERT_EQ(batch_span.phases.size(), seq_span.phases.size()) << i;
    for (std::size_t p = 0; p < seq_span.phases.size(); ++p) {
      EXPECT_EQ(batch_span.phases[p].name, seq_span.phases[p].name)
          << i << "/" << p;
      EXPECT_EQ(batch_span.phases[p].sim_time, seq_span.phases[p].sim_time)
          << i << "/" << p;
    }
  }
  tracer.set_enabled(false);
  tracer.clear();
}

TEST(ScheduleMany, CountsSameMetricsAsSequentialCalls) {
  exp::SimEnv env(25);
  env.warmup();
  const SimTime now = env.engine().now();
  LtsScheduler scheduler(
      TelemetryFetcher(env.tsdb(), env.node_names()),
      load_tracking_model(6), FeatureSet::kTable1);
  const auto configs = make_queue(6);
  auto& registry = obs::MetricsRegistry::global();
  auto& decisions = obs::counter("lts_scheduler_decisions_total");
  registry.set_enabled(true);
  const double before_seq = decisions.value();
  for (const auto& config : configs) scheduler.schedule(config, now);
  const double seq_delta = decisions.value() - before_seq;
  const double before_batch = decisions.value();
  scheduler.schedule_many(configs, now);
  const double batch_delta = decisions.value() - before_batch;
  registry.set_enabled(false);
  EXPECT_EQ(seq_delta, static_cast<double>(configs.size()));
  EXPECT_EQ(batch_delta, seq_delta);
}

TEST(ScheduleMany, FallbackQueueEqualsSequentialFallbacks) {
  // No model at all: with fallback enabled every decision is the spreading
  // heuristic, in batch exactly as in sequence.
  exp::SimEnv env(26);
  env.warmup();
  const SimTime now = env.engine().now();
  FallbackOptions fallback;
  fallback.enabled = true;
  LtsScheduler scheduler(TelemetryFetcher(env.tsdb(), env.node_names()),
                         nullptr, FeatureSet::kTable1, 0.0, fallback);
  const auto configs = make_queue(4);
  std::vector<Decision> sequential;
  for (const auto& config : configs) {
    sequential.push_back(scheduler.schedule(config, now));
  }
  const auto batched = scheduler.schedule_many(configs, now);
  ASSERT_EQ(batched.size(), sequential.size());
  for (std::size_t q = 0; q < configs.size(); ++q) {
    EXPECT_TRUE(batched[q].used_fallback);
    expect_decisions_equal(batched[q], sequential[q],
                           "fallback slot " + std::to_string(q));
  }
}

TEST(ScheduleMany, RiskAversionPathEqualsSequential) {
  // risk_aversion > 0 takes the per-row uncertainty path inside
  // schedule_batch; it must still match sequential calls exactly.
  exp::SimEnv env(27);
  env.warmup();
  const SimTime now = env.engine().now();
  LtsScheduler scheduler(
      TelemetryFetcher(env.tsdb(), env.node_names()),
      load_tracking_model(6), FeatureSet::kTable1, /*risk_aversion=*/0.7);
  const auto configs = make_queue(4);
  std::vector<Decision> sequential;
  for (const auto& config : configs) {
    sequential.push_back(scheduler.schedule(config, now));
  }
  const auto batched = scheduler.schedule_many(configs, now);
  for (std::size_t q = 0; q < configs.size(); ++q) {
    expect_decisions_equal(batched[q], sequential[q],
                           "risk slot " + std::to_string(q));
  }
}

// ------------------------------------------------ snapshot cache keying ----

TEST(SnapshotCache, SameEpochSameTimeServesSharedSnapshot) {
  exp::SimEnv env(31);
  env.warmup();
  const SimTime now = env.engine().now();
  TelemetryFetcher fetcher(env.tsdb(), env.node_names());
  auto& registry = obs::MetricsRegistry::global();
  auto& hits = obs::counter("lts_snapshot_cache_hits_total");
  auto& misses = obs::counter("lts_snapshot_cache_misses_total");
  registry.set_enabled(true);
  const double hits0 = hits.value();
  const double misses0 = misses.value();
  const auto first = fetcher.fetch_shared(now);
  const auto second = fetcher.fetch_shared(now);
  registry.set_enabled(false);
  // Pointer equality is the proof that the TSDB was swept exactly once.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(misses.value() - misses0, 1.0);
  EXPECT_EQ(hits.value() - hits0, 1.0);
}

TEST(SnapshotCache, CopiesOfTheFetcherShareOneCache) {
  // LtsScheduler holds its fetcher by value; the copy must hit the cache
  // its source populated (and vice versa).
  exp::SimEnv env(32);
  env.warmup();
  const SimTime now = env.engine().now();
  TelemetryFetcher fetcher(env.tsdb(), env.node_names());
  const TelemetryFetcher copy = fetcher;
  const auto a = fetcher.fetch_shared(now);
  const auto b = copy.fetch_shared(now);
  EXPECT_EQ(a.get(), b.get());
}

TEST(SnapshotCache, EpochAdvanceOnScrapeInvalidates) {
  exp::SimEnv env(33);
  env.warmup();
  const SimTime now = env.engine().now();
  TelemetryFetcher fetcher(env.tsdb(), env.node_names());
  const auto before = fetcher.fetch_shared(now);
  const std::uint64_t epoch_before = env.tsdb().epoch();
  // Exporters scrape every ~2 simulated seconds; running the engine
  // forward lands new samples and must advance the epoch.
  env.engine().run_until(now + 10.0);
  ASSERT_GT(env.tsdb().epoch(), epoch_before);
  const auto after = fetcher.fetch_shared(now);
  EXPECT_NE(before.get(), after.get());
}

TEST(SnapshotCache, DifferentFetchTimeMisses) {
  exp::SimEnv env(34);
  env.warmup();
  const SimTime now = env.engine().now();
  TelemetryFetcher fetcher(env.tsdb(), env.node_names());
  const auto at_now = fetcher.fetch_shared(now);
  const auto later = fetcher.fetch_shared(now + 1.0);
  EXPECT_NE(at_now.get(), later.get());
}

TEST(SnapshotCache, NodeRecoveryInvalidates) {
  // recover_node resets host counters without appending a sample; the
  // explicit epoch bump must still force a rebuild.
  exp::SimEnv env(35);
  env.warmup();
  const SimTime now = env.engine().now();
  TelemetryFetcher fetcher(env.tsdb(), env.node_names());
  const auto before = fetcher.fetch_shared(now);
  const std::uint64_t epoch_before = env.tsdb().epoch();
  env.fault_injector().crash_node(env.node_names()[0]);
  env.fault_injector().recover_node(env.node_names()[0]);
  EXPECT_GT(env.tsdb().epoch(), epoch_before);
  const auto after = fetcher.fetch_shared(now);
  EXPECT_NE(before.get(), after.get());
}

TEST(SnapshotCache, ExporterSilenceInvalidates) {
  exp::SimEnv env(36);
  env.warmup();
  const SimTime now = env.engine().now();
  TelemetryFetcher fetcher(env.tsdb(), env.node_names());
  const auto before = fetcher.fetch_shared(now);
  env.fault_injector().silence_exporter(env.node_names()[1]);
  const auto silenced = fetcher.fetch_shared(now);
  EXPECT_NE(before.get(), silenced.get());
  env.fault_injector().unsilence_exporter(env.node_names()[1]);
  const auto restored = fetcher.fetch_shared(now);
  EXPECT_NE(silenced.get(), restored.get());
}

TEST(SnapshotCache, DisabledCacheSweepsEveryFetch) {
  exp::SimEnv env(37);
  env.warmup();
  const SimTime now = env.engine().now();
  TelemetryFetcher fetcher(env.tsdb(), env.node_names());
  fetcher.set_cache_enabled(false);
  auto& registry = obs::MetricsRegistry::global();
  auto& misses = obs::counter("lts_snapshot_cache_misses_total");
  registry.set_enabled(true);
  const double misses0 = misses.value();
  const auto a = fetcher.fetch_shared(now);
  const auto b = fetcher.fetch_shared(now);
  registry.set_enabled(false);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(misses.value() - misses0, 2.0);
}

TEST(SnapshotCache, CachedSnapshotDemotesStaleNodesLikeFreshFetch) {
  // Regression for the staleness/caching agreement: the degradation
  // pipeline is a function of `now`, so a snapshot cached at (epoch, now)
  // must carry the same staleness annotations a fresh sweep at that `now`
  // would produce — and a scheduler reusing the cached snapshot under
  // demote_stale must make the identical decision.
  exp::SimEnv env(38);
  env.warmup();
  const std::string victim = env.node_names()[2];
  env.fault_injector().silence_exporter(victim);
  const SimTime start = env.engine().now();
  env.engine().run_until(start + 30.0);  // > max_staleness of 10s
  const SimTime now = env.engine().now();

  DegradationOptions degradation;
  degradation.enabled = true;
  TelemetryFetcher cached(env.tsdb(), env.node_names(), {}, degradation);
  TelemetryFetcher uncached(env.tsdb(), env.node_names(), {}, degradation);
  uncached.set_cache_enabled(false);

  const auto warm = cached.fetch_shared(now);
  const auto reused = cached.fetch_shared(now);
  ASSERT_EQ(warm.get(), reused.get());
  const auto fresh = uncached.fetch_shared(now);
  ASSERT_EQ(reused->nodes.size(), fresh->nodes.size());
  bool saw_stale = false;
  for (std::size_t i = 0; i < fresh->nodes.size(); ++i) {
    EXPECT_EQ(reused->nodes[i].stale, fresh->nodes[i].stale) << i;
    EXPECT_EQ(reused->nodes[i].cpu_load, fresh->nodes[i].cpu_load) << i;
    EXPECT_EQ(reused->nodes[i].tx_rate, fresh->nodes[i].tx_rate) << i;
    saw_stale = saw_stale || fresh->nodes[i].stale;
  }
  ASSERT_TRUE(saw_stale) << "silenced exporter never went stale";

  FallbackOptions fallback;
  fallback.enabled = true;  // demote_stale defaults on
  const auto model = load_tracking_model(6);
  LtsScheduler via_cache(cached, model, FeatureSet::kTable1, 0.0, fallback);
  LtsScheduler via_sweep(uncached, model, FeatureSet::kTable1, 0.0,
                         fallback);
  const auto configs = make_queue(3);
  // Two passes through the cached scheduler: the second reuses the warm
  // snapshot end to end. Both must equal the cache-bypassing scheduler.
  const auto first_pass = via_cache.schedule_many(configs, now);
  const auto second_pass = via_cache.schedule_many(configs, now);
  const auto swept = via_sweep.schedule_many(configs, now);
  for (std::size_t q = 0; q < configs.size(); ++q) {
    expect_decisions_equal(second_pass[q], first_pass[q],
                           "cached re-read " + std::to_string(q));
    expect_decisions_equal(second_pass[q], swept[q],
                           "cache vs sweep " + std::to_string(q));
    EXPECT_GT(second_pass[q].stale_demoted, 0) << q;
  }
}

}  // namespace
}  // namespace lts::core
