#include "ml/validate.hpp"

#include <cmath>
#include <numeric>

#include "ml/metrics.hpp"
#include "util/stats.hpp"

namespace lts::ml {

std::vector<std::pair<std::vector<std::size_t>, std::vector<std::size_t>>>
kfold_indices(std::size_t n, int k, Rng& rng) {
  LTS_REQUIRE(k >= 2, "kfold: k must be >= 2");
  LTS_REQUIRE(n >= static_cast<std::size_t>(k), "kfold: not enough samples");
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  std::vector<std::pair<std::vector<std::size_t>, std::vector<std::size_t>>>
      folds(static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t fold = i % static_cast<std::size_t>(k);
    folds[fold].second.push_back(order[i]);
  }
  for (int f = 0; f < k; ++f) {
    auto& [train, test] = folds[static_cast<std::size_t>(f)];
    for (int g = 0; g < k; ++g) {
      if (g == f) continue;
      const auto& other = folds[static_cast<std::size_t>(g)].second;
      train.insert(train.end(), other.begin(), other.end());
    }
  }
  return folds;
}

CvResult cross_validate(
    const std::function<std::unique_ptr<Regressor>()>& factory,
    const Dataset& data, int k, std::uint64_t seed) {
  Rng rng(seed);
  const auto folds = kfold_indices(data.size(), k, rng);
  CvResult result;
  for (const auto& [train_idx, test_idx] : folds) {
    const Dataset train = data.select(train_idx);
    const Dataset test = data.select(test_idx);
    auto model = factory();
    model->fit(train);
    const std::vector<double> preds = model->predict(test.x());
    result.fold_rmse.push_back(rmse(test.y(), preds));
    result.fold_r2.push_back(test.size() >= 2 ? r2_score(test.y(), preds)
                                              : 0.0);
  }
  result.mean_rmse = mean(result.fold_rmse);
  result.stddev_rmse = stddev(result.fold_rmse);
  result.mean_r2 = mean(result.fold_r2);
  return result;
}

GridSearchResult grid_search(
    const std::function<std::unique_ptr<Regressor>(const Json&)>& make_model,
    const std::vector<Json>& param_grid, const Dataset& data, int k,
    std::uint64_t seed) {
  LTS_REQUIRE(!param_grid.empty(), "grid_search: empty grid");
  GridSearchResult result;
  result.best_rmse = std::numeric_limits<double>::infinity();
  for (const auto& params : param_grid) {
    const auto cv = cross_validate(
        [&] { return make_model(params); }, data, k, seed);
    result.all.emplace_back(params, cv.mean_rmse);
    if (cv.mean_rmse < result.best_rmse) {
      result.best_rmse = cv.mean_rmse;
      result.best_params = params;
    }
  }
  return result;
}

}  // namespace lts::ml
