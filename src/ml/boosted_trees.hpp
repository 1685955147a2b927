// Boosted Decision Tree Regression — the paper's chosen evaluator.
// Least-squares gradient boosting (Friedman 2001): each round fits a small
// CART tree to the current residuals and adds it with shrinkage; optional
// row subsampling gives stochastic gradient boosting.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/regression_tree.hpp"
#include "ml/regressor.hpp"

namespace hetopt::ml {

struct BoostedTreesParams {
  int rounds = 200;
  double learning_rate = 0.1;
  TreeParams tree{/*max_depth=*/5, /*min_samples_leaf=*/3, /*min_samples_split=*/6};
  /// Fraction of rows sampled (without replacement) per round; 1.0 = all.
  double subsample = 1.0;
  std::uint64_t seed = 0xB005ULL;
};

class BoostedTreesRegressor final : public Regressor {
 public:
  explicit BoostedTreesRegressor(BoostedTreesParams params = {});

  void fit(const Dataset& data) override;
  [[nodiscard]] bool fitted() const noexcept override { return fitted_; }
  [[nodiscard]] double predict(std::span<const double> features) const override;
  [[nodiscard]] std::string name() const override { return "BoostedDecisionTreeRegression"; }

  /// Prediction using only the first `rounds` trees (staged prediction, used
  /// to property-test that training error is non-increasing in rounds).
  [[nodiscard]] double predict_staged(std::span<const double> features, int rounds) const;

  /// predict() over rows stored back to back in `rows`, one per element of
  /// `out`: out[i] equals predict() of row i bit for bit. The ensemble is
  /// walked tree by tree, so each tree's nodes stay in cache while every row
  /// descends it. Allocates nothing.
  void predict_rows(std::span<const double> rows, std::span<double> out) const;

  [[nodiscard]] int trained_rounds() const noexcept { return static_cast<int>(trees_.size()); }

  /// Split-frequency feature importance over the whole ensemble, normalized
  /// to sum to 1 (all-zero if the ensemble never split).
  [[nodiscard]] std::vector<double> feature_importance(std::size_t feature_count) const;

 private:
  BoostedTreesParams params_;
  double base_prediction_ = 0.0;
  std::vector<RegressionTree> trees_;
  bool fitted_ = false;
};

}  // namespace hetopt::ml
