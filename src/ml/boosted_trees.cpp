#include "ml/boosted_trees.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace hetopt::ml {

BoostedTreesRegressor::BoostedTreesRegressor(BoostedTreesParams params)
    : params_(params) {
  if (params_.rounds < 1) throw std::invalid_argument("BoostedTrees: rounds < 1");
  if (params_.learning_rate <= 0.0 || params_.learning_rate > 1.0) {
    throw std::invalid_argument("BoostedTrees: learning_rate out of (0,1]");
  }
  if (params_.subsample <= 0.0 || params_.subsample > 1.0) {
    throw std::invalid_argument("BoostedTrees: subsample out of (0,1]");
  }
}

void BoostedTreesRegressor::fit(const Dataset& data) {
  if (data.empty()) throw std::invalid_argument("BoostedTrees::fit: empty dataset");
  trees_.clear();

  // F_0: global mean.
  base_prediction_ =
      std::accumulate(data.targets().begin(), data.targets().end(), 0.0) /
      static_cast<double>(data.size());

  std::vector<double> current(data.size(), base_prediction_);
  std::vector<double> residuals(data.size(), 0.0);
  util::Xoshiro256 rng(params_.seed);

  // Every round's tree splits against the same ranks, so rank once per fit.
  const FeatureRanks ranks(data);
  std::vector<std::size_t> all(data.size());
  std::iota(all.begin(), all.end(), 0);

  const auto sample_count = static_cast<std::size_t>(
      params_.subsample * static_cast<double>(data.size()));
  const bool subsampling = sample_count < data.size() && sample_count >= 2;
  const std::size_t fit_count = subsampling ? sample_count : data.size();

  for (int round = 0; round < params_.rounds; ++round) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      residuals[i] = data.target(i) - current[i];
    }

    // A subsampling round reshuffles the row order and fits its first
    // sample_count rows (stochastic gradient boosting).
    if (subsampling) util::shuffle(all, rng);
    RegressionTree tree(params_.tree);
    tree.fit_rows(ranks, residuals,
                  std::vector<std::size_t>(
                      all.begin(), all.begin() + static_cast<std::ptrdiff_t>(fit_count)));

    for (std::size_t i = 0; i < data.size(); ++i) {
      current[i] += params_.learning_rate * tree.predict(data.row(i));
    }
    trees_.push_back(std::move(tree));
  }
  fitted_ = true;
}

std::vector<double> BoostedTreesRegressor::feature_importance(
    std::size_t feature_count) const {
  std::vector<std::size_t> counts(feature_count, 0);
  for (const RegressionTree& tree : trees_) {
    tree.accumulate_split_counts(counts);
  }
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  std::vector<double> importance(feature_count, 0.0);
  if (total == 0) return importance;
  for (std::size_t j = 0; j < feature_count; ++j) {
    importance[j] = static_cast<double>(counts[j]) / static_cast<double>(total);
  }
  return importance;
}

BoostedTreesRegressor BoostedTreesRegressor::from_parts(BoostedTreesParams params,
                                                        double base_prediction,
                                                        std::vector<RegressionTree> trees) {
  BoostedTreesRegressor model(params);
  model.base_prediction_ = base_prediction;
  model.trees_ = std::move(trees);
  model.fitted_ = true;
  return model;
}

double BoostedTreesRegressor::predict(std::span<const double> features) const {
  return predict_staged(features, static_cast<int>(trees_.size()));
}

double BoostedTreesRegressor::predict_staged(std::span<const double> features,
                                             int rounds) const {
  if (!fitted_) throw std::logic_error("BoostedTrees: predict before fit");
  if (rounds < 0 || rounds > static_cast<int>(trees_.size())) {
    throw std::invalid_argument("BoostedTrees: staged rounds out of range");
  }
  double acc = base_prediction_;
  for (int r = 0; r < rounds; ++r) {
    acc += params_.learning_rate * trees_[static_cast<std::size_t>(r)].predict(features);
  }
  return acc;
}

void BoostedTreesRegressor::predict_rows(std::span<const double> rows,
                                         std::span<double> out) const {
  if (!fitted_) throw std::logic_error("BoostedTrees: predict before fit");
  const std::size_t width = out.empty() ? 0 : rows.size() / out.size();
  if (rows.size() != width * out.size()) {
    throw std::invalid_argument("BoostedTrees: rows do not split into out.size() rows");
  }
  // Each row sums base + lr * tree(row) in tree order, as predict_staged does.
  std::fill(out.begin(), out.end(), base_prediction_);
  for (const RegressionTree& tree : trees_) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] += params_.learning_rate * tree.predict(rows.subspan(i * width, width));
    }
  }
}

}  // namespace hetopt::ml
