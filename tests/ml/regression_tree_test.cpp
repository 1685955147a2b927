#include "ml/regression_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/training.hpp"
#include "dna/catalog.hpp"
#include "ml/boosted_trees.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"

namespace hetopt::ml {
namespace {

using Node = RegressionTree::ExportedNode;

// The per-node-sort split search that histograms replaced, kept as the
// reference they must reproduce: every node sorts its rows by each feature
// in turn and prices each boundary between distinct values with prefix sums.
std::int32_t sort_build(const Dataset& data, std::span<const double> y, const TreeParams& p,
                        std::vector<std::size_t> rows, int depth, std::vector<Node>& out) {
  const std::size_t n = rows.size();
  double sum = 0.0;
  for (std::size_t r : rows) sum += y[r];
  const double mean = sum / static_cast<double>(n);
  const auto id = static_cast<std::int32_t>(out.size());
  out.push_back(Node{-1, 0.0, -1, -1, mean});
  if (depth >= p.max_depth || n < p.min_samples_split || n < 2 * p.min_samples_leaf) return id;
  double sse = 0.0;
  for (std::size_t r : rows) sse += (y[r] - mean) * (y[r] - mean);
  if (sse <= 1e-24) return id;
  double best = 0.0;
  std::int32_t feature = -1;
  double threshold = 0.0;
  std::vector<std::size_t> sorted = rows;
  for (std::size_t f = 0; f < data.feature_count(); ++f) {
    const auto x = [&](std::size_t row) { return data.row(row)[f]; };
    std::sort(sorted.begin(), sorted.end(),
              [&](std::size_t a, std::size_t b) { return x(a) < x(b); });
    double total_sq = 0.0;
    for (std::size_t r : sorted) total_sq += y[r] * y[r];
    double ls = 0.0;
    double lq = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      ls += y[sorted[i]];
      lq += y[sorted[i]] * y[sorted[i]];
      const auto ln = static_cast<double>(i + 1);
      const auto rn = static_cast<double>(n - i - 1);
      if (x(sorted[i]) == x(sorted[i + 1]) || i + 1 < p.min_samples_leaf ||
          n - i - 1 < p.min_samples_leaf) {
        continue;
      }
      const double gain =
          sse - ((lq - ls * ls / ln) + ((total_sq - lq) - (sum - ls) * (sum - ls) / rn));
      if (gain > best + 1e-15) {
        best = gain;
        feature = static_cast<std::int32_t>(f);
        threshold = 0.5 * (x(sorted[i]) + x(sorted[i + 1]));
      }
    }
  }
  if (feature < 0) return id;
  std::vector<std::size_t> left;
  std::vector<std::size_t> right;
  for (std::size_t r : rows) {
    (data.row(r)[static_cast<std::size_t>(feature)] < threshold ? left : right).push_back(r);
  }
  if (left.empty() || right.empty()) return id;
  out[id].feature = feature;
  out[id].threshold = threshold;
  const std::int32_t left_id = sort_build(data, y, p, std::move(left), depth + 1, out);
  out[id].left = left_id;
  const std::int32_t right_id = sort_build(data, y, p, std::move(right), depth + 1, out);
  out[id].right = right_id;
  return id;
}

/// Fits `targets` with the histogram search and the sorting reference and
/// compares the trees node for node.
void expect_split_parity(const Dataset& data, std::span<const double> targets,
                         TreeParams params) {
  std::vector<std::size_t> rows(data.size());
  std::iota(rows.begin(), rows.end(), 0);
  std::vector<Node> want;
  sort_build(data, targets, params, rows, 0, want);
  RegressionTree tree(params);
  tree.fit_targets(data, targets);
  const std::vector<Node> got = tree.export_nodes();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].feature, want[i].feature) << "node " << i;
    EXPECT_EQ(got[i].threshold, want[i].threshold) << "node " << i;
    EXPECT_EQ(got[i].left, want[i].left) << "node " << i;
    EXPECT_EQ(got[i].right, want[i].right) << "node " << i;
    EXPECT_NEAR(got[i].value, want[i].value, 1e-12 * std::abs(want[i].value)) << "node " << i;
  }
}

TEST(RegressionTreeTest, FitsPiecewiseConstantExactly) {
  Dataset d({"x"});
  for (int i = 0; i < 40; ++i) {
    const double x = i;
    d.add(std::vector<double>{x}, x < 20 ? 1.0 : 5.0);
  }
  RegressionTree tree(TreeParams{4, 1, 2});
  tree.fit(d);
  EXPECT_NEAR(tree.predict(std::vector<double>{5.0}), 1.0, 1e-12);
  EXPECT_NEAR(tree.predict(std::vector<double>{30.0}), 5.0, 1e-12);
}

TEST(RegressionTreeTest, DepthZeroIsGlobalMean) {
  Dataset d({"x"});
  d.add(std::vector<double>{0.0}, 2.0);
  d.add(std::vector<double>{1.0}, 4.0);
  RegressionTree tree(TreeParams{0, 1, 2});
  tree.fit(d);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0.5}), 3.0);
}

TEST(RegressionTreeTest, RespectsMaxDepth) {
  Dataset d({"x"});
  util::Xoshiro256 rng(2);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0, 10);
    d.add(std::vector<double>{x}, std::sin(x));
  }
  RegressionTree tree(TreeParams{3, 1, 2});
  tree.fit(d);
  EXPECT_LE(tree.depth(), 4);  // depth counts nodes on the path
}

TEST(RegressionTreeTest, MinSamplesLeafHonoured) {
  Dataset d({"x"});
  for (int i = 0; i < 10; ++i) {
    d.add(std::vector<double>{static_cast<double>(i)}, static_cast<double>(i));
  }
  RegressionTree tree(TreeParams{10, 4, 8});
  tree.fit(d);
  // With min_samples_leaf = 4 and 10 rows, at most one split is possible.
  EXPECT_LE(tree.leaf_count(), 2u);
}

TEST(RegressionTreeTest, PureNodeStopsSplitting) {
  Dataset d({"x"});
  for (int i = 0; i < 20; ++i) {
    d.add(std::vector<double>{static_cast<double>(i % 7)}, 3.0);
  }
  RegressionTree tree(TreeParams{8, 1, 2});
  tree.fit(d);
  EXPECT_EQ(tree.leaf_count(), 1u);
}

TEST(RegressionTreeTest, ConstantFeatureCannotSplit) {
  Dataset d({"x"});
  for (int i = 0; i < 20; ++i) {
    d.add(std::vector<double>{1.0}, static_cast<double>(i));
  }
  RegressionTree tree(TreeParams{8, 1, 2});
  tree.fit(d);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{1.0}), 9.5);
}

TEST(RegressionTreeTest, SelectsInformativeFeature) {
  // Feature 0 is noise, feature 1 carries the signal.
  Dataset d({"noise", "signal"});
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) {
    const double noise = rng.uniform(0, 1);
    const double signal = (i % 2 == 0) ? 0.0 : 10.0;
    d.add(std::vector<double>{noise, signal}, signal > 5.0 ? 100.0 : -100.0);
  }
  RegressionTree tree(TreeParams{1, 1, 2});
  tree.fit(d);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.5, 0.0}), -100.0, 1e-9);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.5, 10.0}), 100.0, 1e-9);
}

TEST(RegressionTreeTest, FitTargetsOverridesDatasetTargets) {
  Dataset d({"x"});
  for (int i = 0; i < 10; ++i) {
    d.add(std::vector<double>{static_cast<double>(i)}, 0.0);
  }
  std::vector<double> residuals(10, 7.0);
  RegressionTree tree;
  tree.fit_targets(d, residuals);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{4.0}), 7.0);
}

TEST(RegressionTreeTest, UsageErrors) {
  RegressionTree tree;
  EXPECT_THROW((void)tree.predict(std::vector<double>{1.0}), std::logic_error);
  EXPECT_THROW(tree.fit(Dataset({"x"})), std::invalid_argument);
  EXPECT_THROW(RegressionTree(TreeParams{-1, 1, 2}), std::invalid_argument);
  EXPECT_THROW(RegressionTree(TreeParams{3, 0, 2}), std::invalid_argument);

  Dataset d({"x"});
  d.add(std::vector<double>{1.0}, 1.0);
  std::vector<double> wrong_size(2, 0.0);
  EXPECT_THROW(tree.fit_targets(d, wrong_size), std::invalid_argument);
  tree.fit(d);
  EXPECT_THROW((void)tree.predict(std::vector<double>{1.0, 2.0}), std::invalid_argument);
}

TEST(RegressionTreeTest, TrainingErrorDecreasesWithDepth) {
  Dataset d({"x"});
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform(0, 10);
    d.add(std::vector<double>{x}, x * x);
  }
  double prev_sse = 1e300;
  for (int depth : {1, 2, 4, 8}) {
    RegressionTree tree(TreeParams{depth, 1, 2});
    tree.fit(d);
    double sse = 0.0;
    for (std::size_t i = 0; i < d.size(); ++i) {
      const double e = d.target(i) - tree.predict(d.row(i));
      sse += e * e;
    }
    EXPECT_LE(sse, prev_sse + 1e-9) << "depth " << depth;
    prev_sse = sse;
  }
}

TEST(FeatureRanksTest, DistinctValuesAscendingAndRanksPointBack) {
  Dataset d({"ties", "constant"});
  const std::vector<double> xs{3.0, -1.0, 3.0, 0.5, -1.0, 7.0};
  for (double x : xs) d.add(std::vector<double>{x, 2.0}, 0.0);
  const FeatureRanks ranks(d);
  ASSERT_EQ(ranks.row_count(), xs.size());
  ASSERT_EQ(ranks.feature_count(), 2u);
  EXPECT_EQ(std::vector<double>(ranks.values(0).begin(), ranks.values(0).end()),
            (std::vector<double>{-1.0, 0.5, 3.0, 7.0}));
  EXPECT_EQ(ranks.values(1).size(), 1u);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(ranks.values(0)[ranks.ranks(0)[i]], xs[i]);
    EXPECT_EQ(ranks.ranks(1)[i], 0u);
  }
}

TEST(RegressionTreeTest, FitRowsEqualsFitOnCopiedRows) {
  Dataset d({"x", "ties"});
  util::Xoshiro256 rng(21);
  std::vector<double> targets;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform(0, 10);
    const double ties = static_cast<double>(rng.bounded(4));
    d.add(std::vector<double>{x, ties}, 0.0);
    targets.push_back(std::sin(x) + ties + rng.normal(0, 0.1));
  }
  // A subsampling round's row list: shuffled, 60% of the rows.
  std::vector<std::size_t> rows(d.size());
  std::iota(rows.begin(), rows.end(), 0);
  util::shuffle(rows, rng);
  rows.resize(180);

  Dataset copied(d.feature_names());
  for (std::size_t row : rows) copied.add(d.row(row), targets[row]);
  for (const TreeParams params : {TreeParams{5, 3, 6}, TreeParams{8, 1, 2}}) {
    RegressionTree on_rows(params);
    on_rows.fit_rows(FeatureRanks(d), targets, rows);
    RegressionTree on_copy(params);
    on_copy.fit(copied);
    EXPECT_EQ(on_rows.export_nodes(), on_copy.export_nodes());
    EXPECT_GT(on_rows.node_count(), 1u);
  }
}

TEST(RegressionTreeTest, FitRowsRejectsBadRows) {
  Dataset d({"x"});
  for (int i = 0; i < 4; ++i) d.add(std::vector<double>{static_cast<double>(i)}, 1.0);
  const FeatureRanks ranks(d);
  RegressionTree tree;
  EXPECT_THROW(tree.fit_rows(ranks, d.targets(), {}), std::invalid_argument);
  EXPECT_THROW(tree.fit_rows(ranks, d.targets(), {0, 4}), std::out_of_range);
  const std::vector<double> short_targets(3, 1.0);
  EXPECT_THROW(tree.fit_rows(ranks, short_targets, {0, 1}), std::invalid_argument);
  EXPECT_FALSE(tree.fitted());
}

// The predictor's trees see min-max normalized features and log times; the
// later rounds of its boosted fit see residuals of those.
void expect_sweep_parity(const Dataset& raw) {
  Normalizer norm;
  norm.fit(raw);
  const Dataset normalized = norm.transform(raw);
  Dataset data(raw.feature_names());
  for (std::size_t i = 0; i < normalized.size(); ++i) {
    data.add(normalized.row(i), std::log(normalized.target(i)));
  }
  BoostedTreesParams params;  // PredictorOptions::defaults()
  params.rounds = 300;
  params.learning_rate = 0.08;
  params.tree = TreeParams{6, 3, 6};
  BoostedTreesRegressor model(params);
  model.fit(data);
  for (int round : {0, 1, 10, 100, 299}) {
    std::vector<double> residuals(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      residuals[i] = data.target(i) - model.predict_staged(data.row(i), round);
    }
    SCOPED_TRACE(::testing::Message() << "round " << round);
    expect_split_parity(data, residuals, params.tree);
  }
}

TEST(SplitSearchParity, TunePredictedHostAndDeviceSweeps) {
  core::TrainingSweepOptions sweep = core::TrainingSweepOptions::paper();
  sweep.fractions = {20.0, 40.0, 60.0, 80.0, 100.0};
  for (std::uint64_t repetition : {1, 2}) {
    sweep.repetition = repetition;
    const core::TrainingData data =
        core::generate_training_data(sim::emil_machine(), dna::GenomeCatalog{}, sweep);
    SCOPED_TRACE(::testing::Message() << "repetition " << repetition);
    expect_sweep_parity(data.host);
    expect_sweep_parity(data.device);
  }
}

TEST(SplitSearchParity, HeavyTiesAndConstantColumn) {
  Dataset d({"four_values", "constant", "two_values"});
  util::Xoshiro256 rng(31);
  std::vector<double> targets;
  for (int i = 0; i < 400; ++i) {
    const double a = static_cast<double>(rng.bounded(4)) * 0.25;
    const double b = static_cast<double>(rng.bounded(2));
    d.add(std::vector<double>{a, 7.0, b}, 0.0);
    targets.push_back(3.0 * a - 2.0 * b + a * b + rng.normal(0, 0.3));
  }
  expect_split_parity(d, targets, TreeParams{6, 3, 6});
  expect_split_parity(d, targets, TreeParams{10, 1, 2});
}

TEST(SplitSearchParity, MinSamplesLeafAtTieGroupBoundaries) {
  // Groups of three equal x values: min_samples_leaf 3 and 6 land exactly
  // on a group boundary, the others inside a group.
  Dataset d({"x"});
  util::Xoshiro256 rng(41);
  std::vector<double> targets;
  for (int i = 0; i < 30; ++i) {
    d.add(std::vector<double>{static_cast<double>(i / 3)}, 0.0);
    targets.push_back(rng.uniform(0, 1) + (i < 3 ? 5.0 : 0.0));
  }
  for (std::size_t leaf = 1; leaf <= 8; ++leaf) {
    SCOPED_TRACE(::testing::Message() << "min_samples_leaf " << leaf);
    expect_split_parity(d, targets, TreeParams{6, leaf, 2 * leaf});
  }
  // The outlying first group is split off as soon as a leaf may hold 3 rows.
  RegressionTree tree(TreeParams{1, 3, 6});
  tree.fit_targets(d, targets);
  ASSERT_EQ(tree.node_count(), 3u);
  EXPECT_EQ(tree.export_nodes()[0].threshold, 0.5);
}

TEST(SplitSearchParity, OneHotColumnsThatSplitAlikePredictAlike) {
  // In a node holding two of three categories, their two one-hot columns
  // induce the same partition, mirrored, with gains equal up to rounding. A
  // tie group sums in node order here but in sort order in the reference,
  // so either column may win; the partition, and so every prediction, may
  // not differ.
  Dataset d({"size", "a0", "a1", "a2"});
  util::Xoshiro256 rng(61);
  std::vector<double> targets;
  for (int i = 0; i < 600; ++i) {
    const double size = static_cast<double>(rng.bounded(5));
    const auto category = rng.bounded(3);
    d.add(std::vector<double>{size, category == 0 ? 1.0 : 0.0, category == 1 ? 1.0 : 0.0,
                              category == 2 ? 1.0 : 0.0},
          0.0);
    targets.push_back(size * (1.0 + static_cast<double>(category)) + rng.normal(0, 0.2));
  }
  const TreeParams params{6, 3, 6};
  std::vector<std::size_t> rows(d.size());
  std::iota(rows.begin(), rows.end(), 0);
  std::vector<Node> want;
  sort_build(d, targets, params, rows, 0, want);
  RegressionTree tree(params);
  tree.fit_targets(d, targets);
  ASSERT_EQ(tree.node_count(), want.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    const std::span<const double> x = d.row(i);
    std::int32_t node = 0;
    while (want[node].left >= 0) {
      node = x[static_cast<std::size_t>(want[node].feature)] < want[node].threshold
                 ? want[node].left
                 : want[node].right;
    }
    EXPECT_EQ(tree.predict(x), want[node].value) << "row " << i;
  }
}

TEST(SplitSearchParity, ContinuousUniformFeatures) {
  Dataset d({"x1", "x2", "x3"});
  util::Xoshiro256 rng(51);
  std::vector<double> targets;
  for (int i = 0; i < 600; ++i) {
    const double x1 = rng.uniform(0, 4);
    const double x2 = rng.uniform(0, 4);
    const double x3 = rng.uniform(-1, 1);
    d.add(std::vector<double>{x1, x2, x3}, 0.0);
    targets.push_back(std::exp(0.3 * x1) + 2.0 / (1.0 + x2) + rng.normal(0, 0.05));
  }
  expect_split_parity(d, targets, TreeParams{6, 3, 6});
  expect_split_parity(d, targets, TreeParams{12, 1, 2});
}

}  // namespace
}  // namespace hetopt::ml
