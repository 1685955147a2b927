#include "ml/boosted_trees.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "ml/metrics.hpp"
#include "util/rng.hpp"

namespace hetopt::ml {
namespace {

Dataset smooth_surface(std::size_t n, std::uint64_t seed, double noise_sigma = 0.0) {
  Dataset d({"x1", "x2"});
  util::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double x1 = rng.uniform(0, 4);
    const double x2 = rng.uniform(0, 4);
    const double y =
        std::exp(0.3 * x1) + 2.0 / (1.0 + x2) + (noise_sigma > 0 ? rng.normal(0, noise_sigma) : 0.0);
    d.add(std::vector<double>{x1, x2}, y);
  }
  return d;
}

TEST(BoostedTreesTest, BeatsSingleTreeOnSmoothSurface) {
  const Dataset train = smooth_surface(400, 1);
  const Dataset test = smooth_surface(200, 2);

  RegressionTree tree(TreeParams{5, 3, 6});
  tree.fit(train);
  const ErrorSummary tree_err = evaluate(tree, test);

  BoostedTreesParams params;
  params.rounds = 150;
  params.learning_rate = 0.1;
  BoostedTreesRegressor boosted(params);
  boosted.fit(train);
  const ErrorSummary boosted_err = evaluate(boosted, test);

  EXPECT_LT(boosted_err.rmse, tree_err.rmse);
}

TEST(BoostedTreesTest, TrainingErrorNonIncreasingInRounds) {
  // Staged-prediction property: adding rounds never hurts the training SSE
  // (least-squares boosting with full sampling).
  const Dataset train = smooth_surface(300, 3);
  BoostedTreesParams params;
  params.rounds = 60;
  params.subsample = 1.0;
  BoostedTreesRegressor model(params);
  model.fit(train);

  double prev = 1e300;
  for (int rounds : {0, 5, 15, 30, 60}) {
    double sse = 0.0;
    for (std::size_t i = 0; i < train.size(); ++i) {
      const double e = train.target(i) - model.predict_staged(train.row(i), rounds);
      sse += e * e;
    }
    EXPECT_LE(sse, prev + 1e-9) << "rounds " << rounds;
    prev = sse;
  }
}

TEST(BoostedTreesTest, ZeroRoundsIsBaseMean) {
  Dataset d({"x"});
  d.add(std::vector<double>{0.0}, 2.0);
  d.add(std::vector<double>{1.0}, 6.0);
  BoostedTreesRegressor model;
  model.fit(d);
  EXPECT_DOUBLE_EQ(model.predict_staged(std::vector<double>{0.5}, 0), 4.0);
}

TEST(BoostedTreesTest, DeterministicWithFixedSeed) {
  const Dataset train = smooth_surface(200, 4);
  BoostedTreesParams params;
  params.rounds = 40;
  params.subsample = 0.7;
  params.seed = 99;
  BoostedTreesRegressor a(params);
  BoostedTreesRegressor b(params);
  a.fit(train);
  b.fit(train);
  for (double x = 0.0; x < 4.0; x += 0.5) {
    const std::vector<double> q{x, 4.0 - x};
    EXPECT_DOUBLE_EQ(a.predict(q), b.predict(q));
  }
}

TEST(BoostedTreesTest, SubsamplingStillLearns) {
  const Dataset train = smooth_surface(400, 5);
  const Dataset test = smooth_surface(200, 6);
  BoostedTreesParams params;
  params.rounds = 120;
  params.subsample = 0.6;
  BoostedTreesRegressor model(params);
  model.fit(train);
  const ErrorSummary err = evaluate(model, test);
  EXPECT_LT(err.mean_percent, 5.0);
}

TEST(BoostedTreesTest, NoisyTargetsStillCloseToTruth) {
  const Dataset train = smooth_surface(600, 7, /*noise_sigma=*/0.05);
  BoostedTreesParams params;
  params.rounds = 150;
  BoostedTreesRegressor model(params);
  model.fit(train);
  // Compare against the noiseless surface at fresh points.
  util::Xoshiro256 rng(8);
  double pct = 0.0;
  constexpr int kProbes = 200;
  for (int i = 0; i < kProbes; ++i) {
    const double x1 = rng.uniform(0.2, 3.8);
    const double x2 = rng.uniform(0.2, 3.8);
    const double truth = std::exp(0.3 * x1) + 2.0 / (1.0 + x2);
    pct += percent_error(truth, model.predict(std::vector<double>{x1, x2}));
  }
  EXPECT_LT(pct / kProbes, 8.0);
}

TEST(BoostedTreesTest, ParameterValidation) {
  BoostedTreesParams p;
  p.rounds = 0;
  EXPECT_THROW(BoostedTreesRegressor{p}, std::invalid_argument);
  p = {};
  p.learning_rate = 0.0;
  EXPECT_THROW(BoostedTreesRegressor{p}, std::invalid_argument);
  p = {};
  p.learning_rate = 1.5;
  EXPECT_THROW(BoostedTreesRegressor{p}, std::invalid_argument);
  p = {};
  p.subsample = 0.0;
  EXPECT_THROW(BoostedTreesRegressor{p}, std::invalid_argument);
}

TEST(BoostedTreesTest, UsageErrors) {
  BoostedTreesRegressor model;
  EXPECT_FALSE(model.fitted());
  EXPECT_THROW((void)model.predict(std::vector<double>{1.0}), std::logic_error);
  EXPECT_THROW(model.fit(Dataset({"x"})), std::invalid_argument);

  Dataset d({"x"});
  d.add(std::vector<double>{1.0}, 1.0);
  d.add(std::vector<double>{2.0}, 2.0);
  model.fit(d);
  EXPECT_THROW((void)model.predict_staged(std::vector<double>{1.0}, -1),
               std::invalid_argument);
  EXPECT_THROW((void)model.predict_staged(std::vector<double>{1.0},
                                          model.trained_rounds() + 1),
               std::invalid_argument);
  EXPECT_EQ(model.name(), "BoostedDecisionTreeRegression");
}

TEST(BoostedTreesTest, PredictRowsMatchesPredictBitForBit) {
  const Dataset train = smooth_surface(300, 5);
  const Dataset probe = smooth_surface(64, 6);
  BoostedTreesParams params;
  params.rounds = 80;
  params.subsample = 0.7;
  BoostedTreesRegressor model(params);
  model.fit(train);

  std::vector<double> rows;
  std::vector<double> expected;
  for (std::size_t i = 0; i < probe.size(); ++i) {
    const auto row = probe.row(i);
    rows.insert(rows.end(), row.begin(), row.end());
    expected.push_back(model.predict(row));
  }
  std::vector<double> out(probe.size());
  model.predict_rows(rows, out);
  EXPECT_EQ(out, expected);

  // One row, and no rows at all.
  double one = 0.0;
  model.predict_rows(std::span<const double>(rows).first(2), {&one, 1});
  EXPECT_EQ(one, expected[0]);
  model.predict_rows({}, {});

  // The row buffer must split evenly into out.size() rows.
  std::vector<double> two(2);
  EXPECT_THROW(model.predict_rows(std::span<const double>(rows).first(5), two),
               std::invalid_argument);
  EXPECT_THROW(BoostedTreesRegressor().predict_rows(rows, out), std::logic_error);
}

class LearningRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(LearningRateSweep, ConvergesForReasonableRates) {
  const double lr = GetParam();
  const Dataset train = smooth_surface(300, 11);
  BoostedTreesParams params;
  params.rounds = 200;
  params.learning_rate = lr;
  BoostedTreesRegressor model(params);
  model.fit(train);
  const ErrorSummary err = evaluate(model, train);
  EXPECT_LT(err.mean_percent, 3.0) << "learning rate " << lr;
}

INSTANTIATE_TEST_SUITE_P(Rates, LearningRateSweep, ::testing::Values(0.05, 0.1, 0.3));

}  // namespace
}  // namespace hetopt::ml
