#include "ml/serialize.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdlib>
#include <functional>
#include <sstream>

#include "util/rng.hpp"

namespace hetopt::ml {
namespace {

Dataset surface(std::size_t n, std::uint64_t seed) {
  Dataset d({"x1", "x2", "x3"});
  util::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(0, 5);
    const double b = rng.uniform(0, 5);
    const double c = rng.uniform(0, 1);
    d.add(std::vector<double>{a, b, c}, 1.0 + a * 0.5 + b * b * 0.1 + c);
  }
  return d;
}

TEST(SerializeNormalizer, RoundTripPreservesTransform) {
  const Dataset data = surface(50, 1);
  Normalizer original;
  original.fit(data);

  std::stringstream ss;
  save(ss, original);
  const Normalizer loaded = load_normalizer(ss);

  std::vector<double> a(3);
  std::vector<double> b(3);
  for (std::size_t i = 0; i < data.size(); ++i) {
    original.transform_row(data.row(i), a);
    loaded.transform_row(data.row(i), b);
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(a[j], b[j]);
  }
}

/// Peak resident set of this process, in KiB.
long max_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// Runs `load` in a forked child and exits 0 when it threw
/// std::runtime_error and raised the child's peak resident set by less than
/// 32 MiB.
void expect_small_failed_load(const std::function<void()>& load) {
  EXPECT_EXIT(
      {
        const long before = max_rss_kib();
        bool threw = false;
        try {
          load();
        } catch (const std::runtime_error&) {
          threw = true;
        }
        std::_Exit(threw && max_rss_kib() - before < 32 * 1024 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(SerializeNormalizer, TruncatedFileAllocatesOnlyWhatItHolds) {
  // Claims a million features and holds one range.
  expect_small_failed_load([] {
    std::stringstream file("hetopt-normalizer-v1\n1000000\n0 1\n");
    (void)load_normalizer(file);
  });
}

TEST(SerializeBoostedTrees, TruncatedFileAllocatesOnlyWhatItHolds) {
  // Claims a ten-million-node tree and holds one node.
  expect_small_failed_load([] {
    std::stringstream file(
        "hetopt-boosted-trees-v1\n1 0.1 5 3 6 1 7\n0.5\n1 1\n10000000\n-1 0 -1 -1 1\n");
    (void)load_boosted_trees(file);
  });
}

TEST(SerializeNormalizer, RejectsUnfittedAndGarbage) {
  std::stringstream ss;
  EXPECT_THROW(save(ss, Normalizer{}), std::runtime_error);
  std::stringstream bad("not-a-normalizer 3");
  EXPECT_THROW((void)load_normalizer(bad), std::runtime_error);
  std::stringstream truncated("hetopt-normalizer-v1\n2\n0.0 1.0\n");
  EXPECT_THROW((void)load_normalizer(truncated), std::runtime_error);
}

TEST(SerializeBoostedTrees, RoundTripPredictsIdentically) {
  const Dataset train = surface(300, 2);
  BoostedTreesParams params;
  params.rounds = 80;
  params.subsample = 0.8;
  BoostedTreesRegressor original(params);
  original.fit(train);

  std::stringstream ss;
  save(ss, original);
  const BoostedTreesRegressor loaded = load_boosted_trees(ss);

  EXPECT_EQ(loaded.trained_rounds(), original.trained_rounds());
  util::Xoshiro256 rng(3);
  for (int probe = 0; probe < 200; ++probe) {
    const std::vector<double> q{rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 1)};
    EXPECT_DOUBLE_EQ(loaded.predict(q), original.predict(q));
  }
}

TEST(SerializeBoostedTrees, RoundTripPreservesParams) {
  const Dataset train = surface(100, 4);
  BoostedTreesParams params;
  params.rounds = 25;
  params.learning_rate = 0.07;
  params.tree.max_depth = 4;
  BoostedTreesRegressor original(params);
  original.fit(train);

  std::stringstream ss;
  save(ss, original);
  const BoostedTreesRegressor loaded = load_boosted_trees(ss);
  EXPECT_EQ(loaded.params().rounds, 25);
  EXPECT_DOUBLE_EQ(loaded.params().learning_rate, 0.07);
  EXPECT_EQ(loaded.params().tree.max_depth, 4);
  EXPECT_DOUBLE_EQ(loaded.base_prediction(), original.base_prediction());
}

TEST(SerializeBoostedTrees, RejectsUnfittedAndGarbage) {
  std::stringstream ss;
  EXPECT_THROW(save(ss, BoostedTreesRegressor{}), std::runtime_error);
  std::stringstream bad("wrong-magic");
  EXPECT_THROW((void)load_boosted_trees(bad), std::runtime_error);
  std::stringstream truncated("hetopt-boosted-trees-v1\n10 0.1 5 3 6 1 99\n2.5\n3 1\n");
  EXPECT_THROW((void)load_boosted_trees(truncated), std::runtime_error);
  // A root that names itself as its children: predict() would never return.
  std::stringstream self_loop(
      "hetopt-boosted-trees-v1\n1 0.1 5 3 6 1 7\n0.5\n1 1\n1\n0 0.5 0 0 0\n");
  EXPECT_THROW((void)load_boosted_trees(self_loop), std::runtime_error);
}

TEST(ExportedNodes, FromNodesValidatesStructure) {
  std::vector<RegressionTree::ExportedNode> bad_child{
      {0, 0.5, 7, 2, 0.0}, {-1, 0, -1, -1, 1.0}, {-1, 0, -1, -1, 2.0}};
  EXPECT_THROW((void)RegressionTree::from_nodes(TreeParams{}, bad_child, 2),
               std::invalid_argument);
  std::vector<RegressionTree::ExportedNode> bad_feature{
      {5, 0.5, 1, 2, 0.0}, {-1, 0, -1, -1, 1.0}, {-1, 0, -1, -1, 2.0}};
  EXPECT_THROW((void)RegressionTree::from_nodes(TreeParams{}, bad_feature, 2),
               std::invalid_argument);
  std::vector<RegressionTree::ExportedNode> half_leaf{{0, 0.5, 1, -1, 0.0},
                                                      {-1, 0, -1, -1, 1.0}};
  EXPECT_THROW((void)RegressionTree::from_nodes(TreeParams{}, half_leaf, 2),
               std::invalid_argument);
  std::vector<RegressionTree::ExportedNode> self_loop{
      {0, 0.5, 0, 1, 0.0}, {-1, 0, -1, -1, 1.0}};
  EXPECT_THROW((void)RegressionTree::from_nodes(TreeParams{}, self_loop, 2),
               std::invalid_argument);
  std::vector<RegressionTree::ExportedNode> back_edge{{0, 0.5, 1, 3, 0.0},
                                                      {1, 0.5, 2, 0, 0.0},
                                                      {-1, 0, -1, -1, 1.0},
                                                      {-1, 0, -1, -1, 2.0}};
  EXPECT_THROW((void)RegressionTree::from_nodes(TreeParams{}, back_edge, 2),
               std::invalid_argument);
  EXPECT_THROW((void)RegressionTree::from_nodes(TreeParams{}, {}, 2),
               std::invalid_argument);
}

TEST(FeatureImportance, IdentifiesInformativeFeature) {
  // Feature 1 carries all signal; importance must concentrate there.
  Dataset d({"noise", "signal"});
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 300; ++i) {
    const double noise = rng.uniform(0, 1);
    const double signal = rng.uniform(0, 10);
    d.add(std::vector<double>{noise, signal}, signal * signal);
  }
  BoostedTreesParams params;
  params.rounds = 40;
  BoostedTreesRegressor model(params);
  model.fit(d);
  const auto importance = model.feature_importance(2);
  ASSERT_EQ(importance.size(), 2u);
  EXPECT_NEAR(importance[0] + importance[1], 1.0, 1e-12);
  EXPECT_GT(importance[1], 0.8);
}

TEST(FeatureImportance, AllZeroWhenNoSplits) {
  Dataset d({"x"});
  d.add(std::vector<double>{1.0}, 5.0);
  d.add(std::vector<double>{1.0}, 5.0);
  BoostedTreesParams params;
  params.rounds = 5;
  BoostedTreesRegressor model(params);
  model.fit(d);  // constant target & feature: no splits possible
  const auto importance = model.feature_importance(1);
  EXPECT_DOUBLE_EQ(importance[0], 0.0);
}

}  // namespace
}  // namespace hetopt::ml
