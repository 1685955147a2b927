#include "ml/dataset.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace hetopt::ml {
namespace {

Dataset make_dataset(std::size_t n) {
  Dataset d({"x", "y"});
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = static_cast<double>(i);
    d.add(std::vector<double>{xi, 2.0 * xi}, 3.0 * xi);
  }
  return d;
}

TEST(DatasetTest, AddAndAccess) {
  Dataset d({"a", "b", "c"});
  d.add(std::vector<double>{1.0, 2.0, 3.0}, 4.0);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.feature_count(), 3u);
  EXPECT_DOUBLE_EQ(d.row(0)[1], 2.0);
  EXPECT_DOUBLE_EQ(d.target(0), 4.0);
}

TEST(DatasetTest, RejectsBadRows) {
  Dataset d({"a", "b"});
  EXPECT_THROW(d.add(std::vector<double>{1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(d.add(std::vector<double>{1.0, std::nan("")}, 0.0), std::invalid_argument);
  EXPECT_THROW(d.add(std::vector<double>{1.0, 2.0},
                     std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW((void)d.row(0), std::out_of_range);
}

TEST(DatasetTest, NoFeatureNamesRejected) {
  EXPECT_THROW(Dataset(std::vector<std::string>{}), std::invalid_argument);
}

TEST(DatasetTest, SplitHalfPartitionsAllRows) {
  const Dataset d = make_dataset(101);
  const auto [train, eval] = d.split_half(42);
  EXPECT_EQ(train.size() + eval.size(), 101u);
  EXPECT_NEAR(static_cast<double>(train.size()), 50.5, 1.0);
}

TEST(DatasetTest, SplitIsSeedDeterministic) {
  const Dataset d = make_dataset(50);
  const auto [t1, e1] = d.split_half(7);
  const auto [t2, e2] = d.split_half(7);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_DOUBLE_EQ(t1.target(i), t2.target(i));
  }
  const auto [t3, e3] = d.split_half(8);
  (void)e3;
  bool any_differ = t3.size() != t1.size();
  for (std::size_t i = 0; !any_differ && i < t1.size(); ++i) {
    any_differ = t1.target(i) != t3.target(i);
  }
  EXPECT_TRUE(any_differ);
}

TEST(DatasetTest, SplitFractionBounds) {
  const Dataset d = make_dataset(10);
  EXPECT_THROW((void)d.split_fraction(0.0, 1), std::invalid_argument);
  EXPECT_THROW((void)d.split_fraction(1.0, 1), std::invalid_argument);
  const Dataset one = make_dataset(1);
  EXPECT_THROW((void)one.split_fraction(0.5, 1), std::invalid_argument);
}

TEST(DatasetTest, SplitPreservesRowIntegrity) {
  // Each row satisfies y = 2x and target = 3x; splits must not shear rows.
  const Dataset d = make_dataset(60);
  const auto [train, eval] = d.split_half(3);
  for (const Dataset* part : {&train, &eval}) {
    for (std::size_t i = 0; i < part->size(); ++i) {
      const auto row = part->row(i);
      EXPECT_DOUBLE_EQ(row[1], 2.0 * row[0]);
      EXPECT_DOUBLE_EQ(part->target(i), 3.0 * row[0]);
    }
  }
}

TEST(NormalizerTest, MapsToUnitRange) {
  Dataset d({"x"});
  d.add(std::vector<double>{10.0}, 0.0);
  d.add(std::vector<double>{20.0}, 0.0);
  d.add(std::vector<double>{30.0}, 0.0);
  Normalizer n;
  n.fit(d);
  const Dataset t = n.transform(d);
  EXPECT_DOUBLE_EQ(t.row(0)[0], 0.0);
  EXPECT_DOUBLE_EQ(t.row(1)[0], 0.5);
  EXPECT_DOUBLE_EQ(t.row(2)[0], 1.0);
}

TEST(NormalizerTest, ConstantFeatureMapsToZero) {
  Dataset d({"x"});
  d.add(std::vector<double>{5.0}, 1.0);
  d.add(std::vector<double>{5.0}, 2.0);
  Normalizer n;
  n.fit(d);
  EXPECT_DOUBLE_EQ(n.transform(d).row(1)[0], 0.0);
}

TEST(NormalizerTest, TransformRowMatchesTransform) {
  const Dataset d = make_dataset(20);
  Normalizer n;
  n.fit(d);
  const Dataset t = n.transform(d);
  std::vector<double> buf(2);
  n.transform_row(d.row(7), buf);
  EXPECT_DOUBLE_EQ(buf[0], t.row(7)[0]);
  EXPECT_DOUBLE_EQ(buf[1], t.row(7)[1]);
}

TEST(NormalizerTest, UsageErrors) {
  Normalizer n;
  const Dataset d = make_dataset(5);
  EXPECT_THROW((void)n.transform(d), std::logic_error);
  EXPECT_THROW(n.fit(Dataset({"x"})), std::invalid_argument);
  n.fit(d);
  std::vector<double> small(1);
  EXPECT_THROW(n.transform_row(d.row(0), small), std::invalid_argument);
}

}  // namespace
}  // namespace hetopt::ml
