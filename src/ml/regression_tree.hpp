// CART regression tree: axis-aligned binary splits minimizing the sum of
// squared errors. Used standalone and as the weak learner inside the
// boosted ensemble.
//
// Fitting never sorts a node. FeatureRanks ranks every feature column once
// (its distinct values ascending plus each row's rank into them), and each
// node picks its split from one histogram per non-constant feature — row
// count, sum of targets and sum of squared targets per rank. The boosted
// ensemble ranks once per fit and grows every round's tree on a list of row
// indices against the same ranks. The splits are those of sorting each
// node's rows by value: same candidate thresholds, gain formula and tie
// rule (tests/ml/regression_tree_test.cpp compares the two).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/regressor.hpp"

namespace hetopt::ml {

struct TreeParams {
  int max_depth = 6;
  std::size_t min_samples_leaf = 2;
  std::size_t min_samples_split = 4;
};

/// Every feature column of a dataset ranked once: the column's distinct
/// values in ascending order plus each row's rank into them, stored
/// column-major.
class FeatureRanks {
 public:
  explicit FeatureRanks(const Dataset& data);

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_; }
  [[nodiscard]] std::size_t feature_count() const noexcept { return values_.size(); }
  /// Distinct values of feature `f`, ascending.
  [[nodiscard]] std::span<const double> values(std::size_t f) const { return values_.at(f); }
  /// Every row's rank of its feature-`f` value in values(f).
  [[nodiscard]] std::span<const std::uint32_t> ranks(std::size_t f) const {
    return std::span<const std::uint32_t>(ranks_).subspan(f * rows_, rows_);
  }

 private:
  std::size_t rows_ = 0;
  std::vector<std::vector<double>> values_;
  std::vector<std::uint32_t> ranks_;  // ranks_[f * rows_ + row]
};

class RegressionTree final : public Regressor {
 public:
  explicit RegressionTree(TreeParams params = {});

  void fit(const Dataset& data) override;
  /// Fits against externally supplied targets (boosting residuals); `data`'s
  /// own targets are ignored.
  void fit_targets(const Dataset& data, std::span<const double> targets);
  /// Fits on `rows` of a ranked dataset, in that order. `targets` is indexed
  /// by row of the ranked dataset. Boosting ranks once per fit and grows each
  /// round's tree here; a fit equals fit_targets() on those rows copied into
  /// a new dataset.
  void fit_rows(const FeatureRanks& ranks, std::span<const double> targets,
                std::vector<std::size_t> rows);

  [[nodiscard]] bool fitted() const noexcept override { return !nodes_.empty(); }
  [[nodiscard]] double predict(std::span<const double> features) const override;
  [[nodiscard]] std::string name() const override { return "RegressionTree"; }

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  /// Width of feature rows this tree was fitted/rebuilt with.
  [[nodiscard]] std::size_t feature_count() const noexcept { return feature_count_; }
  [[nodiscard]] std::size_t leaf_count() const noexcept;
  [[nodiscard]] int depth() const noexcept;

  /// Adds this tree's split counts into `counts` (size >= feature_count).
  /// Used for ensemble feature importance.
  void accumulate_split_counts(std::span<std::size_t> counts) const;

  /// Flat node record for (de)serialization.
  struct ExportedNode {
    std::int32_t feature = -1;
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    double value = 0.0;
    friend bool operator==(const ExportedNode&, const ExportedNode&) = default;
  };
  [[nodiscard]] std::vector<ExportedNode> export_nodes() const;
  /// Rebuilds a tree from exported nodes. Validates indices: every child
  /// must come after its node (fit() writes nodes in preorder), so no
  /// rebuilt tree can loop.
  [[nodiscard]] static RegressionTree from_nodes(TreeParams params,
                                                 std::vector<ExportedNode> nodes,
                                                 std::size_t feature_count);

 private:
  struct Node {
    // Internal node: split on feature < threshold -> left else right.
    // Leaf: left == -1.
    std::int32_t feature = -1;
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    double value = 0.0;  // leaf prediction (mean of targets)
  };

  /// One histogram bin: the node's rows holding one rank of one feature.
  struct Bin {
    std::size_t count = 0;
    double sum = 0.0;
    double sq = 0.0;
  };

  std::int32_t build(const FeatureRanks& ranks, std::span<const double> targets,
                     std::span<std::size_t> rows, int depth, std::vector<Bin>& histogram);

  TreeParams params_;
  std::vector<Node> nodes_;
  std::size_t feature_count_ = 0;
};

}  // namespace hetopt::ml
