#include "ml/regression_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace hetopt::ml {

RegressionTree::RegressionTree(TreeParams params) : params_(params) {
  if (params_.max_depth < 0) throw std::invalid_argument("RegressionTree: max_depth < 0");
  if (params_.min_samples_leaf < 1) {
    throw std::invalid_argument("RegressionTree: min_samples_leaf < 1");
  }
}

FeatureRanks::FeatureRanks(const Dataset& data)
    : rows_(data.size()),
      values_(data.feature_count()),
      ranks_(data.size() * data.feature_count()) {
  if (rows_ > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("FeatureRanks: too many rows");
  }
  std::vector<double> column(rows_);
  for (std::size_t f = 0; f < values_.size(); ++f) {
    for (std::size_t i = 0; i < rows_; ++i) column[i] = data.row(i)[f];
    std::vector<double>& distinct = values_[f];
    distinct = column;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
    for (std::size_t i = 0; i < rows_; ++i) {
      ranks_[f * rows_ + i] = static_cast<std::uint32_t>(
          std::lower_bound(distinct.begin(), distinct.end(), column[i]) - distinct.begin());
    }
  }
}

void RegressionTree::fit(const Dataset& data) { fit_targets(data, data.targets()); }

void RegressionTree::fit_targets(const Dataset& data, std::span<const double> targets) {
  if (data.empty()) throw std::invalid_argument("RegressionTree::fit: empty dataset");
  std::vector<std::size_t> rows(data.size());
  std::iota(rows.begin(), rows.end(), 0);
  fit_rows(FeatureRanks(data), targets, std::move(rows));
}

void RegressionTree::fit_rows(const FeatureRanks& ranks, std::span<const double> targets,
                              std::vector<std::size_t> rows) {
  if (rows.empty()) throw std::invalid_argument("RegressionTree::fit: no rows");
  if (targets.size() != ranks.row_count()) {
    throw std::invalid_argument("RegressionTree::fit: target size mismatch");
  }
  for (std::size_t row : rows) {
    if (row >= ranks.row_count()) throw std::out_of_range("RegressionTree::fit: row");
  }
  nodes_.clear();
  feature_count_ = ranks.feature_count();
  std::size_t widest = 0;
  for (std::size_t f = 0; f < ranks.feature_count(); ++f) {
    widest = std::max(widest, ranks.values(f).size());
  }
  std::vector<Bin> histogram(widest);
  build(ranks, targets, rows, 0, histogram);
}

std::int32_t RegressionTree::build(const FeatureRanks& ranks, std::span<const double> targets,
                                   std::span<std::size_t> rows, int depth,
                                   std::vector<Bin>& histogram) {
  const std::size_t n = rows.size();
  double sum = 0.0;
  for (std::size_t row : rows) sum += targets[row];
  const double node_mean = sum / static_cast<double>(n);

  const auto node_id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[node_id].value = node_mean;

  if (depth >= params_.max_depth || n < params_.min_samples_split ||
      n < 2 * params_.min_samples_leaf) {
    return node_id;
  }

  double node_sse = 0.0;
  for (std::size_t row : rows) {
    const double d = targets[row] - node_mean;
    node_sse += d * d;
  }
  if (node_sse <= 1e-24) return node_id;  // pure node

  // Best split over all features: minimize total SSE of the two children.
  // A feature's candidate thresholds are the midpoints of adjacent distinct
  // values present in the node. Its histogram holds the node's row count,
  // sum y and sum y^2 per rank, filled from the node's own rows in node
  // order (never as parent minus sibling, which would change the rounding).
  // Scanning the non-empty ranks in ascending order with running left-side
  // sums prices every candidate in O(1); the first candidate to beat the
  // best gain by more than 1e-15 wins. Scanning a bin also empties it, so
  // the histogram is clean for the next feature.
  double best_gain = 0.0;
  std::int32_t best_feature = -1;
  double best_threshold = 0.0;
  for (std::size_t f = 0; f < ranks.feature_count(); ++f) {
    const std::span<const double> values = ranks.values(f);
    if (values.size() < 2) continue;  // constant feature: no threshold
    const std::span<const std::uint32_t> rank = ranks.ranks(f);
    std::size_t lo = values.size();
    std::size_t hi = 0;
    for (std::size_t row : rows) {
      const std::size_t r = rank[row];
      const double y = targets[row];
      Bin& bin = histogram[r];
      ++bin.count;
      bin.sum += y;
      bin.sq += y * y;
      lo = std::min(lo, r);
      hi = std::max(hi, r);
    }
    // Totalled in rank order like the running left sums, so a feature
    // without ties prices every candidate bit for bit as a sort would.
    double total_sq = 0.0;
    for (std::size_t r = lo; r <= hi; ++r) total_sq += histogram[r].sq;
    std::size_t left_n = 0;
    double left_sum = 0.0;
    double left_sq = 0.0;
    std::size_t prev = lo;  // highest non-empty rank already on the left
    for (std::size_t r = lo; r <= hi; ++r) {
      const Bin bin = std::exchange(histogram[r], Bin{});
      if (bin.count == 0) continue;
      const std::size_t right_n = n - left_n;
      if (left_n >= params_.min_samples_leaf && right_n >= params_.min_samples_leaf) {
        const double right_sum = sum - left_sum;
        const double right_sq = total_sq - left_sq;
        // SSE = sum(y^2) - (sum y)^2 / n for each side.
        const double sse_left = left_sq - left_sum * left_sum / static_cast<double>(left_n);
        const double sse_right =
            right_sq - right_sum * right_sum / static_cast<double>(right_n);
        const double gain = node_sse - (sse_left + sse_right);
        if (gain > best_gain + 1e-15) {
          best_gain = gain;
          best_feature = static_cast<std::int32_t>(f);
          best_threshold = 0.5 * (values[prev] + values[r]);
        }
      }
      left_n += bin.count;
      left_sum += bin.sum;
      left_sq += bin.sq;
      prev = r;
    }
  }

  if (best_feature < 0) return node_id;

  // Partition the node's rows by the chosen split, comparing values as
  // predict() does (stable to keep the construction deterministic).
  const std::span<const double> values = ranks.values(static_cast<std::size_t>(best_feature));
  const std::span<const std::uint32_t> rank = ranks.ranks(static_cast<std::size_t>(best_feature));
  const auto mid = std::stable_partition(rows.begin(), rows.end(), [&](std::size_t row) {
    return values[rank[row]] < best_threshold;
  });
  const auto left_n = static_cast<std::size_t>(mid - rows.begin());
  if (left_n == 0 || left_n == n) return node_id;  // numeric edge case

  nodes_[node_id].feature = best_feature;
  nodes_[node_id].threshold = best_threshold;
  const std::int32_t left_id =
      build(ranks, targets, rows.first(left_n), depth + 1, histogram);
  nodes_[node_id].left = left_id;
  const std::int32_t right_id =
      build(ranks, targets, rows.subspan(left_n), depth + 1, histogram);
  nodes_[node_id].right = right_id;
  return node_id;
}

double RegressionTree::predict(std::span<const double> features) const {
  if (!fitted()) throw std::logic_error("RegressionTree: predict before fit");
  if (features.size() != feature_count_) {
    throw std::invalid_argument("RegressionTree: feature count mismatch");
  }
  std::int32_t node = 0;
  while (nodes_[node].left >= 0) {
    node = features[static_cast<std::size_t>(nodes_[node].feature)] < nodes_[node].threshold
               ? nodes_[node].left
               : nodes_[node].right;
  }
  return nodes_[node].value;
}

std::size_t RegressionTree::leaf_count() const noexcept {
  std::size_t leaves = 0;
  for (const Node& n : nodes_) leaves += (n.left < 0) ? 1U : 0U;
  return leaves;
}

void RegressionTree::accumulate_split_counts(std::span<std::size_t> counts) const {
  for (const Node& n : nodes_) {
    if (n.left >= 0) {
      const auto f = static_cast<std::size_t>(n.feature);
      if (f < counts.size()) ++counts[f];
    }
  }
}

std::vector<RegressionTree::ExportedNode> RegressionTree::export_nodes() const {
  std::vector<ExportedNode> out;
  out.reserve(nodes_.size());
  for (const Node& n : nodes_) {
    out.push_back(ExportedNode{n.feature, n.threshold, n.left, n.right, n.value});
  }
  return out;
}

int RegressionTree::depth() const noexcept {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the implicit tree structure.
  std::vector<std::pair<std::int32_t, int>> stack{{0, 1}};
  int depth = 0;
  while (!stack.empty()) {
    const auto [node, d] = stack.back();
    stack.pop_back();
    depth = std::max(depth, d);
    if (nodes_[node].left >= 0) {
      stack.emplace_back(nodes_[node].left, d + 1);
      stack.emplace_back(nodes_[node].right, d + 1);
    }
  }
  return depth;
}

}  // namespace hetopt::ml
