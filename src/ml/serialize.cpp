#include "ml/serialize.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace hetopt::ml {

namespace {

constexpr const char* kNormalizerMagic = "hetopt-normalizer-v1";
constexpr const char* kBoostedMagic = "hetopt-boosted-trees-v1";

void write_double(std::ostream& os, double v) {
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
}

[[noreturn]] void fail(const std::string& what) {
  std::string message = "ml::serialize: ";
  message += what;
  throw std::runtime_error(message);
}

template <typename T>
T read_value(std::istream& is, const char* what) {
  T v;
  if (!(is >> v)) {
    std::string message = "truncated/garbled input reading ";
    message += what;
    fail(message);
  }
  return v;
}

void expect_magic(std::istream& is, const char* magic) {
  std::string token;
  if (!(is >> token) || token != magic) {
    std::string message = "bad magic, expected ";
    message += magic;
    fail(message);
  }
}

}  // namespace

void save(std::ostream& os, const Normalizer& normalizer) {
  if (!normalizer.fitted()) fail("cannot save an unfitted normalizer");
  os << kNormalizerMagic << '\n' << normalizer.mins().size() << '\n';
  for (std::size_t j = 0; j < normalizer.mins().size(); ++j) {
    write_double(os, normalizer.mins()[j]);
    os << ' ';
    write_double(os, normalizer.maxs()[j]);
    os << '\n';
  }
}

Normalizer load_normalizer(std::istream& is) {
  expect_magic(is, kNormalizerMagic);
  const auto k = read_value<std::size_t>(is, "feature count");
  if (k == 0 || k > 1'000'000) fail("implausible normalizer feature count");
  // Read the ranges before building anything sized by `k`, so a file that
  // claims many features but holds few allocates only what it holds.
  std::vector<double> lo;
  std::vector<double> hi;
  for (std::size_t j = 0; j < k; ++j) {
    lo.push_back(read_value<double>(is, "min"));
    hi.push_back(read_value<double>(is, "max"));
    if (hi[j] < lo[j]) fail("normalizer max < min");
  }
  // Rebuild through fit() on a synthetic two-row dataset carrying the ranges
  // (keeps Normalizer's invariants in one place).
  std::vector<std::string> names(k);
  for (std::size_t j = 0; j < k; ++j) {
    names[j] = std::to_string(j);
    names[j].insert(names[j].begin(), 'f');
  }
  Dataset d(names);
  d.add(lo, 0.0);
  d.add(hi, 0.0);
  Normalizer n;
  n.fit(d);
  return n;
}

void save(std::ostream& os, const BoostedTreesRegressor& model) {
  if (!model.fitted()) fail("cannot save an unfitted model");
  const BoostedTreesParams& p = model.params();
  os << kBoostedMagic << '\n'
     << p.rounds << ' ';
  write_double(os, p.learning_rate);
  os << ' ' << p.tree.max_depth << ' ' << p.tree.min_samples_leaf << ' '
     << p.tree.min_samples_split << ' ';
  write_double(os, p.subsample);
  os << ' ' << p.seed << '\n';
  write_double(os, model.base_prediction());
  const std::size_t feature_count =
      model.trees().empty() ? 1 : model.trees().front().feature_count();
  os << '\n' << feature_count << ' ' << model.trees().size() << '\n';
  for (const RegressionTree& tree : model.trees()) {
    const auto nodes = tree.export_nodes();
    os << nodes.size() << '\n';
    for (const auto& n : nodes) {
      os << n.feature << ' ';
      write_double(os, n.threshold);
      os << ' ' << n.left << ' ' << n.right << ' ';
      write_double(os, n.value);
      os << '\n';
    }
  }
}

BoostedTreesRegressor load_boosted_trees(std::istream& is) {
  expect_magic(is, kBoostedMagic);
  BoostedTreesParams p;
  p.rounds = read_value<int>(is, "rounds");
  p.learning_rate = read_value<double>(is, "learning_rate");
  p.tree.max_depth = read_value<int>(is, "max_depth");
  p.tree.min_samples_leaf = read_value<std::size_t>(is, "min_samples_leaf");
  p.tree.min_samples_split = read_value<std::size_t>(is, "min_samples_split");
  p.subsample = read_value<double>(is, "subsample");
  p.seed = read_value<std::uint64_t>(is, "seed");
  const auto base = read_value<double>(is, "base prediction");
  const auto feature_count = read_value<std::size_t>(is, "feature count");
  const auto tree_count = read_value<std::size_t>(is, "tree count");
  if (feature_count == 0 || feature_count > 1'000'000) fail("implausible feature count");
  if (tree_count > 1'000'000) fail("implausible tree count");

  // Trees and nodes grow as they are read, so a file that claims more than
  // it holds allocates only what it holds.
  std::vector<RegressionTree> trees;
  for (std::size_t t = 0; t < tree_count; ++t) {
    const auto node_count = read_value<std::size_t>(is, "node count");
    if (node_count == 0 || node_count > 10'000'000) fail("implausible node count");
    std::vector<RegressionTree::ExportedNode> nodes;
    for (std::size_t i = 0; i < node_count; ++i) {
      RegressionTree::ExportedNode& n = nodes.emplace_back();
      n.feature = read_value<std::int32_t>(is, "feature");
      n.threshold = read_value<double>(is, "threshold");
      n.left = read_value<std::int32_t>(is, "left");
      n.right = read_value<std::int32_t>(is, "right");
      n.value = read_value<double>(is, "value");
    }
    try {
      trees.push_back(RegressionTree::from_nodes(p.tree, std::move(nodes), feature_count));
    } catch (const std::invalid_argument& e) {
      fail(e.what());
    }
  }
  return BoostedTreesRegressor::from_parts(p, base, std::move(trees));
}

}  // namespace hetopt::ml
