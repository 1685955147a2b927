// Tabular dataset for the performance-prediction models: one row per
// executed experiment, features describing the system configuration, target
// = measured execution time in seconds.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace hetopt::ml {

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::vector<std::string> feature_names);

  /// Appends a row; `features.size()` must equal feature_count().
  /// Rejects non-finite features/targets (failure injection guard).
  void add(std::span<const double> features, double target);

  [[nodiscard]] std::size_t size() const noexcept { return targets_.size(); }
  [[nodiscard]] bool empty() const noexcept { return targets_.empty(); }
  [[nodiscard]] std::size_t feature_count() const noexcept { return feature_names_.size(); }
  [[nodiscard]] const std::vector<std::string>& feature_names() const noexcept {
    return feature_names_;
  }

  [[nodiscard]] std::span<const double> row(std::size_t i) const;
  [[nodiscard]] double target(std::size_t i) const { return targets_.at(i); }
  [[nodiscard]] const std::vector<double>& targets() const noexcept { return targets_; }

  /// The paper's validation protocol: "half of the experiments to train and
  /// the other half to evaluate". Rows are assigned alternately after a
  /// seeded shuffle, so both halves cover the whole configuration range.
  [[nodiscard]] std::pair<Dataset, Dataset> split_half(std::uint64_t seed) const;

  /// Random split with the given training fraction in (0,1).
  [[nodiscard]] std::pair<Dataset, Dataset> split_fraction(double train_fraction,
                                                           std::uint64_t seed) const;

 private:
  std::vector<std::string> feature_names_;
  std::vector<double> features_;  // row-major, size() * feature_count()
  std::vector<double> targets_;
};

/// Per-feature min-max normalizer (the "Normalize Data" stage of the paper's
/// Fig. 4 pipeline). Constant features map to 0.
class Normalizer {
 public:
  /// Learns per-feature ranges; throws on an empty dataset.
  void fit(const Dataset& data);
  [[nodiscard]] bool fitted() const noexcept { return !mins_.empty(); }

  /// Returns a normalized copy of the dataset (targets unchanged).
  [[nodiscard]] Dataset transform(const Dataset& data) const;
  /// Normalizes a single query row into `out` (sizes must match fit).
  void transform_row(std::span<const double> in, std::span<double> out) const;

 private:
  std::vector<double> mins_;
  std::vector<double> maxs_;
};

}  // namespace hetopt::ml
