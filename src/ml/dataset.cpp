#include "ml/dataset.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace hetopt::ml {

Dataset::Dataset(std::vector<std::string> feature_names)
    : feature_names_(std::move(feature_names)) {
  if (feature_names_.empty()) {
    throw std::invalid_argument("Dataset: at least one feature required");
  }
}

void Dataset::add(std::span<const double> features, double target) {
  if (features.size() != feature_count()) {
    throw std::invalid_argument("Dataset::add: expected " + std::to_string(feature_count()) +
                                " features, got " + std::to_string(features.size()));
  }
  for (double f : features) {
    if (!std::isfinite(f)) throw std::invalid_argument("Dataset::add: non-finite feature");
  }
  if (!std::isfinite(target)) throw std::invalid_argument("Dataset::add: non-finite target");
  features_.insert(features_.end(), features.begin(), features.end());
  targets_.push_back(target);
}

std::span<const double> Dataset::row(std::size_t i) const {
  if (i >= size()) throw std::out_of_range("Dataset::row");
  return std::span<const double>(features_).subspan(i * feature_count(), feature_count());
}

std::pair<Dataset, Dataset> Dataset::split_half(std::uint64_t seed) const {
  return split_fraction(0.5, seed);
}

std::pair<Dataset, Dataset> Dataset::split_fraction(double train_fraction,
                                                    std::uint64_t seed) const {
  if (train_fraction <= 0.0 || train_fraction >= 1.0) {
    throw std::invalid_argument("split_fraction: fraction must be in (0,1)");
  }
  if (size() < 2) throw std::invalid_argument("split_fraction: need at least two rows");
  std::vector<std::size_t> order(size());
  std::iota(order.begin(), order.end(), 0);
  util::Xoshiro256 rng(seed);
  util::shuffle(order, rng);

  const auto train_count = static_cast<std::size_t>(
      std::llround(train_fraction * static_cast<double>(size())));
  const std::size_t clamped = std::min(std::max<std::size_t>(1, train_count), size() - 1);

  Dataset train(feature_names_);
  Dataset eval(feature_names_);
  for (std::size_t k = 0; k < order.size(); ++k) {
    (k < clamped ? train : eval).add(row(order[k]), target(order[k]));
  }
  return {std::move(train), std::move(eval)};
}

void Normalizer::fit(const Dataset& data) {
  if (data.empty()) throw std::invalid_argument("Normalizer::fit: empty dataset");
  const std::size_t k = data.feature_count();
  mins_.assign(k, 0.0);
  maxs_.assign(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    mins_[j] = maxs_[j] = data.row(0)[j];
  }
  for (std::size_t i = 1; i < data.size(); ++i) {
    const auto r = data.row(i);
    for (std::size_t j = 0; j < k; ++j) {
      mins_[j] = std::min(mins_[j], r[j]);
      maxs_[j] = std::max(maxs_[j], r[j]);
    }
  }
}

Dataset Normalizer::transform(const Dataset& data) const {
  if (!fitted()) throw std::logic_error("Normalizer: transform before fit");
  Dataset out(data.feature_names());
  std::vector<double> buf(data.feature_count());
  for (std::size_t i = 0; i < data.size(); ++i) {
    transform_row(data.row(i), buf);
    out.add(buf, data.target(i));
  }
  return out;
}

void Normalizer::transform_row(std::span<const double> in, std::span<double> out) const {
  if (!fitted()) throw std::logic_error("Normalizer: transform before fit");
  if (in.size() != mins_.size() || out.size() != mins_.size()) {
    throw std::invalid_argument("Normalizer: row size mismatch");
  }
  for (std::size_t j = 0; j < in.size(); ++j) {
    const double range = maxs_[j] - mins_[j];
    out[j] = range > 0.0 ? (in[j] - mins_[j]) / range : 0.0;
  }
}

}  // namespace hetopt::ml
