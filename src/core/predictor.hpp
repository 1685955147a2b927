// The paper's Fig. 4 pipeline: normalize -> train Boosted Decision Tree
// Regression -> predict unseen configurations. One model per environment
// (host, device); the combined estimate is Eq. 2, max of the two sides.
//
// Training min-max normalizes each side's features (Fig. 4's "Normalize
// Data" stage) and fits in log-time space. Execution times span two orders
// of magnitude (0.02 s .. 42 s); least-squares boosting on raw seconds
// spends all its capacity on the slow corner, while log targets make
// residuals relative, which is what the paper's percent-error metric
// rewards.
//
// Prediction cost: a side prediction encodes, normalizes and walks its row
// in fixed-size stack buffers and allocates nothing. A side's time depends
// only on its own feature row, so the batch form of predict_combined
// predicts each distinct host row and device row of its batch once, walking
// the ensemble tree by tree over them: an EML over the paper space in
// 256-candidate batches makes 3,191 walks instead of 39,852. Both forms run
// the same share math and the same combine step, so they return the same
// bits.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/features.hpp"
#include "core/workload.hpp"
#include "ml/boosted_trees.hpp"
#include "ml/dataset.hpp"
#include "opt/config.hpp"

namespace hetopt::parallel {
class ThreadPool;
}

namespace hetopt::core {

class PerformancePredictor {
 public:
  /// Both environment models boost with `params`.
  explicit PerformancePredictor(ml::BoostedTreesParams params = default_params());

  /// 300 rounds at rate 0.08 of depth-6 trees (3-row leaves, 6-row splits).
  [[nodiscard]] static ml::BoostedTreesParams default_params();

  /// Trains both environment models. Datasets must use the feature layout of
  /// core/features.hpp.
  void train(const ml::Dataset& host_data, const ml::Dataset& device_data);
  [[nodiscard]] bool trained() const noexcept { return trained_; }

  /// One environment's predicted time for `size_mb` megabytes. A size <= 0
  /// predicts 0; a NaN size throws std::invalid_argument, like every
  /// argument write_host_features/write_device_features reject.
  [[nodiscard]] double predict_host(
      double size_mb, int threads, parallel::HostAffinity affinity,
      automata::EngineKind engine = automata::EngineKind::kCompiledDfa,
      parallel::SchedulePolicy schedule = parallel::SchedulePolicy::kStatic,
      int pool_count = 2, double pool_share_percent = 100.0) const;
  [[nodiscard]] double predict_device(
      double size_mb, int threads, parallel::DeviceAffinity affinity,
      automata::EngineKind engine = automata::EngineKind::kCompiledDfa,
      parallel::SchedulePolicy schedule = parallel::SchedulePolicy::kStatic,
      int pool_count = 2, double pool_share_percent = 100.0) const;

  /// Eq. 2 over a configuration: split the workload by the configured
  /// fraction and take the slower side. Zero-byte sides predict 0. With
  /// device_count K > 1 the device fraction is shared equally by K identical
  /// device pools (the water-filled split of sim::MultiDeviceMachine), so
  /// static predicts max(host, one device's 1/K share) and the shared-queue
  /// schedules combine one host rate with K device rates. Throws
  /// std::invalid_argument on a non-positive or NaN total, device_count < 1
  /// or a host_percent outside [0, 100] (NaN included).
  [[nodiscard]] double predict_combined(const opt::SystemConfig& config,
                                        double total_mb) const;

  /// Batch form: element i is predict_combined(configs[i], total_mb), bit
  /// for bit, and it throws what that call throws. Each distinct host row
  /// and device row is predicted once per call; with a pool the distinct
  /// rows are predicted on it. Nothing is kept between calls.
  [[nodiscard]] std::vector<double> predict_combined(std::span<const opt::SystemConfig> configs,
                                                     double total_mb,
                                                     parallel::ThreadPool* pool = nullptr) const;

  [[nodiscard]] const ml::BoostedTreesRegressor& host_model() const { return host_model_; }
  [[nodiscard]] const ml::BoostedTreesRegressor& device_model() const {
    return device_model_;
  }

 private:
  enum class Side { kHost, kDevice };
  /// One side's times for raw (unnormalized) feature rows: normalizes them
  /// into `scaled` (raw.size() * kFeatureCount doubles) and walks the model
  /// over all of them. Allocates nothing.
  void predict_rows(Side side, std::span<const FeatureRow> raw, std::span<double> scaled,
                    std::span<double> out) const;
  /// predict_rows() over one row, in stack buffers.
  [[nodiscard]] double predict_row(Side side, const FeatureRow& raw) const;
  void require_trained() const;

  ml::Normalizer host_norm_;
  ml::Normalizer device_norm_;
  ml::BoostedTreesRegressor host_model_;
  ml::BoostedTreesRegressor device_model_;
  bool trained_ = false;
};

}  // namespace hetopt::core
