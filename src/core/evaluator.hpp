// Pluggable evaluation backends. A SearchStrategy asks "how long does this
// configuration take?"; an Evaluator answers it — by simulated measurement
// (the paper's EM/SAM protocol), by ML prediction (EML/SAML, Fig. 4), or by
// the multi-device water-filling makespan (the paper's "one to eight
// accelerators" future-work platform). The search axis and the evaluation
// axis are orthogonal; core::TuningSession composes one of each.
//
// Evaluators count their evaluations (the paper's "number of experiments")
// and separately provide score(): the measured execution time of the winning
// configuration, which is how every method is ranked regardless of what the
// search optimized ("for fair comparison we use the measured values", §IV-C).
//
// A backend answers through two protected hooks: value() for one candidate
// and value_batch() for a batch. evaluate() and evaluate_batch() wrap them
// with the energy check and the evaluation count, so a backend that prices
// a batch its own way (PredictionEvaluator walks each distinct side row
// once) is checked and counted like every other.
#pragma once

#include <cstddef>
#include <string_view>
#include <utility>
#include <vector>

#include "core/predictor.hpp"
#include "core/workload.hpp"
#include "opt/config.hpp"
#include "sim/machine.hpp"
#include "sim/multi.hpp"

namespace hetopt::parallel {
class ThreadPool;
}

namespace hetopt::core {

class Evaluator {
 public:
  virtual ~Evaluator() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Energy of one candidate; counts one evaluation. Throws
  /// std::runtime_error when the backend produces a NaN or negative time.
  double evaluate(const opt::SystemConfig& config, const Workload& workload);

  /// Batch counterpart, energies in input order, each checked like
  /// evaluate()'s; counts configs.size() evaluations. Hands value_batch()
  /// `pool` when one is provided, the backend is safe to query concurrently,
  /// and the batch holds more than one candidate.
  std::vector<double> evaluate_batch(const std::vector<opt::SystemConfig>& configs,
                                     const Workload& workload,
                                     parallel::ThreadPool* pool = nullptr);

  /// Measured execution time of a (winning) configuration — the §IV-C
  /// scoring step. Never counted as a search evaluation. For *deterministic*
  /// measurement backends (the simulated evaluators) this returns exactly
  /// the value the search saw; RealWorkloadEvaluator in wall-clock mode runs
  /// a fresh measurement instead, so its score carries real noise.
  [[nodiscard]] virtual double score(const opt::SystemConfig& config,
                                     const Workload& workload) const = 0;

  [[nodiscard]] std::size_t evaluations() const noexcept { return evaluations_; }
  void reset_evaluations() noexcept { evaluations_ = 0; }

 protected:
  /// The backend query. Must be pure and thread-safe when concurrent() is
  /// true (the batch path may call it from pool workers).
  [[nodiscard]] virtual double value(const opt::SystemConfig& config,
                                     const Workload& workload) const = 0;
  /// The backend query for a batch, values in input order and unchecked;
  /// `pool` is null unless concurrent(). The default calls value() per
  /// config, on the pool when there is one. An override must return what
  /// value() returns for each config and throw what it throws.
  [[nodiscard]] virtual std::vector<double> value_batch(
      const std::vector<opt::SystemConfig>& configs, const Workload& workload,
      parallel::ThreadPool* pool) const;
  [[nodiscard]] virtual bool concurrent() const noexcept { return true; }

 private:
  std::size_t evaluations_ = 0;
};

/// Simulated measurement on a single host + device machine (the enumeration
/// protocol: repetition 0, one experiment per configuration, so repeated
/// queries of a configuration return the same draw). The machine is stored
/// by value (it is a cheap spec), so temporaries are safe to pass.
class MeasurementEvaluator final : public Evaluator {
 public:
  explicit MeasurementEvaluator(sim::Machine machine) : machine_(std::move(machine)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "measurement"; }
  [[nodiscard]] double score(const opt::SystemConfig& config,
                             const Workload& workload) const override;

 protected:
  [[nodiscard]] double value(const opt::SystemConfig& config,
                             const Workload& workload) const override;

 private:
  sim::Machine machine_;
};

/// Boosted-trees prediction (Fig. 4). The machine is only used by score():
/// the search itself never runs an experiment, which is the entire point of
/// the ML-based methods. Throws std::logic_error when the predictor is not
/// trained. The predictor is held by reference (trained ensembles are big
/// and long-lived) and must outlive the evaluator; the machine is copied.
/// A batch goes to the predictor's batch form, which predicts each distinct
/// host and device row of the batch once and returns the single form's bits.
class PredictionEvaluator final : public Evaluator {
 public:
  PredictionEvaluator(const PerformancePredictor& predictor, sim::Machine machine);

  [[nodiscard]] std::string_view name() const noexcept override { return "prediction"; }
  [[nodiscard]] double score(const opt::SystemConfig& config,
                             const Workload& workload) const override;

 protected:
  [[nodiscard]] double value(const opt::SystemConfig& config,
                             const Workload& workload) const override;
  [[nodiscard]] std::vector<double> value_batch(const std::vector<opt::SystemConfig>& configs,
                                                const Workload& workload,
                                                parallel::ThreadPool* pool) const override;

 private:
  const PerformancePredictor* predictor_;
  sim::Machine machine_;
};

/// Noiseless makespan of a 1-host + K-device node: the host keeps the
/// configuration's fraction, the device remainder is water-filled across the
/// devices running with the configuration's (uniform) device threading. With
/// zero devices the host takes everything. The node is stored by value.
class MultiDeviceMeasurementEvaluator final : public Evaluator {
 public:
  explicit MultiDeviceMeasurementEvaluator(sim::MultiDeviceMachine machine)
      : machine_(std::move(machine)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "multi-device"; }
  [[nodiscard]] double score(const opt::SystemConfig& config,
                             const Workload& workload) const override;

  /// The share vector behind a configuration's makespan, for reporting.
  [[nodiscard]] sim::ShareVector shares(const opt::SystemConfig& config,
                                        const Workload& workload) const;

  [[nodiscard]] const sim::MultiDeviceMachine& machine() const noexcept { return machine_; }

 protected:
  [[nodiscard]] double value(const opt::SystemConfig& config,
                             const Workload& workload) const override;

 private:
  sim::MultiDeviceMachine machine_;
};

}  // namespace hetopt::core
