// TuningSession: the one way a search runs. Pick any opt::SearchStrategy,
// any core::Evaluator, a budget and a seed; run() searches, then re-scores
// the winner with a measurement (the §IV-C protocol). The paper's Table II
// methods (core/methods.hpp) are the four presets
//
//   EM   = ExhaustiveSearch x MeasurementEvaluator
//   EML  = ExhaustiveSearch x PredictionEvaluator
//   SAM  = AnnealingSearch  x MeasurementEvaluator
//   SAML = AnnealingSearch  x PredictionEvaluator
//
// and the §IV-D host-only/device-only baselines are EM presets over a
// one-sided sub-space. GeneticSearch, RandomSearch, HillClimbingSearch and
// the MultiDeviceMeasurementEvaluator (1 host + K accelerators) compose the
// same way.
//
//   core::TuningSession session(space);
//   session.with_strategy("genetic")
//          .with_evaluator(std::make_shared<core::MeasurementEvaluator>(machine))
//          .with_budget(1000)
//          .with_seed(42);
//   const core::SessionReport r = session.run(workload);
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/evaluator.hpp"
#include "opt/config_space.hpp"
#include "opt/strategy.hpp"

namespace hetopt::parallel {
class ThreadPool;
}

namespace hetopt::core {

enum class Method;  // core/methods.hpp

struct SessionReport {
  std::string strategy;         // strategy name ("exhaustive", "genetic", ...)
  std::string evaluator;        // evaluator name ("measurement", ...)
  opt::SystemConfig config;     // the suggested configuration
  double measured_time = 0.0;   // measured execution time of `config` (score)
  double search_energy = 0.0;   // energy the search itself saw (may be predicted)
  std::size_t evaluations = 0;  // experiments / predictions performed
};

class TuningSession {
 public:
  explicit TuningSession(opt::ConfigSpace space);

  TuningSession& with_strategy(std::shared_ptr<opt::SearchStrategy> strategy);
  /// A default-constructed built-in by name: "exhaustive", "random",
  /// "annealing" or "genetic". Throws std::invalid_argument for any other
  /// name; the message lists the four.
  TuningSession& with_strategy(std::string_view name);
  TuningSession& with_evaluator(std::shared_ptr<Evaluator> evaluator);
  TuningSession& with_budget(std::size_t max_evaluations);
  TuningSession& with_seed(std::uint64_t seed);
  /// Batched candidate evaluation runs on this pool (enumeration chunks and
  /// GA generations score concurrently; results are identical either way).
  TuningSession& with_thread_pool(std::shared_ptr<parallel::ThreadPool> pool);

  /// Searches, re-scores the winner by measurement, reports. Throws
  /// std::logic_error until both a strategy and an evaluator are set.
  [[nodiscard]] SessionReport run(const Workload& workload);

  [[nodiscard]] const opt::ConfigSpace& space() const noexcept { return space_; }
  [[nodiscard]] const opt::SearchStrategy* strategy() const noexcept { return strategy_.get(); }
  [[nodiscard]] const Evaluator* evaluator() const noexcept { return evaluator_.get(); }
  [[nodiscard]] const opt::SearchBudget& budget() const noexcept { return budget_; }

  /// The Table II methods as sessions (the enumerators are in
  /// core/methods.hpp). EML/SAML require a trained `predictor`;
  /// `sa_iterations` is the annealing budget (Fig. 9's x-axis).
  [[nodiscard]] static TuningSession preset(Method method, const sim::Machine& machine,
                                            opt::ConfigSpace space,
                                            const PerformancePredictor* predictor = nullptr,
                                            std::size_t sa_iterations = 1000,
                                            std::uint64_t seed = 0x7475ULL);

 private:
  opt::ConfigSpace space_;
  std::shared_ptr<opt::SearchStrategy> strategy_;
  std::shared_ptr<Evaluator> evaluator_;
  std::shared_ptr<parallel::ThreadPool> pool_;
  opt::SearchBudget budget_;
};

}  // namespace hetopt::core
