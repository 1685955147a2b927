#include "core/tuning_session.hpp"

#include <stdexcept>
#include <utility>

#include "core/methods.hpp"
#include "parallel/thread_pool.hpp"

namespace hetopt::core {

TuningSession::TuningSession(opt::ConfigSpace space) : space_(std::move(space)) {}

TuningSession& TuningSession::with_strategy(std::shared_ptr<opt::SearchStrategy> strategy) {
  if (!strategy) throw std::invalid_argument("TuningSession: null strategy");
  strategy_ = std::move(strategy);
  return *this;
}

TuningSession& TuningSession::with_strategy(std::string_view name) {
  if (name == "annealing") return with_strategy(std::make_shared<opt::AnnealingSearch>());
  if (name == "exhaustive") return with_strategy(std::make_shared<opt::ExhaustiveSearch>());
  if (name == "genetic") return with_strategy(std::make_shared<opt::GeneticSearch>());
  if (name == "random") return with_strategy(std::make_shared<opt::RandomSearch>());
  throw std::invalid_argument("TuningSession: unknown strategy \"" + std::string(name) +
                              "\"; available: annealing exhaustive genetic random");
}

TuningSession& TuningSession::with_evaluator(std::shared_ptr<Evaluator> evaluator) {
  if (!evaluator) throw std::invalid_argument("TuningSession: null evaluator");
  evaluator_ = std::move(evaluator);
  return *this;
}

TuningSession& TuningSession::with_budget(std::size_t max_evaluations) {
  budget_.max_evaluations = max_evaluations;
  return *this;
}

TuningSession& TuningSession::with_seed(std::uint64_t seed) {
  budget_.seed = seed;
  return *this;
}

TuningSession& TuningSession::with_thread_pool(std::shared_ptr<parallel::ThreadPool> pool) {
  pool_ = std::move(pool);
  return *this;
}

SessionReport TuningSession::run(const Workload& workload) {
  if (!strategy_) throw std::logic_error("TuningSession: no strategy set");
  if (!evaluator_) throw std::logic_error("TuningSession: no evaluator set");

  evaluator_->reset_evaluations();
  const opt::SearchObjective objective(
      [this, &workload](const opt::SystemConfig& c) {
        return evaluator_->evaluate(c, workload);
      },
      [this, &workload](const std::vector<opt::SystemConfig>& cs) {
        return evaluator_->evaluate_batch(cs, workload, pool_.get());
      });
  const opt::SearchOutcome outcome = strategy_->search(space_, objective, budget_);

  SessionReport report;
  report.strategy = std::string(strategy_->name());
  report.evaluator = std::string(evaluator_->name());
  report.config = outcome.best;
  report.search_energy = outcome.best_energy;
  // §IV-C: whatever the search optimized, the winner is scored by a
  // measurement (not counted as a search evaluation).
  report.measured_time = evaluator_->score(outcome.best, workload);
  report.evaluations = evaluator_->evaluations();
  return report;
}

TuningSession TuningSession::preset(Method method, const sim::Machine& machine,
                                    opt::ConfigSpace space,
                                    const PerformancePredictor* predictor,
                                    std::size_t sa_iterations, std::uint64_t seed) {
  TuningSession session(std::move(space));
  session.with_seed(seed);

  switch (method) {
    case Method::kEM:
    case Method::kEML:
      session.with_strategy(std::make_shared<opt::ExhaustiveSearch>());
      session.with_budget(session.space().size());
      break;
    case Method::kSAM:
    case Method::kSAML:
      session.with_strategy(std::make_shared<opt::AnnealingSearch>(
          opt::AnnealingSearch::schedule(sa_iterations, seed)));
      session.with_budget(sa_iterations + 1);
      break;
  }

  switch (method) {
    case Method::kEM:
    case Method::kSAM:
      session.with_evaluator(std::make_shared<MeasurementEvaluator>(machine));
      break;
    case Method::kEML:
    case Method::kSAML: {
      if (predictor == nullptr) {
        throw std::logic_error("TuningSession: " + std::string(to_string(method)) +
                               " preset requires a trained predictor");
      }
      session.with_evaluator(std::make_shared<PredictionEvaluator>(*predictor, machine));
      break;
    }
  }
  if (session.strategy() == nullptr || session.evaluator() == nullptr) {
    // Out-of-range Method values fall through both switches.
    throw std::logic_error("TuningSession: unknown method");
  }
  return session;
}

}  // namespace hetopt::core
