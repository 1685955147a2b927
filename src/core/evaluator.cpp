#include "core/evaluator.hpp"

#include <stdexcept>

#include "opt/objective.hpp"
#include "parallel/batch.hpp"
#include "parallel/thread_pool.hpp"

namespace hetopt::core {

double Evaluator::evaluate(const opt::SystemConfig& config, const Workload& workload) {
  const double e = opt::checked_energy(value(config, workload));
  ++evaluations_;
  return e;
}

std::vector<double> Evaluator::evaluate_batch(const std::vector<opt::SystemConfig>& configs,
                                              const Workload& workload,
                                              parallel::ThreadPool* pool) {
  parallel::ThreadPool* usable = (concurrent() && configs.size() > 1) ? pool : nullptr;
  std::vector<double> energies = value_batch(configs, workload, usable);
  for (const double e : energies) (void)opt::checked_energy(e);
  evaluations_ += configs.size();
  return energies;
}

std::vector<double> Evaluator::value_batch(const std::vector<opt::SystemConfig>& configs,
                                           const Workload& workload,
                                           parallel::ThreadPool* pool) const {
  return parallel::map_indexed(pool, configs.size(),
                               [&](std::size_t i) { return value(configs[i], workload); });
}

// --- MeasurementEvaluator ---------------------------------------------------

double MeasurementEvaluator::value(const opt::SystemConfig& c, const Workload& w) const {
  return machine_.measure_combined(w.size_mb, c.host_percent, c.host_threads, c.host_affinity,
                                   c.device_threads, c.device_affinity);
}

double MeasurementEvaluator::score(const opt::SystemConfig& c, const Workload& w) const {
  // Repetition 0 again: scoring re-reads the experiment the search logged,
  // so EM/SAM report exactly the energy their search saw.
  return value(c, w);
}

// --- PredictionEvaluator ----------------------------------------------------

PredictionEvaluator::PredictionEvaluator(const PerformancePredictor& predictor,
                                         sim::Machine machine)
    : predictor_(&predictor), machine_(std::move(machine)) {
  if (!predictor.trained()) {
    throw std::logic_error("PredictionEvaluator: predictor not trained");
  }
}

double PredictionEvaluator::value(const opt::SystemConfig& c, const Workload& w) const {
  return predictor_->predict_combined(c, w.size_mb);
}

std::vector<double> PredictionEvaluator::value_batch(const std::vector<opt::SystemConfig>& configs,
                                                     const Workload& w,
                                                     parallel::ThreadPool* pool) const {
  return predictor_->predict_combined(configs, w.size_mb, pool);
}

double PredictionEvaluator::score(const opt::SystemConfig& c, const Workload& w) const {
  return machine_.measure_combined(w.size_mb, c.host_percent, c.host_threads, c.host_affinity,
                                   c.device_threads, c.device_affinity);
}

// --- MultiDeviceMeasurementEvaluator ----------------------------------------

sim::ShareVector MultiDeviceMeasurementEvaluator::shares(const opt::SystemConfig& c,
                                                         const Workload& w) const {
  return machine_.distribute(w.size_mb, c.host_percent, c.host_threads, c.host_affinity,
                             c.device_threads, c.device_affinity);
}

double MultiDeviceMeasurementEvaluator::value(const opt::SystemConfig& c,
                                              const Workload& w) const {
  return shares(c, w).makespan_s;
}

double MultiDeviceMeasurementEvaluator::score(const opt::SystemConfig& c,
                                              const Workload& w) const {
  return value(c, w);
}

}  // namespace hetopt::core
