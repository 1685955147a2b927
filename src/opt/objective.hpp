// Objective functions map a SystemConfig to an energy (the paper's Eq. 2:
// predicted or measured execution time, E = max(T_host, T_device)).
#pragma once

#include <functional>
#include <stdexcept>
#include <vector>

#include "opt/config.hpp"

namespace hetopt::opt {

using Objective = std::function<double(const SystemConfig&)>;

/// Batch form: evaluates many candidates at once, returning energies in input
/// order. Backends that can parallelize (a thread pool over the simulated
/// machine, a vectorized predictor) plug in here; strategies that produce
/// whole candidate sets (enumeration chunks, GA generations, random batches)
/// consume it.
using BatchObjective = std::function<std::vector<double>(const std::vector<SystemConfig>&)>;

/// Shared guard for every evaluation path (simulated annealing, the GA,
/// core::Evaluator): energies are times, so NaN and negatives are bugs.
inline double checked_energy(double e) {
  if (!(e == e) || e < 0.0) {  // NaN or negative time
    throw std::runtime_error("objective returned invalid energy");
  }
  return e;
}

}  // namespace hetopt::opt
