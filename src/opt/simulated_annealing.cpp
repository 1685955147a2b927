#include "opt/simulated_annealing.hpp"

#include <cmath>
#include <stdexcept>

namespace hetopt::opt {

double SaParams::cooling_rate_for(double initial_temperature, double min_temperature,
                                  std::size_t iterations) {
  if (initial_temperature <= min_temperature || min_temperature <= 0.0) {
    throw std::invalid_argument("cooling_rate_for: bad temperatures");
  }
  if (iterations == 0) throw std::invalid_argument("cooling_rate_for: zero iterations");
  // After n steps: T_min = T_0 * (1-r)^n  =>  r = 1 - (T_min/T_0)^(1/n).
  return 1.0 - std::pow(min_temperature / initial_temperature,
                        1.0 / static_cast<double>(iterations));
}

SaResult simulated_annealing(const ConfigSpace& space, const Objective& objective,
                             const SaParams& params) {
  if (!objective) throw std::invalid_argument("simulated_annealing: null objective");
  if (params.initial_temperature <= 0.0 || params.min_temperature <= 0.0 ||
      params.initial_temperature < params.min_temperature) {
    throw std::invalid_argument("simulated_annealing: bad temperature range");
  }
  if (params.cooling_rate <= 0.0 || params.cooling_rate >= 1.0) {
    throw std::invalid_argument("simulated_annealing: cooling rate out of (0,1)");
  }

  util::Xoshiro256 rng(params.seed);
  SaResult result;
  const auto energy = [&](const SystemConfig& c) {
    ++result.evaluations;
    return checked_energy(objective(c));
  };

  SystemConfig current = space.random(rng);
  double current_energy = energy(current);
  result.best = current;
  result.best_energy = current_energy;

  double temperature = params.initial_temperature;
  std::size_t iteration = 0;
  while (temperature > params.min_temperature &&
         (params.max_iterations == 0 || iteration < params.max_iterations)) {
    const SystemConfig candidate = space.neighbor(current, rng);
    const double candidate_energy = energy(candidate);

    bool accepted = false;
    bool accepted_worse = false;
    if (candidate_energy <= current_energy) {
      accepted = true;
    } else {
      const double p = std::exp((current_energy - candidate_energy) / temperature);
      if (rng.uniform() < p) {
        accepted = true;
        accepted_worse = true;
      }
    }
    if (accepted) {
      current = candidate;
      current_energy = candidate_energy;
      if (current_energy < result.best_energy) {
        result.best = current;
        result.best_energy = current_energy;
      }
      if (accepted_worse) ++result.accepted_worse;
    }

    ++iteration;
    result.trace.push_back(SaTracePoint{iteration, temperature, current_energy,
                                        result.best_energy, accepted, accepted_worse});
    temperature *= (1.0 - params.cooling_rate);
  }

  result.iterations = iteration;
  return result;
}

}  // namespace hetopt::opt
