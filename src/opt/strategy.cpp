#include "opt/strategy.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace hetopt::opt {

namespace {

// Candidates per objective call for the batch consumers: enough to keep a
// pool busy, small enough to keep the candidate list cheap.
constexpr std::size_t kBatchSize = 256;

}  // namespace

SearchObjective::SearchObjective(Objective single, BatchObjective batch)
    : single_(std::move(single)), batch_(std::move(batch)) {
  if (!single_) throw std::invalid_argument("SearchObjective: null objective");
}

std::vector<double> SearchObjective::evaluate(const std::vector<SystemConfig>& configs) const {
  if (batch_) {
    std::vector<double> energies = batch_(configs);
    if (energies.size() != configs.size()) {
      throw std::runtime_error("SearchObjective: batch objective size mismatch");
    }
    return energies;
  }
  std::vector<double> energies;
  energies.reserve(configs.size());
  for (const SystemConfig& c : configs) energies.push_back(single_(c));
  return energies;
}

SearchOutcome ExhaustiveSearch::search(const ConfigSpace& space,
                                       const SearchObjective& objective,
                                       const SearchBudget& /*budget*/) const {
  SearchOutcome outcome;
  std::vector<SystemConfig> batch;
  batch.reserve(std::min(space.size(), kBatchSize));
  for (std::size_t begin = 0; begin < space.size(); begin += kBatchSize) {
    const std::size_t end = std::min(space.size(), begin + kBatchSize);
    batch.clear();
    for (std::size_t i = begin; i < end; ++i) batch.push_back(space.at(i));
    const std::vector<double> energies = objective.evaluate(batch);
    for (std::size_t j = 0; j < batch.size(); ++j, ++outcome.evaluations) {
      // Strict < keeps the lowest flat index on ties.
      if (outcome.evaluations == 0 || energies[j] < outcome.best_energy) {
        outcome.best = batch[j];
        outcome.best_energy = energies[j];
      }
    }
  }
  return outcome;
}

SearchOutcome RandomSearch::search(const ConfigSpace& space, const SearchObjective& objective,
                                   const SearchBudget& budget) const {
  const std::size_t samples = budget.max_evaluations != 0
                                  ? budget.max_evaluations
                                  : std::min<std::size_t>(space.size(), 1000);
  util::Xoshiro256 rng(budget.seed);

  SearchOutcome outcome;
  std::vector<SystemConfig> batch;
  batch.reserve(std::min(samples, kBatchSize));
  while (outcome.evaluations < samples) {
    const std::size_t n = std::min(kBatchSize, samples - outcome.evaluations);
    batch.clear();
    for (std::size_t i = 0; i < n; ++i) batch.push_back(space.random(rng));
    const std::vector<double> energies = objective.evaluate(batch);
    for (std::size_t i = 0; i < n; ++i, ++outcome.evaluations) {
      if (outcome.evaluations == 0 || energies[i] < outcome.best_energy) {
        outcome.best = batch[i];
        outcome.best_energy = energies[i];
      }
    }
  }
  return outcome;
}

SearchOutcome HillClimbingSearch::search(const ConfigSpace& space,
                                         const SearchObjective& objective,
                                         const SearchBudget& budget) const {
  constexpr std::size_t kPatience = 25;  // failed moves before a restart
  const std::size_t evals = budget.max_evaluations != 0 ? budget.max_evaluations : 1000;
  util::Xoshiro256 rng(budget.seed);

  SearchOutcome outcome;
  SystemConfig current = space.random(rng);
  double current_energy = objective(current);
  outcome.evaluations = 1;
  outcome.best = current;
  outcome.best_energy = current_energy;
  std::size_t failures = 0;

  while (outcome.evaluations < evals) {
    const bool restart = failures >= kPatience;
    const SystemConfig candidate = restart ? space.random(rng) : space.neighbor(current, rng);
    const double e = objective(candidate);
    ++outcome.evaluations;
    if (restart || e < current_energy) {
      current = candidate;
      current_energy = e;
      failures = 0;
    } else {
      ++failures;
    }
    if (e < outcome.best_energy) {
      outcome.best = candidate;
      outcome.best_energy = e;
    }
  }
  return outcome;
}

SaParams AnnealingSearch::schedule(std::size_t iterations, std::uint64_t seed) {
  SaParams p;
  p.initial_temperature = 2.0;
  p.min_temperature = 1e-3;
  p.cooling_rate =
      SaParams::cooling_rate_for(p.initial_temperature, p.min_temperature, iterations);
  p.max_iterations = iterations;
  p.seed = seed;
  return p;
}

SearchOutcome AnnealingSearch::search(const ConfigSpace& space, const SearchObjective& objective,
                                      const SearchBudget& budget) const {
  SaParams params;
  if (params_) {
    params = *params_;
  } else {
    // Initial evaluation + one per iteration must fit the budget; 0 means
    // the strategy default (the paper's ~1000-iteration schedule).
    const std::size_t evals = budget.max_evaluations != 0 ? budget.max_evaluations : 1000;
    if (evals < 2) {
      throw std::invalid_argument(
          "AnnealingSearch: budget must allow at least 2 evaluations (initial + 1 move)");
    }
    params = schedule(evals - 1, budget.seed);
  }
  const SaResult res = simulated_annealing(space, objective.single(), params);
  return SearchOutcome{res.best, res.best_energy, res.evaluations};
}

SearchOutcome GeneticSearch::search(const ConfigSpace& space, const SearchObjective& objective,
                                    const SearchBudget& budget) const {
  GaParams params;
  if (params_) {
    params = *params_;
  } else {
    params.seed = budget.seed;
    if (budget.max_evaluations != 0) params.max_evaluations = budget.max_evaluations;
  }
  if (params.max_evaluations < 2) {
    throw std::invalid_argument("GeneticSearch: budget must allow a population of at least 2");
  }
  if (params.population > params.max_evaluations) {
    params.population = params.max_evaluations;
  }
  if (params.elites >= params.population) params.elites = params.population - 1;
  if (params.tournament < 1) params.tournament = 1;

  const GaResult res = genetic_algorithm(
      space, [&objective](const std::vector<SystemConfig>& cs) { return objective.evaluate(cs); },
      params);
  return SearchOutcome{res.best, res.best_energy, res.evaluations};
}

}  // namespace hetopt::opt
