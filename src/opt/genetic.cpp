#include "opt/genetic.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace hetopt::opt {

namespace {

struct Individual {
  SystemConfig config;
  double energy = 0.0;
};

/// Per-axis uniform crossover: each axis comes from one parent chosen by a
/// fair coin. The extension axes (engine, schedule, device count) draw their
/// coin only when the parents differ, so on the paper's space, where they
/// never do, the random stream is that of the five Table I axes alone.
[[nodiscard]] SystemConfig crossover(const SystemConfig& a, const SystemConfig& b,
                                     util::Xoshiro256& rng) {
  const auto coin = [&rng](const auto& x, const auto& y) { return rng.bernoulli(0.5) ? x : y; };
  const auto coin_if_differ = [&coin](const auto& x, const auto& y) {
    return x == y ? x : coin(x, y);
  };
  SystemConfig child;
  child.host_threads = coin(a.host_threads, b.host_threads);
  child.host_affinity = coin(a.host_affinity, b.host_affinity);
  child.device_threads = coin(a.device_threads, b.device_threads);
  child.device_affinity = coin(a.device_affinity, b.device_affinity);
  child.host_percent = coin(a.host_percent, b.host_percent);
  child.engine = coin_if_differ(a.engine, b.engine);
  child.schedule = coin_if_differ(a.schedule, b.schedule);
  child.device_count = coin_if_differ(a.device_count, b.device_count);
  return child;
}

[[nodiscard]] const Individual& tournament_pick(const std::vector<Individual>& pop,
                                                std::size_t k, util::Xoshiro256& rng) {
  const Individual* best = &pop[rng.bounded(pop.size())];
  for (std::size_t i = 1; i < k; ++i) {
    const Individual& challenger = pop[rng.bounded(pop.size())];
    if (challenger.energy < best->energy) best = &challenger;
  }
  return *best;
}

}  // namespace

GaResult genetic_algorithm(const ConfigSpace& space, const BatchObjective& objective,
                           const GaParams& params) {
  if (!objective) throw std::invalid_argument("genetic_algorithm: null objective");
  if (params.population < 2) throw std::invalid_argument("genetic_algorithm: population < 2");
  if (params.tournament < 1) throw std::invalid_argument("genetic_algorithm: tournament < 1");
  if (params.elites >= params.population) {
    throw std::invalid_argument("genetic_algorithm: elites must be < population");
  }
  if (params.max_evaluations < params.population) {
    throw std::invalid_argument("genetic_algorithm: budget smaller than one population");
  }

  util::Xoshiro256 rng(params.seed);
  GaResult result;

  std::size_t evaluations = 0;
  const auto evaluate = [&](const std::vector<SystemConfig>& configs) {
    std::vector<double> energies = objective(configs);
    if (energies.size() != configs.size()) {
      throw std::runtime_error("genetic_algorithm: batch objective size mismatch");
    }
    for (double e : energies) (void)checked_energy(e);
    evaluations += energies.size();
    return energies;
  };

  std::vector<SystemConfig> candidates;
  candidates.reserve(params.population);
  for (std::size_t i = 0; i < params.population; ++i) candidates.push_back(space.random(rng));
  std::vector<double> energies = evaluate(candidates);

  std::vector<Individual> population;
  population.reserve(params.population);
  for (std::size_t i = 0; i < params.population; ++i) {
    population.push_back(Individual{candidates[i], energies[i]});
  }

  const auto by_energy = [](const Individual& a, const Individual& b) {
    return a.energy < b.energy;
  };
  std::sort(population.begin(), population.end(), by_energy);
  result.best = population.front().config;
  result.best_energy = population.front().energy;

  while (evaluations + (params.population - params.elites) <= params.max_evaluations) {
    candidates.clear();
    while (candidates.size() < params.population - params.elites) {
      const Individual& pa = tournament_pick(population, params.tournament, rng);
      const Individual& pb = tournament_pick(population, params.tournament, rng);
      SystemConfig child = rng.bernoulli(params.crossover_rate)
                               ? crossover(pa.config, pb.config, rng)
                               : pa.config;
      if (rng.bernoulli(params.mutation_rate)) child = space.neighbor(child, rng);
      candidates.push_back(child);
    }
    energies = evaluate(candidates);

    std::vector<Individual> next(population.begin(),
                                 population.begin() + static_cast<std::ptrdiff_t>(params.elites));
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      next.push_back(Individual{candidates[i], energies[i]});
    }
    population = std::move(next);
    std::sort(population.begin(), population.end(), by_energy);
    if (population.front().energy < result.best_energy) {
      result.best = population.front().config;
      result.best_energy = population.front().energy;
    }
    ++result.generations;
  }

  result.evaluations = evaluations;
  return result;
}

}  // namespace hetopt::opt
