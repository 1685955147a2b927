// Genetic algorithm over the configuration space — the other metaheuristic
// family the paper's §III-A cites (Press et al.: GA, ACO, SA, ...) before
// settling on simulated annealing. Kept here as a first-class ablation
// baseline so that choice can be quantified (bench/ablation_search).
//
// Standard generational GA: tournament selection, per-axis uniform
// crossover, neighbourhood mutation, elitism. The evaluation budget (number
// of objective calls) is the comparison currency, as everywhere else. Runs
// go through opt::GeneticSearch (opt/strategy.hpp) and core::TuningSession.
#pragma once

#include <cstdint>

#include "opt/config.hpp"
#include "opt/config_space.hpp"
#include "opt/objective.hpp"

namespace hetopt::opt {

struct GaParams {
  std::size_t population = 32;
  std::size_t tournament = 3;      // tournament size for parent selection
  double crossover_rate = 0.9;     // probability of crossover vs cloning
  double mutation_rate = 0.25;     // per-child probability of a neighbour move
  std::size_t elites = 2;          // unconditionally surviving top individuals
  std::size_t max_evaluations = 1000;
  std::uint64_t seed = 0x6A6AULL;
};

struct GaResult {
  SystemConfig best;
  double best_energy = 0.0;
  std::size_t generations = 0;
  std::size_t evaluations = 0;
};

/// Each generation's offspring are produced first (evaluation never draws
/// from the RNG) and then evaluated in one batch-objective call, so a
/// concurrent backend can score a whole population in parallel.
[[nodiscard]] GaResult genetic_algorithm(const ConfigSpace& space,
                                         const BatchObjective& objective,
                                         const GaParams& params = {});

}  // namespace hetopt::opt
