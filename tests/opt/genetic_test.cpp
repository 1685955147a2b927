#include "opt/genetic.hpp"

#include <gtest/gtest.h>

#include "opt/strategy.hpp"

namespace hetopt::opt {
namespace {

double bowl(const SystemConfig& c) {
  const double f = c.host_percent - 50.0;
  const double t = c.host_threads - 8.0;
  return 1.0 + f * f / 200.0 + t * t / 20.0 +
         (c.device_affinity == parallel::DeviceAffinity::kBalanced ? 0.0 : 0.2);
}

/// Scores a batch one candidate at a time.
BatchObjective batched(Objective single) {
  return [single = std::move(single)](const std::vector<SystemConfig>& cs) {
    std::vector<double> energies;
    energies.reserve(cs.size());
    for (const SystemConfig& c : cs) energies.push_back(single(c));
    return energies;
  };
}

TEST(GeneticAlgorithm, FindsOptimumOfTinySpace) {
  const ConfigSpace space = ConfigSpace::tiny();
  const SearchOutcome em = ExhaustiveSearch().search(space, SearchObjective(bowl), {});
  GaParams params;
  params.population = 16;
  params.max_evaluations = 600;
  params.seed = 5;
  const GaResult ga = genetic_algorithm(space, batched(bowl), params);
  EXPECT_DOUBLE_EQ(ga.best_energy, em.best_energy);
}

TEST(GeneticAlgorithm, RespectsEvaluationBudget) {
  const ConfigSpace space = ConfigSpace::paper();
  std::size_t calls = 0;
  const Objective counting = [&](const SystemConfig& c) {
    ++calls;
    return bowl(c);
  };
  GaParams params;
  params.max_evaluations = 500;
  const GaResult ga = genetic_algorithm(space, batched(counting), params);
  EXPECT_LE(calls, 500u);
  EXPECT_EQ(ga.evaluations, calls);
  EXPECT_GT(ga.generations, 0u);
}

TEST(GeneticAlgorithm, DeterministicInSeed) {
  const ConfigSpace space = ConfigSpace::paper();
  GaParams params;
  params.seed = 11;
  params.max_evaluations = 400;
  const GaResult a = genetic_algorithm(space, batched(bowl), params);
  const GaResult b = genetic_algorithm(space, batched(bowl), params);
  EXPECT_EQ(a.best, b.best);
  EXPECT_DOUBLE_EQ(a.best_energy, b.best_energy);
}

TEST(GeneticAlgorithm, ElitismNeverLosesTheBest) {
  const ConfigSpace space = ConfigSpace::paper();
  // Track the best energy ever evaluated; GA's reported best must equal it.
  double best_seen = 1e300;
  const Objective tracking = [&](const SystemConfig& c) {
    const double e = bowl(c);
    best_seen = std::min(best_seen, e);
    return e;
  };
  GaParams params;
  params.max_evaluations = 800;
  params.seed = 13;
  const GaResult ga = genetic_algorithm(space, batched(tracking), params);
  EXPECT_DOUBLE_EQ(ga.best_energy, best_seen);
}

TEST(GeneticAlgorithm, OffspringStayInsideTheSpace) {
  // The two extended spaces leave out the SystemConfig default of one
  // extension axis, so children must take those axes from a parent too.
  const ConfigSpace paper = ConfigSpace::paper();
  for (const ConfigSpace& space :
       {paper,
        paper.with_schedules({parallel::SchedulePolicy::kDynamic,
                              parallel::SchedulePolicy::kGuided}),
        paper.with_device_counts({2, 4})}) {
    const Objective checking = [&](const SystemConfig& c) {
      EXPECT_TRUE(space.contains(c)) << to_string(c);
      return bowl(c);
    };
    GaParams params;
    params.max_evaluations = 600;
    params.mutation_rate = 1.0;  // exercise mutation heavily
    const GaResult ga = genetic_algorithm(space, batched(checking), params);
    EXPECT_TRUE(space.contains(ga.best));
  }
}

TEST(GeneticAlgorithm, ParameterValidation) {
  const ConfigSpace space = ConfigSpace::tiny();
  GaParams bad;
  bad.population = 1;
  EXPECT_THROW((void)genetic_algorithm(space, batched(bowl), bad), std::invalid_argument);
  bad = {};
  bad.elites = bad.population;
  EXPECT_THROW((void)genetic_algorithm(space, batched(bowl), bad), std::invalid_argument);
  bad = {};
  bad.max_evaluations = bad.population - 1;
  EXPECT_THROW((void)genetic_algorithm(space, batched(bowl), bad), std::invalid_argument);
  bad = {};
  bad.tournament = 0;
  EXPECT_THROW((void)genetic_algorithm(space, batched(bowl), bad), std::invalid_argument);
  EXPECT_THROW((void)genetic_algorithm(space, BatchObjective{}, GaParams{}),
               std::invalid_argument);
}

TEST(GeneticAlgorithm, LargerBudgetNotWorseOnAverage) {
  const ConfigSpace space = ConfigSpace::paper();
  double small_sum = 0.0;
  double large_sum = 0.0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    GaParams p_small;
    p_small.max_evaluations = 200;
    p_small.seed = seed;
    GaParams p_large = p_small;
    p_large.max_evaluations = 1200;
    small_sum += genetic_algorithm(space, batched(bowl), p_small).best_energy;
    large_sum += genetic_algorithm(space, batched(bowl), p_large).best_energy;
  }
  EXPECT_LE(large_sum, small_sum + 1e-9);
}

}  // namespace
}  // namespace hetopt::opt
