#include "opt/simulated_annealing.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "opt/strategy.hpp"

namespace hetopt::opt {
namespace {

/// A smooth synthetic objective with a unique optimum inside the tiny space.
double bowl(const SystemConfig& c) {
  const double f = c.host_percent - 50.0;
  const double t = c.host_threads - 8.0;
  const double d = c.device_threads - 60.0;
  return 1.0 + f * f / 100.0 + t * t / 10.0 + d * d / 100.0 +
         (c.host_affinity == parallel::HostAffinity::kScatter ? 0.0 : 0.3) +
         (c.device_affinity == parallel::DeviceAffinity::kBalanced ? 0.0 : 0.3);
}

TEST(CoolingRate, ProducesRequestedIterationCount) {
  const double rate = SaParams::cooling_rate_for(2.0, 1e-3, 1000);
  // (1-rate)^1000 * 2.0 should land just at 1e-3.
  EXPECT_NEAR(2.0 * std::pow(1.0 - rate, 1000.0), 1e-3, 1e-6);
  EXPECT_THROW((void)SaParams::cooling_rate_for(1.0, 2.0, 100), std::invalid_argument);
  EXPECT_THROW((void)SaParams::cooling_rate_for(2.0, 1e-3, 0), std::invalid_argument);
}

TEST(SimulatedAnnealingTest, FindsOptimumOfTinySpace) {
  const ConfigSpace space = ConfigSpace::tiny();
  const SearchOutcome em = ExhaustiveSearch().search(space, SearchObjective(bowl), {});
  SaParams params;
  params.cooling_rate = SaParams::cooling_rate_for(2.0, 1e-3, 2000);
  params.seed = 123;
  const SaResult sa = simulated_annealing(space, bowl, params);
  EXPECT_NEAR(sa.best_energy, em.best_energy, 1e-12);
  EXPECT_EQ(sa.best, em.best);
}

TEST(SimulatedAnnealingTest, DeterministicInSeed) {
  const ConfigSpace space = ConfigSpace::tiny();
  SaParams params;
  params.seed = 7;
  const SaResult a = simulated_annealing(space, bowl, params);
  const SaResult b = simulated_annealing(space, bowl, params);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.accepted_worse, b.accepted_worse);
}

TEST(SimulatedAnnealingTest, IterationCapRespected) {
  const ConfigSpace space = ConfigSpace::tiny();
  SaParams params;
  params.max_iterations = 50;
  const SaResult r = simulated_annealing(space, bowl, params);
  EXPECT_EQ(r.iterations, 50u);
  EXPECT_EQ(r.trace.size(), 50u);
  // One evaluation for the initial solution plus one per iteration.
  EXPECT_EQ(r.evaluations, 51u);
}

TEST(SimulatedAnnealingTest, BestTraceIsMonotoneNonIncreasing) {
  const ConfigSpace space = ConfigSpace::tiny();
  SaParams params;
  params.seed = 11;
  const SaResult r = simulated_annealing(space, bowl, params);
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_LE(r.trace[i].best_energy, r.trace[i - 1].best_energy);
  }
  EXPECT_DOUBLE_EQ(r.trace.back().best_energy, r.best_energy);
}

TEST(SimulatedAnnealingTest, TemperatureFollowsGeometricSchedule) {
  const ConfigSpace space = ConfigSpace::tiny();
  SaParams params;
  params.initial_temperature = 4.0;
  params.cooling_rate = 0.1;
  params.max_iterations = 10;
  const SaResult r = simulated_annealing(space, bowl, params);
  ASSERT_GE(r.trace.size(), 3u);
  EXPECT_DOUBLE_EQ(r.trace[0].temperature, 4.0);
  EXPECT_NEAR(r.trace[1].temperature, 4.0 * 0.9, 1e-12);
  EXPECT_NEAR(r.trace[2].temperature, 4.0 * 0.81, 1e-12);
}

TEST(SimulatedAnnealingTest, AcceptsWorseMovesAtHighTemperature) {
  // With a high temperature and a rugged objective, uphill moves must occur
  // (the paper's key local-optimum escape property).
  const ConfigSpace space = ConfigSpace::tiny();
  SaParams params;
  params.initial_temperature = 100.0;
  params.min_temperature = 50.0;
  params.cooling_rate = 0.001;
  params.max_iterations = 500;
  params.seed = 13;
  const SaResult r = simulated_annealing(space, bowl, params);
  EXPECT_GT(r.accepted_worse, 0u);
}

TEST(SimulatedAnnealingTest, RarelyAcceptsWorseAtLowTemperature) {
  const ConfigSpace space = ConfigSpace::tiny();
  SaParams params;
  params.initial_temperature = 1e-6;
  params.min_temperature = 1e-9;
  params.cooling_rate = 0.01;
  params.max_iterations = 500;
  params.seed = 13;
  const SaResult r = simulated_annealing(space, bowl, params);
  EXPECT_EQ(r.accepted_worse, 0u);
}

TEST(SimulatedAnnealingTest, ParameterValidation) {
  const ConfigSpace space = ConfigSpace::tiny();
  SaParams bad;
  bad.initial_temperature = -1.0;
  EXPECT_THROW((void)simulated_annealing(space, bowl, bad), std::invalid_argument);
  bad = {};
  bad.cooling_rate = 0.0;
  EXPECT_THROW((void)simulated_annealing(space, bowl, bad), std::invalid_argument);
  bad = {};
  bad.cooling_rate = 1.0;
  EXPECT_THROW((void)simulated_annealing(space, bowl, bad), std::invalid_argument);
  EXPECT_THROW((void)simulated_annealing(space, Objective{}, SaParams{}),
               std::invalid_argument);
}

TEST(SimulatedAnnealingTest, NanEnergyRejected) {
  const ConfigSpace space = ConfigSpace::tiny();
  const Objective nan_obj = [](const SystemConfig&) { return std::nan(""); };
  EXPECT_THROW((void)simulated_annealing(space, nan_obj, SaParams{}), std::runtime_error);
}

class BudgetSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BudgetSweep, MoreIterationsNeverWorseOnAverage) {
  // Across several seeds, the mean best energy with a larger budget must not
  // be worse than with a smaller one (Table VI's monotone improvement).
  const std::size_t budget = GetParam();
  const ConfigSpace space = ConfigSpace::paper();
  const Objective obj = bowl;
  double small_sum = 0.0;
  double large_sum = 0.0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SaParams p_small;
    p_small.cooling_rate = SaParams::cooling_rate_for(2.0, 1e-3, budget);
    p_small.max_iterations = budget;
    p_small.seed = seed;
    SaParams p_large = p_small;
    p_large.cooling_rate = SaParams::cooling_rate_for(2.0, 1e-3, budget * 4);
    p_large.max_iterations = budget * 4;
    small_sum += simulated_annealing(space, obj, p_small).best_energy;
    large_sum += simulated_annealing(space, obj, p_large).best_energy;
  }
  EXPECT_LE(large_sum, small_sum + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetSweep, ::testing::Values(50u, 100u, 250u));

}  // namespace
}  // namespace hetopt::opt
