#include "opt/strategy.hpp"

#include <gtest/gtest.h>

namespace hetopt::opt {
namespace {

double bowl(const SystemConfig& c) {
  const double f = c.host_percent - 50.0;
  const double t = c.host_threads - 8.0;
  return 1.0 + f * f / 200.0 + t * t / 20.0 +
         (c.device_affinity == parallel::DeviceAffinity::kBalanced ? 0.0 : 0.2);
}

SearchObjective bowl_objective() { return SearchObjective(bowl); }

/// The optimum by brute force over flat indices, lowest index on ties.
std::size_t brute_force_best(const ConfigSpace& space, const Objective& objective) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < space.size(); ++i) {
    if (objective(space.at(i)) < objective(space.at(best))) best = i;
  }
  return best;
}

/// Counts single-candidate calls and keeps the best energy seen.
struct Tally {
  std::size_t calls = 0;
  double best = 1e300;
  Objective wrap(Objective inner) {
    return [this, inner = std::move(inner)](const SystemConfig& c) {
      ++calls;
      const double e = inner(c);
      best = std::min(best, e);
      return e;
    };
  }
};

TEST(SearchObjective, RejectsNullSingleObjective) {
  EXPECT_THROW(SearchObjective(Objective{}), std::invalid_argument);
}

TEST(SearchObjective, BatchFallsBackToSingle) {
  const SearchObjective obj(bowl);
  const ConfigSpace space = ConfigSpace::tiny();
  const std::vector<SystemConfig> configs{space.at(0), space.at(1), space.at(2)};
  const std::vector<double> energies = obj.evaluate(configs);
  ASSERT_EQ(energies.size(), 3u);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_DOUBLE_EQ(energies[i], bowl(configs[i]));
  }
}

TEST(SearchObjective, MismatchedBatchSizeThrows) {
  const SearchObjective obj(bowl, [](const std::vector<SystemConfig>&) {
    return std::vector<double>{1.0};  // wrong size on purpose
  });
  const ConfigSpace space = ConfigSpace::tiny();
  EXPECT_THROW((void)obj.evaluate({space.at(0), space.at(1)}), std::runtime_error);
}

TEST(ExhaustiveSearchTest, MatchesBruteForceIncludingTieBreak) {
  const ConfigSpace space = ConfigSpace::tiny();
  const SearchOutcome outcome = ExhaustiveSearch().search(space, bowl_objective(), SearchBudget{});
  EXPECT_EQ(outcome.best, space.at(brute_force_best(space, bowl)));
  EXPECT_DOUBLE_EQ(outcome.best_energy, bowl(outcome.best));
  EXPECT_EQ(outcome.evaluations, space.size());
}

TEST(ExhaustiveSearchTest, EvaluatesEveryConfigurationOnceInFlatOrder) {
  // The paper space (19 926 points, the paper's enumeration count) spans
  // many 256-candidate batches and ends on a partial one.
  const ConfigSpace space = ConfigSpace::paper();
  std::vector<std::size_t> seen;
  const SearchObjective recording(
      [](const SystemConfig&) { return 0.0; },
      [&](const std::vector<SystemConfig>& cs) {
        for (const SystemConfig& c : cs) seen.push_back(space.index_of(c));
        return std::vector<double>(cs.size(), 1.0);
      });
  const SearchOutcome outcome = ExhaustiveSearch().search(space, recording, SearchBudget{});
  EXPECT_EQ(outcome.evaluations, 19926u);
  ASSERT_EQ(seen.size(), space.size());
  for (std::size_t i = 0; i < seen.size(); ++i) ASSERT_EQ(seen[i], i);
}

TEST(ExhaustiveSearchTest, ConstantObjectiveTiesToLowestIndex) {
  const ConfigSpace space = ConfigSpace::tiny();
  const SearchOutcome outcome = ExhaustiveSearch().search(
      space, SearchObjective([](const SystemConfig&) { return 3.0; }), SearchBudget{});
  EXPECT_EQ(outcome.best, space.at(0));
}

TEST(RandomSearchTest, RespectsBudgetAndIsDeterministic) {
  const ConfigSpace space = ConfigSpace::paper();
  const RandomSearch strategy;
  SearchBudget budget;
  budget.max_evaluations = 50;
  budget.seed = 9;
  const SearchOutcome a = strategy.search(space, bowl_objective(), budget);
  const SearchOutcome b = strategy.search(space, bowl_objective(), budget);
  EXPECT_EQ(a.evaluations, 50u);
  EXPECT_TRUE(space.contains(a.best));
  EXPECT_EQ(a.best, b.best);
  EXPECT_DOUBLE_EQ(a.best_energy, b.best_energy);
}

TEST(RandomSearchTest, CallsTheObjectiveExactlyBudgetTimes) {
  // 300 spans a full 256-candidate batch and a partial one.
  const ConfigSpace space = ConfigSpace::tiny();
  Tally tally;
  SearchBudget budget;
  budget.max_evaluations = 300;
  budget.seed = 1;
  const SearchOutcome r = RandomSearch().search(space, SearchObjective(tally.wrap(bowl)), budget);
  EXPECT_EQ(tally.calls, 300u);
  EXPECT_EQ(r.evaluations, 300u);
  EXPECT_DOUBLE_EQ(r.best_energy, tally.best);
}

TEST(RandomSearchTest, LargeBudgetFindsOptimumOfTinySpace) {
  const ConfigSpace space = ConfigSpace::tiny();
  SearchBudget budget;
  budget.max_evaluations = 2000;
  budget.seed = 3;
  const SearchOutcome r = RandomSearch().search(space, bowl_objective(), budget);
  EXPECT_DOUBLE_EQ(r.best_energy, bowl(space.at(brute_force_best(space, bowl))));
}

TEST(HillClimbingSearchTest, CallsTheObjectiveExactlyBudgetTimes) {
  const ConfigSpace space = ConfigSpace::tiny();
  Tally tally;
  SearchBudget budget;
  budget.max_evaluations = 73;
  budget.seed = 2;
  const SearchOutcome r =
      HillClimbingSearch().search(space, SearchObjective(tally.wrap(bowl)), budget);
  EXPECT_EQ(tally.calls, 73u);
  EXPECT_EQ(r.evaluations, 73u);
  EXPECT_DOUBLE_EQ(r.best_energy, tally.best);
}

TEST(HillClimbingSearchTest, ClimbsCloseToTheOptimum) {
  const ConfigSpace space = ConfigSpace::paper();
  SearchBudget budget;
  budget.max_evaluations = 500;
  budget.seed = 4;
  const SearchOutcome r = HillClimbingSearch().search(space, bowl_objective(), budget);
  const SearchOutcome em = ExhaustiveSearch().search(space, bowl_objective(), SearchBudget{});
  EXPECT_LT(r.best_energy, em.best_energy * 1.5 + 0.5);
}

TEST(HillClimbingSearchTest, RestartsSpendTheBudgetOnAFlatObjective) {
  // Every move fails to improve, so the budget goes to restarts.
  const ConfigSpace space = ConfigSpace::tiny();
  SearchBudget budget;
  budget.max_evaluations = 200;
  budget.seed = 6;
  const SearchOutcome r = HillClimbingSearch().search(
      space, SearchObjective([](const SystemConfig&) { return 1.0; }), budget);
  EXPECT_EQ(r.evaluations, 200u);
  EXPECT_TRUE(space.contains(r.best));
}

TEST(HillClimbingSearchTest, DeterministicInSeedAndBudgetZeroMeansDefault) {
  const ConfigSpace space = ConfigSpace::paper();
  SearchBudget budget;
  budget.max_evaluations = 0;
  budget.seed = 8;
  const SearchOutcome a = HillClimbingSearch().search(space, bowl_objective(), budget);
  const SearchOutcome b = HillClimbingSearch().search(space, bowl_objective(), budget);
  EXPECT_EQ(a.evaluations, 1000u);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_energy, b.best_energy);
}

TEST(AnnealingSearchTest, ExplicitParamsReproduceSimulatedAnnealing) {
  const ConfigSpace space = ConfigSpace::paper();
  const SaParams params = AnnealingSearch::schedule(300, 4);
  const SaResult reference = simulated_annealing(space, bowl, params);
  const SearchOutcome outcome =
      AnnealingSearch(params).search(space, bowl_objective(), SearchBudget{});
  EXPECT_EQ(outcome.best, reference.best);
  EXPECT_DOUBLE_EQ(outcome.best_energy, reference.best_energy);
  EXPECT_EQ(outcome.evaluations, reference.evaluations);
}

TEST(AnnealingSearchTest, DerivesScheduleFromBudget) {
  const ConfigSpace space = ConfigSpace::paper();
  SearchBudget budget;
  budget.max_evaluations = 200;
  budget.seed = 5;
  const SearchOutcome outcome = AnnealingSearch().search(space, bowl_objective(), budget);
  EXPECT_LE(outcome.evaluations, 200u);
  EXPECT_GT(outcome.evaluations, 100u);  // the schedule actually uses the budget
  EXPECT_TRUE(space.contains(outcome.best));
}

TEST(AnnealingSearchTest, BudgetZeroMeansPaperDefaultAndBudgetOneThrows) {
  const ConfigSpace space = ConfigSpace::paper();
  SearchBudget budget;
  budget.max_evaluations = 0;  // "strategy default": the ~1000-step schedule
  budget.seed = 6;
  const SearchOutcome outcome = AnnealingSearch().search(space, bowl_objective(), budget);
  EXPECT_LE(outcome.evaluations, 1000u);
  EXPECT_GT(outcome.evaluations, 500u);

  budget.max_evaluations = 1;  // cannot fit initial + one move
  EXPECT_THROW((void)AnnealingSearch().search(space, bowl_objective(), budget),
               std::invalid_argument);
}

TEST(GeneticSearchTest, RunsWithinBudgetAndFindsTinyOptimum) {
  const ConfigSpace space = ConfigSpace::tiny();
  SearchBudget budget;
  budget.max_evaluations = 600;
  budget.seed = 5;
  const SearchOutcome outcome = GeneticSearch().search(space, bowl_objective(), budget);
  EXPECT_LE(outcome.evaluations, 600u);
  EXPECT_DOUBLE_EQ(outcome.best_energy, bowl(space.at(brute_force_best(space, bowl))));
}

TEST(GeneticSearchTest, ShrinksPopulationToFitSmallBudget) {
  const ConfigSpace space = ConfigSpace::tiny();
  SearchBudget budget;
  budget.max_evaluations = 10;  // smaller than the default population of 32
  budget.seed = 1;
  const SearchOutcome outcome = GeneticSearch().search(space, bowl_objective(), budget);
  EXPECT_LE(outcome.evaluations, 10u);
  EXPECT_GT(outcome.evaluations, 0u);
  EXPECT_TRUE(space.contains(outcome.best));
}

TEST(GeneticSearchTest, ExplicitParamsWinOverBudgetLikeAnnealing) {
  const ConfigSpace space = ConfigSpace::tiny();
  GaParams params;
  params.max_evaluations = 100;
  params.seed = 123;
  SearchBudget budget;
  budget.max_evaluations = 700;  // must be ignored: explicit params win
  budget.seed = 9;
  const SearchOutcome via_strategy =
      GeneticSearch(params).search(space, bowl_objective(), budget);
  const GaResult direct = genetic_algorithm(
      space, [](const std::vector<SystemConfig>& cs) { return bowl_objective().evaluate(cs); },
      params);
  EXPECT_EQ(via_strategy.best, direct.best);
  EXPECT_DOUBLE_EQ(via_strategy.best_energy, direct.best_energy);
  EXPECT_EQ(via_strategy.evaluations, direct.evaluations);
  EXPECT_LE(via_strategy.evaluations, 100u);
}

TEST(GeneticSearchTest, BudgetOfOneThrows) {
  const ConfigSpace space = ConfigSpace::tiny();
  SearchBudget budget;
  budget.max_evaluations = 1;
  EXPECT_THROW((void)GeneticSearch().search(space, bowl_objective(), budget),
               std::invalid_argument);
}

TEST(SearchStrategies, BatchedAndSingleObjectivesAgree) {
  // Batch consumers see the same energies whether the objective scores a
  // batch itself or falls back to single calls.
  const ConfigSpace space = ConfigSpace::paper();
  SearchBudget budget;
  budget.max_evaluations = 400;
  budget.seed = 17;
  const SearchObjective batched(bowl, [](const std::vector<SystemConfig>& cs) {
    return SearchObjective(bowl).evaluate(cs);
  });
  const std::vector<std::shared_ptr<SearchStrategy>> strategies{
      std::make_shared<RandomSearch>(), std::make_shared<GeneticSearch>(),
      std::make_shared<HillClimbingSearch>()};
  for (const auto& strategy : strategies) {
    const SearchOutcome single = strategy->search(space, bowl_objective(), budget);
    const SearchOutcome batch = strategy->search(space, batched, budget);
    EXPECT_EQ(single.best, batch.best) << strategy->name();
    EXPECT_EQ(single.best_energy, batch.best_energy) << strategy->name();
    EXPECT_EQ(single.evaluations, batch.evaluations) << strategy->name();
  }
}

}  // namespace
}  // namespace hetopt::opt
