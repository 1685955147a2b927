// Search strategies: the search half of every tuning run. The paper
// hardwires two searches (enumeration, simulated annealing); this interface
// makes the search axis orthogonal to the evaluation axis, so any strategy
// can drive any backend (measurement, ML prediction, multi-device makespan)
// through core::TuningSession, which is the one way a search runs.
//
// A strategy minimizes a SearchObjective over a ConfigSpace within a
// SearchBudget. Objectives come in single-candidate and batched form; batch
// consumers (enumeration chunks, GA generations, random batches) let a
// concurrent backend score many candidates at once, while inherently
// sequential strategies (simulated annealing, hill climbing) use the single
// form. TuningSession::with_strategy(name) reaches the first four by name;
// HillClimbingSearch is passed as an object.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "opt/config.hpp"
#include "opt/config_space.hpp"
#include "opt/genetic.hpp"
#include "opt/objective.hpp"
#include "opt/simulated_annealing.hpp"

namespace hetopt::opt {

struct SearchBudget {
  /// Maximum number of objective evaluations. 0 means "strategy default";
  /// ExhaustiveSearch ignores the cap entirely (optimality needs the full
  /// space).
  std::size_t max_evaluations = 1000;
  std::uint64_t seed = 0x7475ULL;
};

struct SearchOutcome {
  SystemConfig best;
  double best_energy = 0.0;
  std::size_t evaluations = 0;
};

/// Bundles the single and batched views of one objective. The batch view is
/// optional; when absent, batches fall back to a sequential loop over the
/// single view, so strategies can always call evaluate().
class SearchObjective {
 public:
  explicit SearchObjective(Objective single, BatchObjective batch = nullptr);

  [[nodiscard]] double operator()(const SystemConfig& c) const { return single_(c); }
  [[nodiscard]] std::vector<double> evaluate(const std::vector<SystemConfig>& configs) const;
  [[nodiscard]] bool has_batch() const noexcept { return static_cast<bool>(batch_); }
  [[nodiscard]] const Objective& single() const noexcept { return single_; }

 private:
  Objective single_;
  BatchObjective batch_;
};

class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual SearchOutcome search(const ConfigSpace& space,
                                             const SearchObjective& objective,
                                             const SearchBudget& budget) const = 0;
};

/// Enumeration ("EM"/"EML"): evaluates every configuration in flat-index
/// order, 256 candidates per objective call; ties resolve to the lowest flat
/// index.
class ExhaustiveSearch final : public SearchStrategy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "exhaustive"; }
  [[nodiscard]] SearchOutcome search(const ConfigSpace& space, const SearchObjective& objective,
                                     const SearchBudget& budget) const override;
};

/// Uniform random sampling — the cheap sanity baseline every metaheuristic
/// must beat. Deterministic in budget.seed; ties resolve to the earliest
/// sample.
class RandomSearch final : public SearchStrategy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "random"; }
  [[nodiscard]] SearchOutcome search(const ConfigSpace& space, const SearchObjective& objective,
                                     const SearchBudget& budget) const override;
};

/// First-improvement hill climbing with random restarts — the ablation
/// baseline that shows what annealing's uphill moves buy. Each step proposes
/// a neighbour and takes it only if it improves; after 25 failures in a row
/// the walk restarts from a random point. Deterministic in budget.seed; a
/// budget of 0 means 1000 evaluations.
class HillClimbingSearch final : public SearchStrategy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "hill-climbing"; }
  [[nodiscard]] SearchOutcome search(const ConfigSpace& space, const SearchObjective& objective,
                                     const SearchBudget& budget) const override;
};

/// Simulated annealing (the paper's Fig. 3 loop). Constructed with explicit
/// SaParams it reproduces opt::simulated_annealing bit-for-bit — the params
/// (including their seed and iteration cap) then take precedence over the
/// SearchBudget entirely, which is what makes the Table II presets exact.
/// Default construction instead derives the cooling schedule from the budget
/// so that initial + iterations <= budget.max_evaluations (0 = the paper's
/// ~1000-step default; a budget of 1 cannot fit a move and throws).
class AnnealingSearch final : public SearchStrategy {
 public:
  AnnealingSearch() = default;
  explicit AnnealingSearch(SaParams params) : params_(params) {}

  /// The schedule used by the paper presets: T 2.0 -> 1e-3 with the cooling
  /// rate that spends exactly `iterations` steps (Fig. 9's x-axis).
  [[nodiscard]] static SaParams schedule(std::size_t iterations, std::uint64_t seed);

  [[nodiscard]] std::string_view name() const noexcept override { return "annealing"; }
  [[nodiscard]] SearchOutcome search(const ConfigSpace& space, const SearchObjective& objective,
                                     const SearchBudget& budget) const override;

 private:
  std::optional<SaParams> params_;
};

/// Generational GA (opt/genetic.hpp) as a strategy. Same precedence rule as
/// AnnealingSearch: explicit GaParams (including their seed and evaluation
/// cap) win over the SearchBudget; default construction takes both from the
/// budget. Either way the population is shrunk when the evaluation cap
/// cannot fit the configured one (at least 2).
class GeneticSearch final : public SearchStrategy {
 public:
  GeneticSearch() = default;
  explicit GeneticSearch(GaParams params) : params_(params) {}
  [[nodiscard]] std::string_view name() const noexcept override { return "genetic"; }
  [[nodiscard]] SearchOutcome search(const ConfigSpace& space, const SearchObjective& objective,
                                     const SearchBudget& budget) const override;

 private:
  std::optional<GaParams> params_;
};

}  // namespace hetopt::opt
