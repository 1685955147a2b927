// ABLATION A (not in the paper): simulated annealing vs uniform random
// search vs restarted hill climbing, same measurement objective, same
// evaluation budgets. Justifies the paper's choice of SA for this space.
#include <iostream>

#include "bench/common.hpp"

int main() {
  using namespace hetopt;
  const bench::Env env;
  const core::Workload human("human", 3170.0);
  const auto em =
      core::TuningSession::preset(core::Method::kEM, env.machine, env.space).run(human);
  const auto measurement = std::make_shared<core::MeasurementEvaluator>(env.machine);
  // Best energy one strategy finds within `budget` measurements.
  const auto best = [&](std::shared_ptr<opt::SearchStrategy> strategy, std::size_t budget,
                        std::uint64_t seed) {
    core::TuningSession session(env.space);
    session.with_strategy(std::move(strategy))
        .with_evaluator(measurement)
        .with_budget(budget)
        .with_seed(seed);
    return session.run(human).search_energy;
  };
  constexpr int kSeeds = 7;

  util::Table table("Ablation A: search strategies on the 19926-point space (human)");
  table.header({"Budget", "SA %diff vs EM", "GA %diff", "RandomSearch %diff",
                "HillClimb %diff"});
  for (const std::size_t budget : {250u, 500u, 1000u, 2000u}) {
    double sa_sum = 0.0;
    double ga_sum = 0.0;
    double rs_sum = 0.0;
    double hc_sum = 0.0;
    for (int seed = 0; seed < kSeeds; ++seed) {
      const auto u = static_cast<std::uint64_t>(seed);
      sa_sum += core::TuningSession::preset(core::Method::kSAM, env.machine, env.space,
                                            nullptr, budget, u * 71 + 1)
                    .run(human)
                    .measured_time;
      ga_sum += best(std::make_shared<opt::GeneticSearch>(), budget, u * 71 + 4);
      rs_sum += best(std::make_shared<opt::RandomSearch>(), budget, u * 71 + 2);
      hc_sum += best(std::make_shared<opt::HillClimbingSearch>(), budget, u * 71 + 3);
    }
    const auto pct = [&](double sum) {
      return bench::num(100.0 * (sum / kSeeds - em.measured_time) / em.measured_time, 2);
    };
    table.row({std::to_string(budget), pct(sa_sum), pct(ga_sum), pct(rs_sum), pct(hc_sum)});
  }
  table.note("EM optimum: " + bench::num(em.measured_time) + " s; averaged over " +
             std::to_string(kSeeds) + " seeds");
  table.print(std::cout);
  return 0;
}
