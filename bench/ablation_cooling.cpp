// ABLATION C (not in the paper): sensitivity of SAML to the annealing
// schedule — initial temperature and accepted-worse statistics — at a fixed
// 1000-iteration budget. It calls opt::simulated_annealing directly, not
// through a TuningSession, because the table reads the annealing trace.
#include <iostream>

#include "bench/common.hpp"
#include "opt/simulated_annealing.hpp"

int main() {
  using namespace hetopt;
  const bench::Env env;
  const core::TrainingData data = bench::paper_training_data(env);
  const core::PerformancePredictor predictor = bench::trained_predictor(data);
  const core::Workload mouse("mouse", 2770.0);
  const auto em =
      core::TuningSession::preset(core::Method::kEM, env.machine, env.space).run(mouse);
  core::PredictionEvaluator prediction(predictor, env.machine);
  const opt::Objective objective = [&](const opt::SystemConfig& c) {
    return prediction.evaluate(c, mouse);
  };
  constexpr std::size_t kIterations = 1000;
  constexpr int kSeeds = 7;

  util::Table table("Ablation C: annealing schedule sensitivity (mouse, 1000 iters)");
  table.header({"T_initial", "T_min", "percent diff vs EM", "accepted-worse moves"});
  for (const double t0 : {0.1, 0.5, 2.0, 10.0, 100.0}) {
    for (const double tmin : {1e-4, 1e-3, 1e-2}) {
      if (tmin >= t0) continue;
      double sum = 0.0;
      double worse = 0.0;
      for (int seed = 0; seed < kSeeds; ++seed) {
        opt::SaParams p;
        p.initial_temperature = t0;
        p.min_temperature = tmin;
        p.cooling_rate = opt::SaParams::cooling_rate_for(t0, tmin, kIterations);
        p.max_iterations = kIterations;
        p.seed = static_cast<std::uint64_t>(seed) * 17 + 5;
        const auto r = opt::simulated_annealing(env.space, objective, p);
        sum += prediction.score(r.best, mouse);
        worse += static_cast<double>(r.accepted_worse);
      }
      table.row({bench::num(t0, 1), bench::num(tmin, 4),
                 bench::num(100.0 * (sum / kSeeds - em.measured_time) / em.measured_time, 2),
                 bench::num(worse / kSeeds, 1)});
    }
  }
  table.note("hotter schedules take more uphill moves; too hot wastes the budget, "
             "too cold degenerates to hill climbing");
  table.print(std::cout);
  return 0;
}
