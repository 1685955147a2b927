// Fig. 9 (a-d): execution time of the configuration suggested by SAM and
// SAML after each iteration budget, against the EM optimum (solid line) and
// the EML pick (dashed line), for the four genomes. SA numbers are averaged
// over several seeds, as SA is stochastic.
#include <iostream>

#include "bench/common.hpp"

int main() {
  using namespace hetopt;
  const bench::Env env;
  const core::TrainingData data = bench::paper_training_data(env);
  const core::PerformancePredictor predictor = bench::trained_predictor(data);
  constexpr int kSeeds = 5;

  for (const auto& workload : env.workloads()) {
    const auto em = core::TuningSession::preset(core::Method::kEM, env.machine, env.space)
                        .run(workload);
    const auto eml =
        core::TuningSession::preset(core::Method::kEML, env.machine, env.space, &predictor)
            .run(workload);

    util::Table table("Fig 9: convergence for the sequence of " + workload.name);
    table.header({"Iterations", "SAML [s]", "SAM [s]", "EM [s]", "EML [s]"});
    for (const std::size_t budget : bench::iteration_budgets()) {
      double saml_sum = 0.0;
      double sam_sum = 0.0;
      for (int seed = 0; seed < kSeeds; ++seed) {
        const std::uint64_t sa_seed = static_cast<std::uint64_t>(seed) * 131 + budget;
        saml_sum += core::TuningSession::preset(core::Method::kSAML, env.machine, env.space,
                                                &predictor, budget, sa_seed)
                        .run(workload)
                        .measured_time;
        sam_sum += core::TuningSession::preset(core::Method::kSAM, env.machine, env.space,
                                               nullptr, budget, sa_seed)
                       .run(workload)
                       .measured_time;
      }
      table.row({std::to_string(budget), bench::num(saml_sum / kSeeds),
                 bench::num(sam_sum / kSeeds), bench::num(em.measured_time),
                 bench::num(eml.measured_time)});
    }
    table.note("SA columns averaged over " + std::to_string(kSeeds) + " seeds");
    table.note("EM used " + std::to_string(em.evaluations) +
               " experiments; 1000 SA iterations = " +
               bench::num(100.0 * 1000.0 / static_cast<double>(em.evaluations), 1) +
               "% of that (paper: ~5%)");
    table.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "Paper shape: SAM/SAML decrease with iterations toward EM; EML can "
               "score worse than SAM/SAML at large budgets because it optimizes the "
               "predicted (not measured) surface.\n";
  return 0;
}
