// Tables VIII and IX: speedup of the heterogeneous execution under the
// configuration suggested by SAML (after 250..2000 iterations) and by EM,
// relative to host-only (48 threads) and device-only (240 threads) runs.
#include <iostream>

#include "bench/common.hpp"

int main() {
  using namespace hetopt;
  const bench::Env env;
  const core::TrainingData data = bench::paper_training_data(env);
  const core::PerformancePredictor predictor = bench::trained_predictor(data);
  constexpr int kSeeds = 5;

  const auto& budgets = bench::iteration_budgets();
  util::Table tab8("Table VIII: speedup vs host-only (48 threads)");
  util::Table tab9("Table IX: speedup vs device-only (240 threads)");
  for (util::Table* t : {&tab8, &tab9}) {
    std::vector<std::string> header{"DNA"};
    for (const std::size_t b : budgets) header.push_back(std::to_string(b));
    header.push_back("EM");
    t->header(std::move(header));
  }

  for (const auto& workload : env.workloads()) {
    const auto em = core::TuningSession::preset(core::Method::kEM, env.machine, env.space)
                        .run(workload);
    const auto host_only = core::host_only_baseline(env.space, env.machine, workload);
    const auto device_only = core::device_only_baseline(env.space, env.machine, workload);

    std::vector<std::string> row8{workload.name};
    std::vector<std::string> row9{workload.name};
    for (const std::size_t budget : budgets) {
      double sum = 0.0;
      for (int seed = 0; seed < kSeeds; ++seed) {
        sum += core::TuningSession::preset(core::Method::kSAML, env.machine, env.space,
                                           &predictor, budget,
                                           static_cast<std::uint64_t>(seed) * 131 + budget)
                   .run(workload)
                   .measured_time;
      }
      const double t_saml = sum / kSeeds;
      row8.push_back(bench::num(host_only.measured_time / t_saml, 2));
      row9.push_back(bench::num(device_only.measured_time / t_saml, 2));
    }
    row8.push_back(bench::num(host_only.measured_time / em.measured_time, 2));
    row9.push_back(bench::num(device_only.measured_time / em.measured_time, 2));
    tab8.row(std::move(row8));
    tab9.row(std::move(row9));
  }

  tab8.note("paper: up to 1.74x after 1000 iterations; EM up to 1.95x");
  tab9.note("paper: up to 2.18x after 1000 iterations; EM up to 2.36x");
  tab8.print(std::cout);
  std::cout << '\n';
  tab9.print(std::cout);
  return 0;
}
