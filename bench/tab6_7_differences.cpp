// Tables VI and VII: percent difference and absolute difference [s] between
// the configuration suggested by SAML after N iterations and the EM optimum
// (Eqs. 7-8), per genome plus the cross-genome average.
#include <iostream>

#include "bench/common.hpp"

int main() {
  using namespace hetopt;
  const bench::Env env;
  const core::TrainingData data = bench::paper_training_data(env);
  const core::PerformancePredictor predictor = bench::trained_predictor(data);
  constexpr int kSeeds = 5;

  const auto& budgets = bench::iteration_budgets();
  std::vector<std::vector<double>> abs_diff;  // [genome][budget]
  std::vector<std::vector<double>> pct_diff;
  std::vector<std::string> names;

  for (const auto& workload : env.workloads()) {
    const auto em = core::TuningSession::preset(core::Method::kEM, env.machine, env.space)
                        .run(workload);
    std::vector<double> abs_row;
    std::vector<double> pct_row;
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
      const double abs = std::abs(em.measured_time - t_saml);  // Eq. 7
      abs_row.push_back(abs);
      pct_row.push_back(100.0 * abs / em.measured_time);  // Eq. 8
    }
    abs_diff.push_back(std::move(abs_row));
    pct_diff.push_back(std::move(pct_row));
    names.push_back(workload.name);
  }

  const auto print = [&](const char* title, const std::vector<std::vector<double>>& m,
                         int precision) {
    util::Table table(title);
    std::vector<std::string> header{"DNA"};
    for (const std::size_t b : budgets) header.push_back(std::to_string(b));
    table.header(std::move(header));
    std::vector<double> avg(budgets.size(), 0.0);
    for (std::size_t g = 0; g < m.size(); ++g) {
      std::vector<std::string> row{names[g]};
      for (std::size_t b = 0; b < budgets.size(); ++b) {
        row.push_back(bench::num(m[g][b], precision));
        avg[b] += m[g][b] / static_cast<double>(m.size());
      }
      table.row(std::move(row));
    }
    std::vector<std::string> avg_row{"average"};
    for (double v : avg) avg_row.push_back(bench::num(v, precision));
    table.row(std::move(avg_row));
    table.print(std::cout);
    std::cout << '\n';
  };

  print("Table VI: percent difference [%], SAML vs EM", pct_diff, 2);
  print("Table VII: absolute difference [s], SAML vs EM", abs_diff, 3);
  std::cout << "Paper averages (Table VI): 19.7% @250 iters falling to 6.8% @2000; "
               "(Table VII): 0.075 s falling to 0.026 s.\n";
  return 0;
}
