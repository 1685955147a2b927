#include "bench/common.hpp"

#include "util/strings.hpp"

namespace hetopt::bench {

core::TrainingData paper_training_data(const Env& env) {
  return core::generate_training_data(env.machine, env.catalog,
                                      core::TrainingSweepOptions::paper());
}

core::PerformancePredictor trained_predictor(const core::TrainingData& data) {
  core::PerformancePredictor predictor;
  predictor.train(data.host, data.device);
  return predictor;
}

std::string num(double v, int precision) { return util::format_double(v, precision); }

const std::vector<std::size_t>& iteration_budgets() {
  static const std::vector<std::size_t> budgets{250, 500, 750, 1000, 1250, 1500, 1750, 2000};
  return budgets;
}

const std::vector<MotifSet>& engine_matrix_motif_sets() {
  static const std::vector<MotifSet> sets = {
      {"default_mixed", {"TATAWAW", "GGGCGG"}},
      {"few_long_literals", {"GATTACAGATTACA", "CCCGGGTTTAAACC"}},
      {"many_short_iupac", {"TATAWAW", "GGNCC", "CCWGG", "RRYYRR", "ACGTN", "TTSAA"}},
      {"many_long_literals",
       {"GATTACAGATTA", "CCCGGGTTTAAA", "ACGTACGTACGT", "TTTTGGGGCCCC", "AGAGAGAGAGAG",
        "CTCTCTCTCTCT"}},  // 72 summed bits: no bitap
  };
  return sets;
}

namespace {

[[nodiscard]] std::size_t one_hot_index(std::span<const double> row) {
  for (std::size_t j = 2; j < row.size(); ++j) {
    if (row[j] > 0.5) return j - 2;
  }
  return 0;
}

}  // namespace

std::vector<EvalPoint> evaluate_host_rows(const core::PerformancePredictor& predictor,
                                          const ml::Dataset& eval) {
  std::vector<EvalPoint> out;
  out.reserve(eval.size());
  for (std::size_t i = 0; i < eval.size(); ++i) {
    const auto row = eval.row(i);
    EvalPoint p;
    p.size_mb = row[0];
    p.threads = static_cast<int>(row[1]);
    p.affinity_index = one_hot_index(row);
    p.measured = eval.target(i);
    p.predicted = predictor.predict_host(p.size_mb, p.threads,
                                         parallel::kAllHostAffinities[p.affinity_index]);
    out.push_back(p);
  }
  return out;
}

std::vector<EvalPoint> evaluate_device_rows(const core::PerformancePredictor& predictor,
                                            const ml::Dataset& eval) {
  std::vector<EvalPoint> out;
  out.reserve(eval.size());
  for (std::size_t i = 0; i < eval.size(); ++i) {
    const auto row = eval.row(i);
    EvalPoint p;
    p.size_mb = row[0];
    p.threads = static_cast<int>(row[1]);
    p.affinity_index = one_hot_index(row);
    p.measured = eval.target(i);
    p.predicted = predictor.predict_device(
        p.size_mb, p.threads, parallel::kAllDeviceAffinities[p.affinity_index]);
    out.push_back(p);
  }
  return out;
}

}  // namespace hetopt::bench
