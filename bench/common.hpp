// Shared setup for the table/figure harnesses: the simulated machine, the
// paper configuration space, the four genomes, and a predictor trained on
// the full 7200-experiment sweep. Every harness prints through util::Table
// so EXPERIMENTS.md can quote outputs verbatim.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/hetopt.hpp"
#include "dna/catalog.hpp"
#include "opt/config_space.hpp"
#include "sim/machine.hpp"
#include "util/table.hpp"

namespace hetopt::bench {

struct Env {
  sim::Machine machine = sim::emil_machine();
  opt::ConfigSpace space = opt::ConfigSpace::paper();
  dna::GenomeCatalog catalog;

  [[nodiscard]] std::vector<core::Workload> workloads() const {
    std::vector<core::Workload> out;
    for (const auto& g : catalog.all()) out.emplace_back(g.name, g.size_mb);
    return out;
  }
};

/// Runs the paper training sweep and returns the raw data.
[[nodiscard]] core::TrainingData paper_training_data(const Env& env);

/// Trains a predictor on all 7200 experiments (used by search harnesses).
[[nodiscard]] core::PerformancePredictor trained_predictor(const core::TrainingData& data);

/// Fixed-width helpers for table cells.
[[nodiscard]] std::string num(double v, int precision = 3);

/// The SA iteration budgets of Fig. 9 / Tables VI-IX.
[[nodiscard]] const std::vector<std::size_t>& iteration_budgets();

/// A named motif set of one shape.
struct MotifSet {
  const char* name;
  std::vector<std::string> motifs;
};

/// The contrasting motif-set shapes of bench_main's engine_matrix, which
/// micro_automata's BM_CompiledCount also times.
[[nodiscard]] const std::vector<MotifSet>& engine_matrix_motif_sets();

/// One decoded evaluation experiment (undoes the one-hot feature layout).
struct EvalPoint {
  double size_mb = 0.0;
  int threads = 0;
  std::size_t affinity_index = 0;  // index into kAllHostAffinities / device
  double measured = 0.0;
  double predicted = 0.0;
};

/// Predicts every row of an evaluation split with the matching environment
/// model and decodes the features back into (size, threads, affinity).
[[nodiscard]] std::vector<EvalPoint> evaluate_host_rows(
    const core::PerformancePredictor& predictor, const ml::Dataset& eval);
[[nodiscard]] std::vector<EvalPoint> evaluate_device_rows(
    const core::PerformancePredictor& predictor, const ml::Dataset& eval);

}  // namespace hetopt::bench
