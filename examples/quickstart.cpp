// Quickstart: tune the work distribution of a DNA-analysis workload on the
// simulated Xeon E5 + Xeon Phi platform, exactly the paper's SAML flow —
// through the composable TuningSession API.
//
//   1. Build the platform (sim::emil_machine) and the Table I space.
//   2. Run the 7200-experiment training sweep and fit the boosted-tree
//      predictor (one-off; afterwards any workload is tuned by prediction).
//   3. Ask the SAML preset (AnnealingSearch x PredictionEvaluator) for a
//      near-optimal configuration with a 1000-iteration budget (~5% of what
//      enumeration would need).
//
// Run:  ./quickstart [--genome=human] [--iterations=1000]
#include <iostream>

#include "core/hetopt.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace hetopt;
  const util::CliArgs args(argc, argv);
  const std::string genome = args.get("genome", std::string("human"));
  const auto iterations = static_cast<std::size_t>(args.get("iterations", std::int64_t{1000}));

  const dna::GenomeCatalog catalog;
  const dna::GenomeInfo& info = catalog.get(genome);
  const core::Workload workload(info.name, info.size_mb);

  const sim::Machine machine = sim::emil_machine();
  const opt::ConfigSpace space = opt::ConfigSpace::paper();

  std::cout << "Training the performance predictor (7200 experiments, one-off)...\n";
  const core::TrainingData data = core::generate_training_data(
      machine, catalog, core::TrainingSweepOptions::paper());
  core::PerformancePredictor predictor;
  predictor.train(data.host, data.device);
  std::cout << "  trained on " << data.host.size() + data.device.size() << " experiments\n\n";

  core::TuningSession session =
      core::TuningSession::preset(core::Method::kSAML, machine, space, &predictor, iterations);
  const core::SessionReport result = session.run(workload);
  const core::SessionReport host_only = core::host_only_baseline(space, machine, workload);
  const core::SessionReport device_only = core::device_only_baseline(space, machine, workload);

  std::cout << "Workload: " << workload.name << " (" << workload.size_mb << " MB)\n"
            << result.strategy << " x " << result.evaluator << " recommendation after "
            << iterations << " iterations: " << opt::to_string(result.config) << "\n"
            << "  predicted time: " << result.search_energy << " s\n"
            << "  measured  time: " << result.measured_time << " s\n"
            << "  host-only (48t): " << host_only.measured_time << " s  ("
            << host_only.measured_time / result.measured_time << "x slower)\n"
            << "  device-only (240t): " << device_only.measured_time << " s  ("
            << device_only.measured_time / result.measured_time << "x slower)\n"
            << "  search evaluations: " << result.evaluations << " (vs " << space.size()
            << " for enumeration)\n";
  return 0;
}
