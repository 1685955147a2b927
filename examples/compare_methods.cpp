// Domain example: the paper's Table II generalized. The four paper methods
// (EM, EML, SAM, SAML) are TuningSession presets; the Strategy x Evaluator
// redesign also makes the genetic and random-sampling strategies first-class,
// so this harness compares all six on one workload: search effort (number of
// experiments/predictions) against solution quality. Candidate batches are
// evaluated concurrently through a thread pool.
//
// Run:  ./compare_methods [--genome=cat] [--iterations=1000] [--threads=4]
#include <iostream>
#include <memory>

#include "core/hetopt.hpp"
#include "parallel/thread_pool.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace hetopt;
  const util::CliArgs args(argc, argv);
  const std::string genome = args.get("genome", std::string("cat"));
  const auto iterations = static_cast<std::size_t>(args.get("iterations", std::int64_t{1000}));
  const auto threads = static_cast<std::size_t>(args.get("threads", std::int64_t{4}));

  const sim::Machine machine = sim::emil_machine();
  const opt::ConfigSpace space = opt::ConfigSpace::paper();
  const dna::GenomeCatalog catalog;
  const dna::GenomeInfo& info = catalog.get(genome);
  const core::Workload workload(info.name, info.size_mb);

  std::cout << "Training predictor for the ML-based methods...\n";
  const core::TrainingData data = core::generate_training_data(
      machine, catalog, core::TrainingSweepOptions::paper());
  core::PerformancePredictor predictor;
  predictor.train(data.host, data.device);

  const auto pool = std::make_shared<parallel::ThreadPool>(threads);
  const auto measurement = std::make_shared<core::MeasurementEvaluator>(machine);

  util::Timer timer;
  std::vector<core::SessionReport> reports;

  // The four paper presets...
  for (const core::Method m : {core::Method::kEM, core::Method::kEML, core::Method::kSAM,
                               core::Method::kSAML}) {
    core::TuningSession session =
        core::TuningSession::preset(m, machine, space, &predictor, iterations, 42);
    session.with_thread_pool(pool);
    core::SessionReport r = session.run(workload);
    r.strategy = std::string(core::to_string(m));  // label rows with the paper's names
    reports.push_back(std::move(r));
  }
  // ...plus the strategies the old Method enum could not reach, through the
  // same session API (picked by name).
  for (const char* name : {"genetic", "random"}) {
    core::TuningSession session(space);
    session.with_strategy(name)
        .with_evaluator(measurement)
        .with_budget(iterations + 1)  // same budget as SAM: initial + iterations
        .with_seed(42)
        .with_thread_pool(pool);
    reports.push_back(session.run(workload));
  }

  const double em_time = reports.front().measured_time;
  util::Table table("Strategy x evaluator comparison on " + workload.name + " (" +
                    std::to_string(static_cast<int>(workload.size_mb)) + " MB)");
  table.header({"Strategy", "Evaluator", "Evaluations", "Measured time [s]", "vs EM",
                "Configuration"});
  for (const core::SessionReport& r : reports) {
    std::string vs_em = "+";
    vs_em += util::format_double(100.0 * (r.measured_time - em_time) / em_time, 2);
    vs_em += '%';
    table.row({r.strategy, r.evaluator, std::to_string(r.evaluations),
               util::format_double(r.measured_time, 3), std::move(vs_em),
               opt::to_string(r.config)});
  }
  table.note("Table II semantics: EM = exhaustive+measured (optimal, high effort); "
             "SAM/SAML = ~5% of the effort, near-optimal; ML variants can predict "
             "unseen workloads without re-measuring; genetic/random run on the same "
             "budget as SAM for comparison");
  table.note("all six methods completed in " + util::format_double(timer.seconds(), 2) +
             " s of wall time (candidate batches on " + std::to_string(threads) +
             " pool threads)");
  table.print(std::cout);
  return 0;
}
