// Domain example: real finite-automata motif search over a synthetic genome,
// using the full engine stack (IUPAC regex -> NFA -> DFA -> minimization ->
// chunk-parallel matching) — with the work distribution chosen by *tuning
// the live code*: a TuningSession drives the RealWorkloadEvaluator, which
// times actual scans of the materialized genome, then the winning
// configuration runs once more through the heterogeneous executor.
//
// Run:  ./dna_search [--genome=human] [--mb=8] [--budget=40]
//                    [--motif=TATAWAW] [--motif2=GGGCGG]
#include <algorithm>
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "core/hetopt.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace hetopt;
  const util::CliArgs args(argc, argv);
  const std::string genome = args.get("genome", std::string("human"));
  const double mb = args.get("mb", 8.0);
  const std::int64_t budget_raw = args.get("budget", std::int64_t{40});
  if (!(mb > 0.0) || budget_raw < 1) {
    std::cerr << "dna_search: --mb must be > 0 and --budget >= 1\n";
    return 2;
  }
  const auto budget = static_cast<std::size_t>(budget_raw);
  const std::vector<std::string> motifs{
      args.get("motif", std::string("TATAWAW")),   // TATA box (IUPAC W = A/T)
      args.get("motif2", std::string("GGGCGG")),   // GC box (Sp1 site)
  };

  const dna::GenomeCatalog catalog;
  const dna::GenomeInfo& info = catalog.get(genome);
  const core::Workload workload(info.name, info.size_mb);

  std::cout << "Compiling motifs:";
  for (const auto& m : motifs) std::cout << ' ' << m;
  std::cout << '\n';

  // Materialize `mb` megabytes of physical sequence for the logical workload,
  // widening the evaluator's default clamps so --mb is honored exactly.
  const auto requested_bytes = static_cast<std::size_t>(mb * 1024.0 * 1024.0);
  core::RealWorkloadOptions options;
  options.motifs = motifs;
  options.bytes_per_logical_mb = mb * 1024.0 * 1024.0 / info.size_mb;
  options.min_physical_bytes = std::min(options.min_physical_bytes, requested_bytes);
  options.max_physical_bytes = std::max(options.max_physical_bytes, requested_bytes);
  const auto evaluator = std::make_shared<core::RealWorkloadEvaluator>(catalog, options);

  std::cout << "Generating " << mb << " MB of synthetic " << genome << " sequence...\n";
  const core::RealWorkload& real = evaluator->real(workload);
  std::cout << "  DFA: " << real.dfa().state_count() << " states, synchronization bound "
            << real.dfa().synchronization_bound() << " bp; sequential match count "
            << real.sequential_matches() << '\n';

  // Tune the live matcher: simulated annealing over the machine-sized space,
  // every candidate priced by a real timed scan.
  core::TuningSession session(opt::ConfigSpace::real());
  session.with_strategy("annealing")
      .with_evaluator(evaluator)
      .with_budget(budget + 1)
      .with_seed(42);
  std::cout << "Tuning the live matcher (" << budget << " timed iterations)...\n";
  const core::SessionReport tuned = session.run(workload);
  std::cout << "  chose " << opt::to_string(tuned.config) << " after " << tuned.evaluations
            << " real experiments\n";

  // Execute the winner once more as a host + device pair, reporting both
  // halves of the split.
  std::vector<core::PoolSpec> pair(2);
  pair[0].threads = static_cast<std::size_t>(tuned.config.host_threads);
  pair[0].share_percent = tuned.config.host_percent;
  pair[0].host_affinity = tuned.config.host_affinity;
  pair[1].threads = static_cast<std::size_t>(tuned.config.device_threads);
  pair[1].share_percent = 100.0 - tuned.config.host_percent;
  pair[1].device_affinity = tuned.config.device_affinity;
  core::HeterogeneousExecutor exec(real.dfa(), std::move(pair));
  util::Timer timer;
  const core::ExecutionReport report = exec.run_fleet(real.text());
  const double wall = timer.seconds();

  std::cout << "Scan complete in " << wall << " s (" << real.physical_mb() / wall
            << " MB/s overlapped)\n"
            << "  " << report.to_string() << "\n"
            << "  host share:   " << report.pools[0].bytes << " bytes, "
            << report.pools[0].matches << " motif hits\n"
            << "  device share: " << report.pools[1].bytes << " bytes, "
            << report.pools[1].matches << " motif hits\n";

  // Cross-check against the plain sequential scan.
  const std::uint64_t sequential = real.sequential_matches();
  std::cout << "  sequential verification: " << sequential
            << (sequential == report.total_matches() ? "  [OK]" : "  [MISMATCH!]") << '\n';
  return sequential == report.total_matches() ? 0 : 1;
}
