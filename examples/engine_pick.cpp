// Domain example: let the tuner pick the *scan engine*, not just the thread
// layout. Two contrasting motif sets are tuned with the engine axis enabled:
//
//   few long literals     a couple of 14-bp exact sites;
//   many short IUPAC      six ambiguous motifs, 33 bases in all.
//
// Both sets qualify for both engines (compiled DFA, bitap-simd): their summed
// lengths fit in the bitap's 64 state bits. For each set the example
// materializes a genome, reports which engines the motif set qualifies for
// (and why any is skipped), runs an exhaustive search over a small
// engine-enabled space where every candidate is priced by a real timed scan,
// and prints the engine inside the winning configuration.
//
// Run:  ./engine_pick [--genome=human] [--mb=4] [--fast]
#include <algorithm>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/hetopt.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace hetopt;
  const util::CliArgs args(argc, argv);
  const std::string genome = args.get("genome", std::string("human"));
  const double mb = args.get("mb", 4.0);
  // --fast swaps wall-clock for the deterministic work model (CI-friendly).
  const bool fast = args.flag("fast");
  if (!(mb > 0.0)) {
    std::cerr << "engine_pick: --mb must be > 0\n";
    return 2;
  }

  const dna::GenomeCatalog catalog;
  const dna::GenomeInfo* found = nullptr;
  try {
    found = &catalog.get(genome);
  } catch (const std::out_of_range& e) {
    std::cerr << "engine_pick: " << e.what() << '\n';
    return 2;
  }
  const dna::GenomeInfo& info = *found;
  const core::Workload workload(info.name, info.size_mb);

  struct MotifSet {
    const char* label;
    std::vector<std::string> motifs;
  };
  const std::vector<MotifSet> sets = {
      {"few long literals", {"GATTACAGATTACA", "CCCGGGTTTAAACC"}},
      {"many short IUPAC motifs",
       {"TATAWAW", "GGNCC", "CCWGG", "RRYYRR", "ACGTN", "TTSAA"}},
  };

  int status = 0;
  for (const MotifSet& set : sets) {
    std::cout << "=== " << set.label << " ===\n  motifs:";
    for (const std::string& m : set.motifs) std::cout << ' ' << m;
    std::cout << '\n';

    const auto requested_bytes = static_cast<std::size_t>(mb * 1024.0 * 1024.0);
    core::RealWorkloadOptions options;
    options.motifs = set.motifs;
    options.bytes_per_logical_mb = mb * 1024.0 * 1024.0 / info.size_mb;
    options.min_physical_bytes = std::min(options.min_physical_bytes, requested_bytes);
    options.max_physical_bytes = std::max(options.max_physical_bytes, requested_bytes);
    options.deterministic_timing = fast;
    const auto evaluator = std::make_shared<core::RealWorkloadEvaluator>(catalog, options);
    const core::RealWorkload& real = evaluator->real(workload);

    std::cout << "  " << util::format_double(real.physical_mb(), 1) << " MB of synthetic "
              << genome << ", " << real.sequential_matches() << " motif hits\n";
    for (const automata::EngineKind kind : automata::kAllEngineKinds) {
      if (real.find_engine(kind) != nullptr) {
        std::cout << "  engine " << automata::to_string(kind) << ": available\n";
      } else {
        std::cout << "  engine " << automata::to_string(kind) << ": skipped ("
                  << real.engine_gap(kind) << ")\n";
      }
    }

    // A small space — the interesting axis here is the engine — searched
    // exhaustively so the winner is the measured optimum, not a sample.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const std::vector<int> threads =
        hw > 1 ? std::vector<int>{1, static_cast<int>(hw)} : std::vector<int>{1};
    const opt::ConfigSpace space(
        threads, {parallel::HostAffinity::kNone}, threads,
        {parallel::DeviceAffinity::kBalanced}, {0.0, 50.0, 100.0}, real.engines());

    core::TuningSession session(space);
    session.with_strategy("exhaustive")
        .with_evaluator(evaluator)
        .with_budget(space.size())
        .with_seed(42);
    std::cout << "  tuning over " << space.size() << " configurations ("
              << real.engines().size() << " engines x threads x fractions)...\n";
    const core::SessionReport tuned = session.run(workload);

    const core::RealMeasurement best = evaluator->measure(tuned.config, workload);
    std::cout << "  winner: " << opt::to_string(tuned.config) << "\n"
              << "  -> the tuner picked the '" << automata::to_string(tuned.config.engine)
              << "' engine (" << util::format_double(best.throughput_mb_s, 0)
              << " MB/s, " << best.matches << " matches)\n";
    if (best.matches != real.sequential_matches()) {
      std::cout << "  [MISMATCH vs sequential scan!]\n";
      status = 1;
    }
  }
  return status;
}
