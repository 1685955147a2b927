// Domain example: let the tuner pick the *work-distribution schedule*, not
// just the thread layout. The schedule axis is enabled (static / dynamic /
// guided / adaptive) and an exhaustive search prices every candidate by a
// real timed scan of a materialized genome — so the winner is the measured
// optimum, including *how* chunks reach the two pools.
//
// The winning configuration is then executed once more through the
// heterogeneous executor, and the run's ExecutionReport is printed: under
// the shared-queue schedules the realized host fraction is an *outcome*
// (it emerges from chunk stealing at runtime), so the example closes by
// comparing it with the configured fraction.
//
// Run:  ./adaptive_split [--genome=human] [--mb=4] [--fast]
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
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
    std::cerr << "adaptive_split: --mb must be > 0\n";
    return 2;
  }

  const dna::GenomeCatalog catalog;
  const dna::GenomeInfo& info = catalog.get(genome);
  const core::Workload workload(info.name, info.size_mb);

  const auto requested_bytes = static_cast<std::size_t>(mb * 1024.0 * 1024.0);
  core::RealWorkloadOptions options;
  options.bytes_per_logical_mb = mb * 1024.0 * 1024.0 / info.size_mb;
  options.min_physical_bytes = std::min(options.min_physical_bytes, requested_bytes);
  options.max_physical_bytes = std::max(options.max_physical_bytes, requested_bytes);
  options.deterministic_timing = fast;
  const auto evaluator = std::make_shared<core::RealWorkloadEvaluator>(catalog, options);
  const core::RealWorkload& real = evaluator->real(workload);

  std::cout << "Tuning the work distribution for "
            << util::format_double(real.physical_mb(), 1) << " MB of synthetic "
            << genome << " (" << real.sequential_matches() << " motif hits)\n";

  // A small thread/fraction grid with the full schedule axis — the
  // interesting dimension here is *how* the bytes reach the pools.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::vector<int> threads =
      hw > 1 ? std::vector<int>{1, static_cast<int>(hw)} : std::vector<int>{1};
  const opt::ConfigSpace space =
      opt::ConfigSpace(threads, {parallel::HostAffinity::kNone}, threads,
                       {parallel::DeviceAffinity::kBalanced},
                       {0.0, 25.0, 50.0, 75.0, 100.0})
          .with_schedules({parallel::SchedulePolicy::kStatic,
                           parallel::SchedulePolicy::kDynamic,
                           parallel::SchedulePolicy::kGuided,
                           parallel::SchedulePolicy::kAdaptive});

  core::TuningSession session(space);
  session.with_strategy("exhaustive")
      .with_evaluator(evaluator)
      .with_budget(space.size())
      .with_seed(42);
  std::cout << "  searching " << space.size() << " configurations ("
            << space.schedules().size() << " schedules x threads x fractions)...\n";
  const core::SessionReport tuned = session.run(workload);

  std::cout << "  winner: " << opt::to_string(tuned.config) << "\n"
            << "  -> the tuner picked the '"
            << parallel::to_string(tuned.config.schedule) << "' schedule\n";

  // Execute the winner once more and show the distribution runtime's view.
  std::vector<core::PoolSpec> pair(2);
  pair[0].threads = static_cast<std::size_t>(tuned.config.host_threads);
  pair[0].share_percent = tuned.config.host_percent;
  pair[1].threads = static_cast<std::size_t>(tuned.config.device_threads);
  pair[1].share_percent = 100.0 - tuned.config.host_percent;
  core::HeterogeneousExecutor executor(real.engine(tuned.config.engine), std::move(pair));
  const core::ExecutionReport report = executor.run_fleet(real.text(), tuned.config.schedule);
  std::cout << "  " << report.to_string() << "\n"
            << "  realized host fraction "
            << util::format_trimmed(report.pools[0].realized_percent, 1)
            << "% vs configured " << util::format_trimmed(tuned.config.host_percent, 1)
            << "% (" << report.pools[0].steals << " host / " << report.pools[1].steals
            << " device chunks stolen)\n";

  const bool ok = report.total_matches() == real.sequential_matches();
  std::cout << "  sequential verification: " << real.sequential_matches()
            << (ok ? "  [OK]" : "  [MISMATCH!]") << '\n';
  return ok ? 0 : 1;
}
