// Unified benchmark runner: the one CLI behind tools/run_bench.sh. Where the
// fig*/tab*/ablation* harnesses print paper-shaped text tables, this runner
// measures the *real* PaREM-style matcher under the tuner and emits a
// machine-readable BENCH_*.json — the perf trajectory artifact every PR can
// compare against:
//
//   scan_kernel          single-thread kernel ladder: the seed per-byte scan
//                        loop (naive) vs the compiled kernels (byte-fused /
//                        paired 2-bases-per-step / multi-stream interleaved /
//                        chunk-parallel), MB/s and speedup-vs-naive per row.
//                        Exits non-zero when the fused kernel falls below a
//                        coarse 1.5x guard over naive (CI gate).
//   simd_matrix          the ISA tier measured for real: per-ISA whole-genome
//                        MB/s for the lane-parallel bitap (vs its scalar
//                        reference kernel), match parity per row as a hard
//                        exit gate; the >=2x-on-AVX2 expectation is recorded
//                        with a warning, never gated
//   matcher_throughput   chunk-parallel scan throughput (MB/s) vs chunk count
//   io_bound             the out-of-core streaming path measured for real:
//                        the same corpus scanned in memory, cold through a
//                        page cache whose resident budget is ~1/8 of the
//                        corpus, and warm with everything resident; a
//                        prefetch-depth sweep (cold stalls vs the depth-0
//                        baseline) and a resident-budget sweep. Match parity
//                        on every row is a hard exit gate; the warm >=80%
//                        and depth-2-stalls-below-depth-0 expectations gate
//                        too, except on single-hardware-thread hosts where
//                        they warn
//   engine_matrix        the match-engine axis measured for real: MB/s per
//                        engine (compiled-dfa / bitap-simd) x chunk
//                        count x motif-set shape, plus the tuned-winner
//                        engine per Table II preset on an engine-enabled
//                        space — which engine *should* the tuner pick for
//                        few long literals vs many short IUPAC motifs?
//   schedule_matrix      the work-distribution axis measured for real: MB/s
//                        per schedule policy (static / dynamic / guided /
//                        adaptive) x fraction x chunk count, a skew block
//                        (a deliberately wrong fraction, where the
//                        demand-driven schedules must recover what static
//                        wastes), and the tuned-winner policy per Table II
//                        preset on a schedule-enabled space
//   device_matrix        the fleet axis measured for real: the EM-real winner
//                        executed with 1..4 emulated-device pools (configured
//                        vs realized per-pool shares, steals, throughput —
//                        the configured shares come from the water-filling
//                        distribute oracle), and the tuned-winner fleet size
//                        per Table II preset on a device-count-enabled space
//   table2_real          the four Table II presets tuning the live matcher on
//                        a scaled-down genome (EM/SAM measure real runs;
//                        EML/SAML search on the sim-trained predictor and the
//                        winner is re-scored by a real run — the §IV-C
//                        protocol on live code)
//   fraction_profile     per-config real times along the fraction axis at the
//                        EM-real winner's thread/affinity setting
//   real_vs_simulated    the config the *simulator* picks vs the config the
//                        *real* matcher picks, both scored by real runs
//
// Run:  ./bench_main [--suite=smoke|full] [--out=BENCH_smoke.json]
//                    [--genome=human] [--scale=1024] [--iterations=60]
//                    [--repeats=1] [--seed=42]
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "automata/parallel_matcher.hpp"
#include "automata/simd/simd_kernels.hpp"
#include "automata/simd_engine.hpp"
#include "bench/common.hpp"
#include "core/hetopt.hpp"
#include "sim/multi.hpp"
#include "util/cli.hpp"
#include "util/cpu_features.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace {

using namespace hetopt;

/// CI gate: the fused kernel must beat the naive scanner by at least this
/// factor on the smoke input. Deliberately far below the expected speedup
/// (>=3x) so runner noise cannot flake the build.
constexpr double kKernelGuardMinSpeedup = 1.5;

/// Snap `config` onto the nearest point of `space` (axis-wise nearest value),
/// so a winner found on the paper's 240-thread grid can be executed on the
/// machine we actually have.
[[nodiscard]] opt::SystemConfig clamp_to_space(const opt::ConfigSpace& space,
                                               const opt::SystemConfig& config) {
  const auto nearest_int = [](const std::vector<int>& axis, int v) {
    int best = axis.front();
    for (const int a : axis) {
      if (std::abs(a - v) < std::abs(best - v)) best = a;
    }
    return best;
  };
  const auto nearest_double = [](const std::vector<double>& axis, double v) {
    double best = axis.front();
    for (const double a : axis) {
      if (std::abs(a - v) < std::abs(best - v)) best = a;
    }
    return best;
  };
  opt::SystemConfig c = config;
  c.host_threads = nearest_int(space.host_threads(), config.host_threads);
  c.device_threads = nearest_int(space.device_threads(), config.device_threads);
  c.host_percent = nearest_double(space.fractions(), config.host_percent);
  if (!space.contains(c)) c.host_affinity = space.host_affinities().front();
  if (!space.contains(c)) c.device_affinity = space.device_affinities().front();
  return c;
}

void write_config(util::JsonWriter& json, const opt::SystemConfig& c) {
  json.begin_object()
      .member("host_threads", c.host_threads)
      .member("host_affinity", parallel::to_string(c.host_affinity))
      .member("device_threads", c.device_threads)
      .member("device_affinity", parallel::to_string(c.device_affinity))
      .member("host_percent", c.host_percent)
      .member("engine", automata::to_string(c.engine))
      .member("schedule", parallel::to_string(c.schedule))
      .member("device_count", c.device_count)
      .end_object();
}

struct RealRow {
  std::string method;
  std::string strategy;
  std::string evaluator;
  std::size_t evaluations = 0;
  double search_wall_s = 0.0;
  double search_energy = 0.0;
  opt::SystemConfig config;
  core::RealMeasurement real;
  bool match_parity = false;
};

/// The host pool (pool 0) of a measurement's reported run; all zeros for an
/// invalid measurement, which reports no pools.
[[nodiscard]] core::PoolReport host_pool(const core::RealMeasurement& m) {
  return m.report.pools.empty() ? core::PoolReport{} : m.report.pools.front();
}

void write_real_row(util::JsonWriter& json, const RealRow& row) {
  json.begin_object()
      .member("method", row.method)
      .member("strategy", row.strategy)
      .member("evaluator", row.evaluator)
      .member("evaluations", row.evaluations)
      .member("search_wall_s", row.search_wall_s)
      .member("search_energy", row.search_energy)
      .member("real_time_s", row.real.seconds)
      .member("throughput_mb_s", row.real.throughput_mb_s)
      .member("matches", row.real.matches)
      .member("match_parity", row.match_parity)
      .key("winner");
  write_config(json, row.config);
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const std::string suite = args.get("suite", std::string("smoke"));
  const std::string out_path = args.get("out", std::string("BENCH_") + suite + ".json");
  const std::string genome = args.get("genome", std::string("human"));
  const double scale = args.get("scale", suite == "full" ? 4096.0 : 1024.0);
  const std::int64_t iterations_raw =
      args.get("iterations", std::int64_t{suite == "full" ? 300 : 60});
  const std::int64_t repeats_raw = args.get("repeats", std::int64_t{1});
  if (iterations_raw < 1 || repeats_raw < 1 || !(scale > 0.0)) {
    std::cerr << "bench_main: --iterations and --repeats must be >= 1, --scale > 0\n";
    return 2;
  }
  const auto iterations = static_cast<std::size_t>(iterations_raw);
  const auto repeats = static_cast<std::size_t>(repeats_raw);
  const auto seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{42}));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  const dna::GenomeCatalog catalog;
  const dna::GenomeInfo& info = catalog.get(genome);
  const core::Workload workload(info.name, info.size_mb);

  core::RealWorkloadOptions real_options;
  real_options.bytes_per_logical_mb = scale;
  real_options.repeats = repeats;
  const auto real_eval = std::make_shared<core::RealWorkloadEvaluator>(catalog, real_options);
  const core::RealWorkload& rw = real_eval->real(workload);
  const opt::ConfigSpace real_space = opt::ConfigSpace::real(hw);

  std::cout << "bench_main: suite=" << suite << " genome=" << genome << " ("
            << util::format_double(rw.physical_mb(), 2) << " MB physical, "
            << rw.sequential_matches() << " motif hits), space " << real_space.size()
            << " configs, " << hw << " hardware threads\n";

  util::JsonWriter json;
  json.begin_object()
      .member("schema", "hetopt-bench-v7")
      .member("suite", suite)
      .member("genome", genome)
      .member("logical_mb", workload.size_mb)
      .member("physical_mb", rw.physical_mb())
      .member("sequential_matches", rw.sequential_matches())
      .member("hardware_threads", static_cast<std::uint64_t>(hw))
      .member("real_space_size", real_space.size())
      .member("iterations", iterations)
      .member("seed", seed);

  // --- provenance -----------------------------------------------------------
  // Every BENCH_*.json records what silicon the numbers came from and which
  // ISA tier the SIMD engines actually ran — a row labeled "avx2" from a
  // forced-scalar run would be a lie, so the active level and the override
  // are part of the artifact (run_bench.sh validates this block).
  const char* const forced_env = std::getenv("HETOPT_FORCE_ISA");
  const util::IsaLevel active_isa = automata::simd::resolve_isa(std::nullopt);
  {
    json.key("provenance").begin_object();
    json.member("cpu_model", util::cpu_features().model_name);
    json.key("isa_detected").begin_array();
    for (const util::IsaLevel level : automata::simd::available_isas()) {
      json.value(util::to_string(level));
    }
    json.end_array();
    json.member("isa_active", util::to_string(active_isa));
    json.member("forced_isa", forced_env != nullptr ? forced_env : "");
    json.end_object();
    std::cout << "provenance: " << util::cpu_features().model_name << ", active ISA "
              << util::to_string(active_isa)
              << (forced_env != nullptr && forced_env[0] != '\0' ? " (forced)" : "")
              << "\n";
  }

  // --- scan_kernel ----------------------------------------------------------
  // The kernel ladder, all rows scanning the whole physical genome. The first
  // three rows are strictly single-threaded; multi_stream scans 8 chunks on
  // ONE worker, each split into interleaved sub-streams inside count()
  // (latency hiding, not parallelism); chunk_parallel adds the pool on top.
  // `speedup_fused_vs_naive` is the per-PR perf trajectory number and feeds
  // the CI guard.
  double fused_speedup = 0.0;
  bool kernel_parity = true;
  {
    const automata::CompiledDfa& kernel = rw.compiled();
    const std::string_view text = rw.text();
    const std::size_t kernel_reps = suite == "full" ? 5 : 3;
    struct KernelRow {
      const char* name = "";
      double seconds = 0.0;
      std::uint64_t matches = 0;
    };
    const auto timed = [&](const char* name, const std::function<std::uint64_t()>& fn) {
      KernelRow row;
      row.name = name;
      for (std::size_t rep = 0; rep < kernel_reps; ++rep) {
        util::Timer timer;
        const std::uint64_t matches = fn();
        const double seconds = timer.seconds();
        if (rep == 0 || seconds < row.seconds) row.seconds = seconds;
        row.matches = matches;
      }
      return row;
    };
    std::vector<KernelRow> kernel_rows;
    kernel_rows.push_back(timed("naive", [&] {
      return automata::scan_count_naive(rw.dfa(), text, rw.dfa().start()).match_count;
    }));
    kernel_rows.push_back(timed("fused", [&] {
      return kernel.count_fused(text, kernel.start()).match_count;
    }));
    kernel_rows.push_back(timed("paired", [&] {
      return kernel.count_paired(text, kernel.start()).match_count;
    }));
    parallel::ThreadPool single_pool(1);
    const automata::ParallelMatcher single_matcher(rw.dfa(), single_pool);
    kernel_rows.push_back(timed("multi_stream", [&] {
      return single_matcher.count(text, automata::CompiledDfa::kMaxStreams).match_count;
    }));
    parallel::ThreadPool wide_pool(hw);
    const automata::ParallelMatcher wide_matcher(rw.dfa(), wide_pool);
    kernel_rows.push_back(timed("chunk_parallel", [&] {
      return wide_matcher.count(text, hw * automata::CompiledDfa::kMaxStreams).match_count;
    }));

    const double naive_mb_s =
        kernel_rows.front().seconds > 0.0 ? rw.physical_mb() / kernel_rows.front().seconds
                                          : 0.0;
    json.key("scan_kernel").begin_object().key("rows").begin_array();
    for (const KernelRow& row : kernel_rows) {
      const double mb_s = row.seconds > 0.0 ? rw.physical_mb() / row.seconds : 0.0;
      const double speedup = naive_mb_s > 0.0 ? mb_s / naive_mb_s : 0.0;
      const bool parity = row.matches == rw.sequential_matches();
      kernel_parity = kernel_parity && parity;
      if (std::string_view(row.name) == "fused") fused_speedup = speedup;
      json.begin_object()
          .member("kernel", row.name)
          .member("seconds", row.seconds)
          .member("mb_s", mb_s)
          .member("matches", row.matches)
          .member("match_parity", parity)
          .member("speedup_vs_naive", speedup)
          .end_object();
      std::cout << "  scan_kernel " << row.name << ": "
                << util::format_double(mb_s, 1) << " MB/s ("
                << util::format_double(speedup, 2) << "x naive)\n";
    }
    json.end_array()
        .member("speedup_fused_vs_naive", fused_speedup)
        .member("guard_min_speedup", kKernelGuardMinSpeedup)
        .member("guard_ok", fused_speedup >= kKernelGuardMinSpeedup)
        .end_object();
  }

  // --- simd_matrix ----------------------------------------------------------
  // The ISA tier measured for real: every vector variant the host can run,
  // whole-genome MB/s against the scalar reference kernel (the one-stream
  // Shift-And every variant must reproduce). Match parity per row is a hard
  // exit gate (a fast wrong kernel is worthless); the 2x-on-AVX2
  // expectation is recorded with a warning, never gated — a noisy or narrow
  // runner must not flake CI over a throughput ratio.
  bool simd_parity = true;
  bool avx2_ge_2x_scalar = true;
  {
    const std::string_view text = rw.text();
    const std::size_t simd_reps = suite == "full" ? 5 : 3;
    const auto min_seconds = [&](const automata::MatchEngine& engine,
                                 std::uint64_t* matches) {
      double best = 0.0;
      for (std::size_t rep = 0; rep < simd_reps; ++rep) {
        util::Timer timer;
        *matches = engine.count(text);
        const double seconds = timer.seconds();
        if (rep == 0 || seconds < best) best = seconds;
      }
      return best;
    };
    const automata::BitapSimdEngine baseline(real_options.motifs, util::IsaLevel::kScalar);
    json.key("simd_matrix").begin_object().key("rows").begin_array();
    std::uint64_t matches = 0;
    const double base_seconds = min_seconds(baseline, &matches);
    const double base_mb_s = base_seconds > 0.0 ? rw.physical_mb() / base_seconds : 0.0;
    const bool base_parity = matches == rw.sequential_matches();
    simd_parity = simd_parity && base_parity;
    json.begin_object()
        .member("family", "bitap")
        .member("isa", "baseline")
        .member("engine", automata::to_string(baseline.kind()))
        .member("seconds", base_seconds)
        .member("mb_s", base_mb_s)
        .member("matches", matches)
        .member("match_parity", base_parity)
        .member("speedup_vs_scalar_engine", 1.0)
        .end_object();
    std::cout << "  simd_matrix bitap/baseline (scalar kernel): "
              << util::format_double(base_mb_s, 1) << " MB/s\n";
    for (const util::IsaLevel isa : automata::simd::available_isas()) {
      const automata::BitapSimdEngine engine(real_options.motifs, isa);
      const double seconds = min_seconds(engine, &matches);
      const double mb_s = seconds > 0.0 ? rw.physical_mb() / seconds : 0.0;
      const double speedup = base_mb_s > 0.0 ? mb_s / base_mb_s : 0.0;
      const bool parity = matches == rw.sequential_matches();
      simd_parity = simd_parity && parity;
      if (isa == util::IsaLevel::kAvx2 && speedup < 2.0) avx2_ge_2x_scalar = false;
      json.begin_object()
          .member("family", "bitap")
          .member("isa", util::to_string(isa))
          .member("engine", automata::to_string(engine.kind()))
          .member("seconds", seconds)
          .member("mb_s", mb_s)
          .member("matches", matches)
          .member("match_parity", parity)
          .member("speedup_vs_scalar_engine", speedup)
          .end_object();
      std::cout << "  simd_matrix bitap/" << util::to_string(isa) << ": "
                << util::format_double(mb_s, 1) << " MB/s ("
                << util::format_double(speedup, 2) << "x scalar kernel)\n";
    }
    json.end_array()
        .member("parity_ok", simd_parity)
        .member("avx2_ge_2x_scalar", avx2_ge_2x_scalar)
        .end_object();
  }

  // --- matcher_throughput ---------------------------------------------------
  {
    json.key("matcher_throughput").begin_array();
    parallel::ThreadPool pool(hw);
    const automata::ParallelMatcher matcher(rw.dfa(), pool);
    for (std::size_t chunks = 1; chunks <= 2 * hw; chunks *= 2) {
      util::Timer timer;
      const automata::ParallelScanStats stats = matcher.count(rw.text(), chunks);
      const double seconds = timer.seconds();
      json.begin_object()
          .member("chunks", chunks)
          .member("seconds", seconds)
          .member("mb_s", seconds > 0.0 ? rw.physical_mb() / seconds : 0.0)
          .member("matches", stats.match_count)
          .member("match_parity", stats.match_count == rw.sequential_matches())
          .end_object();
    }
    json.end_array();
  }

  // --- io_bound -------------------------------------------------------------
  // The out-of-core streaming path measured for real: the same genome scanned
  // (a) in memory, (b) cold through a bounded page cache whose resident
  // budget is at most 1/8 of the corpus (genuinely out-of-core), and
  // (c) warm with everything resident (the pure paging overhead). Match
  // parity on every row is a hard exit gate. The prefetch-depth sweep
  // compares consumer cold-stall counts against the depth-0 baseline —
  // depth >= 2 must stall strictly less (warn-not-gate on one hardware
  // thread, where compute cannot overlap IO); the warm row must hold >= 80%
  // of the in-memory throughput under the same escape.
  bool io_parity = true;
  bool io_warm_ok = true;
  bool io_stall_ok = true;
  {
    const std::string_view text = rw.text();
    const std::string corpus(text);
    const std::size_t io_reps = suite == "full" ? 5 : 3;
    const bool single_hw = hw == 1;
    parallel::ThreadPool pool(hw);
    const automata::ParallelMatcher matcher(rw.dfa(), pool);
    // The paged rows run on a one-pool fleet of the same width.
    std::vector<core::PoolSpec> io_fleet(1);
    io_fleet[0].threads = hw;
    io_fleet[0].share_percent = 100.0;
    core::HeterogeneousExecutor paged_exec(rw.dfa(), io_fleet);
    const std::size_t default_depth = core::PagedFleetOptions{}.prefetch_depth;

    // Geometry: the budget covers the pool's workers plus prefetch headroom;
    // the page size is derived so the corpus is at least 8x the resident
    // bytes (recorded — tiny corpora can fall short of the ratio).
    const std::size_t resident = std::max<std::size_t>(hw + 4, 8);
    const std::size_t page_bytes =
        std::max<std::size_t>(std::size_t{4} * 1024, corpus.size() / (8 * resident));
    const std::size_t total_pages = (corpus.size() + page_bytes - 1) / page_bytes;
    const double corpus_over_budget =
        static_cast<double>(corpus.size()) /
        static_cast<double>(resident * page_bytes);
    const auto fresh_genome = [&](std::size_t budget) {
      dna::PagedGenomeOptions gopts;
      gopts.page_bytes = page_bytes;
      gopts.resident_pages = budget;
      return dna::PagedGenome(std::make_unique<dna::BufferPageSource>(corpus), gopts);
    };
    // One paged scan: its report, its wall time, and the cache activity it
    // caused (the stats are reset first).
    struct PagedRun {
      core::ExecutionReport report;
      double seconds = 0.0;
      dna::CacheStats cache;
    };
    const auto paged_run = [&](dna::PagedGenome& genome, std::size_t depth) {
      core::PagedFleetOptions options;
      options.prefetch_depth = depth;
      genome.reset_stats();
      PagedRun run;
      const util::Timer timer;
      run.report = paged_exec.run_fleet_paged(genome, options);
      run.seconds = timer.seconds();
      run.cache = genome.stats();
      return run;
    };

    json.key("io_bound").begin_object();
    json.member("corpus_bytes", corpus.size())
        .member("page_bytes", page_bytes)
        .member("resident_pages", resident)
        .member("corpus_over_budget", corpus_over_budget)
        .member("budget_ratio_ge_8", corpus_over_budget >= 8.0)
        .member("single_hw_thread", single_hw);

    // (a) In-memory baseline: the PR-1 chunk-parallel scan of the same bytes
    // on a pool of the same width — what the streaming path is allowed to
    // cost against.
    double memory_seconds = 0.0;
    {
      std::uint64_t matches = 0;
      for (std::size_t rep = 0; rep < io_reps; ++rep) {
        util::Timer timer;
        matches = matcher.count(text, hw).match_count;
        const double s = timer.seconds();
        if (rep == 0 || s < memory_seconds) memory_seconds = s;
      }
      const bool parity = matches == rw.sequential_matches();
      io_parity = io_parity && parity;
      json.key("in_memory")
          .begin_object()
          .member("seconds", memory_seconds)
          .member("mb_s", memory_seconds > 0.0 ? rw.physical_mb() / memory_seconds : 0.0)
          .member("matches", matches)
          .member("match_parity", parity)
          .end_object();
    }
    const double memory_mb_s =
        memory_seconds > 0.0 ? rw.physical_mb() / memory_seconds : 0.0;

    // (b) Cold out-of-core scan: a fresh cache every repetition, the default
    // prefetch depth. This is the headline "corpus 8x the budget" row.
    {
      PagedRun best;
      for (std::size_t rep = 0; rep < io_reps; ++rep) {
        dna::PagedGenome genome = fresh_genome(resident);
        PagedRun s = paged_run(genome, default_depth);
        if (rep == 0 || s.seconds < best.seconds) best = std::move(s);
      }
      const std::uint64_t matches = best.report.total_matches();
      const bool parity = matches == rw.sequential_matches();
      io_parity = io_parity && parity;
      json.key("cold")
          .begin_object()
          .member("seconds", best.seconds)
          .member("mb_s", best.seconds > 0.0 ? rw.physical_mb() / best.seconds : 0.0)
          .member("matches", matches)
          .member("match_parity", parity)
          .member("prefetch_depth", best.report.prefetch_depth)
          .member("pages", total_pages)
          .member("loads", best.cache.loads)
          .member("evictions", best.cache.evictions)
          .member("cold_stalls", best.cache.cold_stalls)
          .member("cold_stall_seconds", best.cache.cold_stall_seconds)
          .member("bytes_read", best.cache.bytes_read)
          .member("pages_prefetched", best.report.prefetch.pages_prefetched)
          .member("overlap_efficiency", best.cache.overlap_efficiency())
          .end_object();
      std::cout << "  io_bound cold: "
                << util::format_double(
                       best.seconds > 0.0 ? rw.physical_mb() / best.seconds : 0.0, 1)
                << " MB/s over " << total_pages << " pages ("
                << util::format_double(corpus_over_budget, 1)
                << "x the resident budget), overlap "
                << util::format_double(best.cache.overlap_efficiency(), 3) << "\n";
    }

    // (c) Warm scan: everything resident after a priming pass, prefetch off —
    // the pure cost of chunk-wise pin/unpin against the in-memory baseline.
    {
      dna::PagedGenome genome = fresh_genome(total_pages);
      (void)paged_run(genome, 0);  // prime every page
      PagedRun best;
      for (std::size_t rep = 0; rep < io_reps; ++rep) {
        PagedRun s = paged_run(genome, 0);
        if (rep == 0 || s.seconds < best.seconds) best = std::move(s);
      }
      const std::uint64_t matches = best.report.total_matches();
      const bool parity = matches == rw.sequential_matches();
      io_parity = io_parity && parity;
      const double warm_mb_s = best.seconds > 0.0 ? rw.physical_mb() / best.seconds : 0.0;
      constexpr double kWarmTolerance = 0.80;
      io_warm_ok = single_hw || memory_mb_s <= 0.0 ||
                   warm_mb_s >= kWarmTolerance * memory_mb_s;
      if (!io_warm_ok) {
        std::cerr << "bench_main: io_bound warm throughput "
                  << util::format_double(warm_mb_s, 1) << " MB/s below "
                  << kWarmTolerance << "x the in-memory baseline ("
                  << util::format_double(memory_mb_s, 1) << " MB/s)\n";
      }
      json.key("warm")
          .begin_object()
          .member("seconds", best.seconds)
          .member("mb_s", warm_mb_s)
          .member("matches", matches)
          .member("match_parity", parity)
          .member("loads", best.cache.loads)
          .member("hits", best.cache.hits)
          .member("warm_over_in_memory",
                  memory_mb_s > 0.0 ? warm_mb_s / memory_mb_s : 0.0)
          .member("tolerance", kWarmTolerance)
          .member("warm_ok", io_warm_ok)
          .end_object();
      std::cout << "  io_bound warm: " << util::format_double(warm_mb_s, 1)
                << " MB/s (" << util::format_double(
                       memory_mb_s > 0.0 ? warm_mb_s / memory_mb_s : 0.0, 2)
                << "x in-memory)\n";
    }

    // Prefetch-depth sweep on the cold 8x corpus: how much consumer stall
    // time the background reader absorbs, depth 0 as the no-pipeline
    // baseline.
    {
      std::uint64_t stalls_depth0 = 0;
      std::uint64_t stalls_depth2 = 0;
      json.key("prefetch_sweep").begin_array();
      for (const std::size_t depth : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                      std::size_t{4}}) {
        PagedRun best;
        for (std::size_t rep = 0; rep < io_reps; ++rep) {
          dna::PagedGenome genome = fresh_genome(resident);
          PagedRun s = paged_run(genome, depth);
          if (rep == 0 || s.seconds < best.seconds) best = std::move(s);
        }
        const std::uint64_t matches = best.report.total_matches();
        const bool parity = matches == rw.sequential_matches();
        io_parity = io_parity && parity;
        if (depth == 0) stalls_depth0 = best.cache.cold_stalls;
        if (depth == 2) stalls_depth2 = best.cache.cold_stalls;
        json.begin_object()
            .member("depth", depth)
            .member("effective_depth", best.report.prefetch_depth)
            .member("seconds", best.seconds)
            .member("mb_s", best.seconds > 0.0 ? rw.physical_mb() / best.seconds : 0.0)
            .member("matches", matches)
            .member("match_parity", parity)
            .member("cold_stalls", best.cache.cold_stalls)
            .member("cold_stall_seconds", best.cache.cold_stall_seconds)
            .member("pages_prefetched", best.report.prefetch.pages_prefetched)
            .member("ring_full_waits", best.report.prefetch.ring_full_waits)
            .member("overlap_efficiency", best.cache.overlap_efficiency())
            .end_object();
        std::cout << "  io_bound depth " << depth << ": "
                  << best.cache.cold_stalls << " cold stalls, overlap "
                  << util::format_double(best.cache.overlap_efficiency(), 3) << "\n";
      }
      io_stall_ok = single_hw || stalls_depth2 < stalls_depth0;
      if (!io_stall_ok) {
        std::cerr << "bench_main: io_bound prefetch depth 2 did not reduce cold "
                     "stalls ("
                  << stalls_depth2 << " vs " << stalls_depth0 << " at depth 0)\n";
      }
      json.end_array()
          .member("depth0_cold_stalls", stalls_depth0)
          .member("depth2_cold_stalls", stalls_depth2)
          .member("stall_ok", io_stall_ok);
    }

    // Resident-budget sweep: throughput and eviction traffic as the cache
    // grows from the floor toward everything-resident.
    {
      std::vector<std::size_t> budgets{resident};
      if (2 * resident < total_pages) budgets.push_back(2 * resident);
      if (4 * resident < total_pages) budgets.push_back(4 * resident);
      budgets.push_back(total_pages);
      json.key("budget_sweep").begin_array();
      for (const std::size_t budget : budgets) {
        PagedRun best;
        for (std::size_t rep = 0; rep < io_reps; ++rep) {
          dna::PagedGenome genome = fresh_genome(budget);
          PagedRun s = paged_run(genome, default_depth);
          if (rep == 0 || s.seconds < best.seconds) best = std::move(s);
        }
        const std::uint64_t matches = best.report.total_matches();
        const bool parity = matches == rw.sequential_matches();
        io_parity = io_parity && parity;
        json.begin_object()
            .member("resident_pages", budget)
            .member("seconds", best.seconds)
            .member("mb_s", best.seconds > 0.0 ? rw.physical_mb() / best.seconds : 0.0)
            .member("matches", matches)
            .member("match_parity", parity)
            .member("loads", best.cache.loads)
            .member("evictions", best.cache.evictions)
            .end_object();
      }
      json.end_array();
    }
    json.end_object();
  }

  // --- table2_real ----------------------------------------------------------
  // The sim-trained predictor drives the ML presets; their winners are then
  // measured on the live matcher (what §IV-C calls "for fair comparison").
  std::cout << "training the predictor (" << (suite == "full" ? "paper" : "tiny")
            << " sweep)...\n";
  const sim::Machine machine = sim::emil_machine();
  const core::TrainingData data = core::generate_training_data(
      machine, catalog,
      suite == "full" ? core::TrainingSweepOptions::paper() : core::TrainingSweepOptions::tiny());
  core::PerformancePredictor predictor;
  predictor.train(data.host, data.device);
  const auto prediction = std::make_shared<core::PredictionEvaluator>(predictor, machine);

  std::vector<RealRow> rows;
  const auto run_preset = [&](const std::string& method, const char* strategy_name,
                              const std::shared_ptr<core::Evaluator>& evaluator) {
    core::TuningSession session(real_space);
    session.with_strategy(strategy_name)
        .with_evaluator(evaluator)
        .with_budget(strategy_name == std::string_view("exhaustive") ? real_space.size()
                                                                     : iterations + 1)
        .with_seed(seed);
    util::Timer timer;
    const core::SessionReport report = session.run(workload);
    RealRow row;
    row.method = method;
    row.strategy = report.strategy;
    row.evaluator = report.evaluator;
    row.evaluations = report.evaluations;
    row.search_wall_s = timer.seconds();
    row.search_energy = report.search_energy;
    row.config = report.config;
    row.real = real_eval->measure(report.config, workload);
    row.match_parity = row.real.matches == rw.sequential_matches();
    rows.push_back(row);
    std::cout << "  " << method << ": " << opt::to_string(row.config) << "  real "
              << util::format_double(row.real.seconds, 4) << " s, "
              << row.evaluations << " evals, search "
              << util::format_double(row.search_wall_s, 2) << " s\n";
  };
  run_preset("EM", "exhaustive", real_eval);
  run_preset("EML", "exhaustive", prediction);
  run_preset("SAM", "annealing", real_eval);
  run_preset("SAML", "annealing", prediction);

  json.key("table2_real").begin_array();
  for (const RealRow& row : rows) write_real_row(json, row);
  json.end_array();

  // --- engine_matrix --------------------------------------------------------
  // The match-engine axis, measured for real across contrasting motif-set
  // shapes: raw chunk-parallel MB/s per applicable engine x chunk count, and
  // the engine each Table II preset's tuner picks when the axis is enabled.
  // The ML presets search on the sim-trained predictor, which has seen no
  // engine variation, so their winner engine reflects prediction ties — the
  // honest statement of what EML/SAML can know without engine-varied
  // training data.
  {
    const std::size_t engine_reps = suite == "full" ? 3 : 2;
    std::vector<std::size_t> chunk_axis{1};
    if (hw > 1) chunk_axis.push_back(hw);
    chunk_axis.push_back(2 * hw);
    // A deliberately small thread/fraction grid so the exhaustive preset
    // stays cheap: the interesting axis here is the engine.
    const std::vector<int> host_axis = hw > 1 ? std::vector<int>{1, static_cast<int>(hw)}
                                              : std::vector<int>{1};
    const std::vector<int> device_axis = host_axis;

    json.key("engine_matrix").begin_array();
    for (const bench::MotifSet& set : bench::engine_matrix_motif_sets()) {
      core::RealWorkloadOptions set_options;
      set_options.motifs = set.motifs;
      set_options.bytes_per_logical_mb = scale;
      set_options.repeats = repeats;
      const auto set_eval =
          std::make_shared<core::RealWorkloadEvaluator>(catalog, set_options);
      const core::RealWorkload& set_rw = set_eval->real(workload);
      const std::vector<automata::EngineKind> available = set_rw.engines();

      json.begin_object().member("motif_set", set.name).key("motifs").begin_array();
      for (const std::string& m : set.motifs) json.value(m);
      json.end_array().key("available_engines").begin_array();
      for (const automata::EngineKind kind : available) {
        json.value(automata::to_string(kind));
      }
      json.end_array().key("skipped").begin_array();
      for (const automata::EngineKind kind : automata::kAllEngineKinds) {
        if (set_rw.find_engine(kind) != nullptr) continue;
        json.begin_object()
            .member("engine", automata::to_string(kind))
            .member("reason", set_rw.engine_gap(kind))
            .end_object();
      }
      json.end_array();

      // Raw chunk-parallel throughput per engine x chunk count.
      parallel::ThreadPool pool(hw);
      json.key("throughput").begin_array();
      for (const automata::EngineKind kind : available) {
        const automata::ParallelMatcher matcher(set_rw.engine(kind), pool);
        double best_mb_s = 0.0;
        for (const std::size_t chunks : chunk_axis) {
          double seconds = 0.0;
          std::uint64_t matches = 0;
          for (std::size_t rep = 0; rep < engine_reps; ++rep) {
            util::Timer timer;
            matches = matcher.count(set_rw.text(), chunks).match_count;
            const double s = timer.seconds();
            if (rep == 0 || s < seconds) seconds = s;
          }
          const double mb_s = seconds > 0.0 ? set_rw.physical_mb() / seconds : 0.0;
          best_mb_s = std::max(best_mb_s, mb_s);
          json.begin_object()
              .member("engine", automata::to_string(kind))
              .member("chunks", chunks)
              .member("seconds", seconds)
              .member("mb_s", mb_s)
              .member("matches", matches)
              .member("match_parity", matches == set_rw.sequential_matches())
              .end_object();
        }
        std::cout << "  engine_matrix " << set.name << " " << automata::to_string(kind)
                  << ": best " << util::format_double(best_mb_s, 1) << " MB/s\n";
      }
      json.end_array();

      // Tuned-winner engine per Table II preset over the engine-enabled grid.
      const opt::ConfigSpace engine_space(
          host_axis,
          {parallel::HostAffinity::kNone},
          device_axis,
          {parallel::DeviceAffinity::kBalanced},
          {0.0, 50.0, 100.0},
          available);
      json.key("tuned").begin_array();
      const auto tune_preset = [&](const std::string& method, const char* strategy_name,
                                   const std::shared_ptr<core::Evaluator>& evaluator) {
        core::TuningSession session(engine_space);
        session.with_strategy(strategy_name)
            .with_evaluator(evaluator)
            .with_budget(strategy_name == std::string_view("exhaustive")
                             ? engine_space.size()
                             : iterations + 1)
            .with_seed(seed);
        const core::SessionReport report = session.run(workload);
        const core::RealMeasurement real = set_eval->measure(report.config, workload);
        json.begin_object()
            .member("method", method)
            .member("engine", automata::to_string(report.config.engine))
            .member("evaluations", report.evaluations)
            .member("real_time_s", real.seconds)
            .member("throughput_mb_s", real.throughput_mb_s)
            .member("match_parity", real.matches == set_rw.sequential_matches())
            .key("winner");
        write_config(json, report.config);
        json.end_object();
        std::cout << "  engine_matrix " << set.name << " " << method << " -> "
                  << automata::to_string(report.config.engine) << " ("
                  << opt::to_string(report.config) << ")\n";
      };
      tune_preset("EM", "exhaustive", set_eval);
      tune_preset("EML", "exhaustive", prediction);
      tune_preset("SAM", "annealing", set_eval);
      tune_preset("SAML", "annealing", prediction);
      json.end_array().end_object();
    }
    json.end_array();
  }

  // --- schedule_matrix ------------------------------------------------------
  // The work-distribution axis, measured for real: raw executor throughput
  // per schedule policy x fraction x chunk count, a skew block where the
  // configured fraction is deliberately wrong (static wastes a pool; the
  // shared-queue schedules recover it), and the policy each Table II preset
  // tunes to when the axis is enabled.
  bool schedule_parity = true;
  {
    const std::size_t sched_reps = suite == "full" ? 3 : 2;
    // One host + device pair per chunk count (PoolSpec::chunks cuts each
    // pool's segment), built on first use.
    std::map<std::size_t, std::unique_ptr<core::HeterogeneousExecutor>> executors;
    const auto executor_for = [&](std::size_t chunks_per_side) -> core::HeterogeneousExecutor& {
      std::unique_ptr<core::HeterogeneousExecutor>& slot = executors[chunks_per_side];
      if (!slot) {
        std::vector<core::PoolSpec> specs(2);
        for (core::PoolSpec& spec : specs) {
          spec.threads = hw;
          spec.share_percent = 50.0;
          spec.chunks = chunks_per_side;
        }
        slot = std::make_unique<core::HeterogeneousExecutor>(
            rw.engine(automata::EngineKind::kCompiledDfa), std::move(specs));
      }
      return *slot;
    };
    const auto best_run = [&](double fraction, std::size_t chunks_per_side,
                              parallel::SchedulePolicy policy, std::size_t reps) {
      core::HeterogeneousExecutor& executor = executor_for(chunks_per_side);
      core::ExecutionReport best;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const core::ExecutionReport r =
            executor.run_fleet(rw.text(), {fraction, 100.0 - fraction}, policy);
        if (rep == 0 || r.total_seconds < best.total_seconds) best = r;
      }
      return best;
    };
    const auto write_schedule_row = [&](const core::ExecutionReport& r,
                                        std::size_t chunks_per_side) {
      const double mb_s =
          r.total_seconds > 0.0 ? rw.physical_mb() / r.total_seconds : 0.0;
      const bool parity = r.total_matches() == rw.sequential_matches();
      schedule_parity = schedule_parity && parity;
      json.begin_object()
          .member("schedule", parallel::to_string(r.schedule))
          .member("host_percent", r.pools[0].configured_percent)
          .member("chunks_per_side", chunks_per_side)
          .member("seconds", r.total_seconds)
          .member("mb_s", mb_s)
          .member("matches", r.total_matches())
          .member("match_parity", parity)
          .member("realized_host_percent", r.pools[0].realized_percent)
          .member("host_steals", r.pools[0].steals)
          .member("device_steals", r.pools[1].steals)
          .member("imbalance", r.imbalance)
          .end_object();
      return mb_s;
    };

    json.key("schedule_matrix").begin_object();
    json.key("throughput").begin_array();
    for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
      double best_mb_s = 0.0;
      for (const double fraction : {0.0, 50.0, 100.0}) {
        for (const std::size_t mult : {std::size_t{1}, std::size_t{4}}) {
          const core::ExecutionReport r =
              best_run(fraction, hw * mult, policy, sched_reps);
          best_mb_s = std::max(best_mb_s, write_schedule_row(r, hw * mult));
        }
      }
      std::cout << "  schedule_matrix " << parallel::to_string(policy) << ": best "
                << util::format_double(best_mb_s, 1) << " MB/s\n";
    }
    json.end_array();

    // Skew block: 90% of the bytes configured onto the host while a
    // same-size device pool idles. Static pays the full imbalance; every
    // demand-driven policy should at least match it (tolerance absorbs
    // wall-clock noise on small machines, where all policies tie).
    {
      constexpr double kSkewFraction = 90.0;
      // On multi-core machines the demand-driven schedules clearly beat a
      // skewed static split, and the tolerance only absorbs runner noise.
      // On a single hardware thread there is no parallelism to recover —
      // every policy does the same total work and only queue overhead
      // separates them — so the comparison carries no signal: the rows are
      // still emitted, but the flags pass trivially and say so via
      // `single_hw_thread`.
      constexpr double kSkewTolerance = 0.90;
      const bool single_hw = hw == 1;
      const std::size_t skew_reps = std::max<std::size_t>(5, sched_reps);
      double mb_s_by_policy[parallel::kSchedulePolicyCount] = {};
      json.key("skew").begin_object();
      json.member("host_percent", kSkewFraction).key("rows").begin_array();
      for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
        const core::ExecutionReport r =
            best_run(kSkewFraction, hw * 8, policy, skew_reps);
        mb_s_by_policy[static_cast<std::size_t>(policy)] =
            write_schedule_row(r, hw * 8);
        std::cout << "  schedule_matrix skew " << r.to_string() << "\n";
      }
      const double static_mb_s =
          mb_s_by_policy[static_cast<std::size_t>(parallel::SchedulePolicy::kStatic)];
      const auto ge_static = [&](parallel::SchedulePolicy p) {
        if (single_hw) return true;  // no parallelism to compare — see above
        const bool ok = mb_s_by_policy[static_cast<std::size_t>(p)] >=
                        kSkewTolerance * static_mb_s;
        // Recorded, not a hard CI gate like match parity: these are
        // wall-clock comparisons on whatever hardware runs the bench, and
        // failing the build on runner noise would teach people to ignore
        // it. A false flag in the artifact is the loud signal.
        if (!ok) {
          std::cerr << "bench_main: WARNING: " << parallel::to_string(p)
                    << " fell below " << kSkewTolerance
                    << "x static on the skewed workload\n";
        }
        return ok;
      };
      json.end_array()
          .member("tolerance", kSkewTolerance)
          .member("single_hw_thread", single_hw)
          .member("dynamic_ge_static", ge_static(parallel::SchedulePolicy::kDynamic))
          .member("guided_ge_static", ge_static(parallel::SchedulePolicy::kGuided))
          .member("adaptive_ge_static", ge_static(parallel::SchedulePolicy::kAdaptive))
          .end_object();
    }

    // Tuned-winner policy per Table II preset over a schedule-enabled grid
    // (small thread/fraction axes — the interesting axis is the schedule).
    // The ML presets search the sim-trained predictor, which has seen no
    // schedule variation, so their pick only reflects prediction ties.
    {
      const std::vector<int> threads_axis =
          hw > 1 ? std::vector<int>{1, static_cast<int>(hw)} : std::vector<int>{1};
      const opt::ConfigSpace sched_space(
          threads_axis, {parallel::HostAffinity::kNone}, threads_axis,
          {parallel::DeviceAffinity::kBalanced}, {0.0, 50.0, 100.0},
          {automata::EngineKind::kCompiledDfa},
          {parallel::SchedulePolicy::kStatic, parallel::SchedulePolicy::kDynamic,
           parallel::SchedulePolicy::kGuided, parallel::SchedulePolicy::kAdaptive});
      json.key("tuned").begin_array();
      const auto tune_preset = [&](const std::string& method, const char* strategy_name,
                                   const std::shared_ptr<core::Evaluator>& evaluator) {
        core::TuningSession session(sched_space);
        session.with_strategy(strategy_name)
            .with_evaluator(evaluator)
            .with_budget(strategy_name == std::string_view("exhaustive")
                             ? sched_space.size()
                             : iterations + 1)
            .with_seed(seed);
        const core::SessionReport report = session.run(workload);
        const core::RealMeasurement real = real_eval->measure(report.config, workload);
        const bool parity = real.matches == rw.sequential_matches();
        schedule_parity = schedule_parity && parity;
        json.begin_object()
            .member("method", method)
            .member("schedule", parallel::to_string(report.config.schedule))
            .member("evaluations", report.evaluations)
            .member("real_time_s", real.seconds)
            .member("throughput_mb_s", real.throughput_mb_s)
            .member("realized_host_percent", host_pool(real).realized_percent)
            .member("match_parity", parity)
            .key("winner");
        write_config(json, report.config);
        json.end_object();
        std::cout << "  schedule_matrix " << method << " -> "
                  << parallel::to_string(report.config.schedule) << " ("
                  << opt::to_string(report.config) << ")\n";
      };
      tune_preset("EM", "exhaustive", real_eval);
      tune_preset("EML", "exhaustive", prediction);
      tune_preset("SAM", "annealing", real_eval);
      tune_preset("SAML", "annealing", prediction);
      json.end_array();
    }
    json.end_object();
  }

  // --- device_matrix --------------------------------------------------------
  // The fleet axis measured for real. The profile block executes the EM-real
  // winner with 1..4 emulated-device pools: the device remainder of the
  // configured fraction is water-filled across the K devices by
  // sim::MultiDeviceMachine::distribute (so identical devices finish
  // together), and the rows record both the configured and the realized
  // per-pool shares plus the steal traffic — the bench-side face of the
  // distribute differential oracle. The tuned block then lets each Table II
  // preset pick the fleet size on a device-count-enabled grid; the ML
  // presets price fleets through the predictor's water-filled fleet
  // extension of Eq. 2.
  bool device_parity = true;
  {
    json.key("device_matrix").begin_object();
    json.key("profile").begin_array();
    for (int devices = 1; devices <= 4; ++devices) {
      opt::SystemConfig c = rows.front().config;
      c.device_count = devices;
      const core::RealMeasurement m = real_eval->measure(c, workload);
      const bool parity = m.matches == rw.sequential_matches();
      device_parity = device_parity && parity;
      const sim::ShareVector shares = sim::emil_with_phis(static_cast<std::size_t>(devices))
                                          .distribute(rw.physical_mb(), c.host_percent,
                                                      c.host_threads, c.host_affinity,
                                                      c.device_threads, c.device_affinity);
      const std::vector<core::PoolReport>& pools = m.report.pools;
      json.begin_object()
          .member("device_count", devices)
          .member("pool_count", devices + 1)
          .member("seconds", m.seconds)
          .member("throughput_mb_s", m.throughput_mb_s)
          .member("matches", m.matches)
          .member("match_parity", parity)
          .member("imbalance", m.report.imbalance)
          .member("sim_makespan_s", shares.makespan_s);
      json.key("configured_percents").begin_array();
      for (const core::PoolReport& pool : pools) json.value(pool.configured_percent);
      json.end_array().key("realized_percents").begin_array();
      for (const core::PoolReport& pool : pools) json.value(pool.realized_percent);
      json.end_array().key("pool_steals").begin_array();
      for (const core::PoolReport& pool : pools) json.value(pool.steals);
      json.end_array().end_object();
      std::cout << "  device_matrix " << devices << " device"
                << (devices == 1 ? "" : "s") << ": "
                << util::format_double(m.throughput_mb_s, 1) << " MB/s, host "
                << util::format_double(host_pool(m).realized_percent, 1)
                << "% realized (configured "
                << util::format_double(host_pool(m).configured_percent, 1)
                << "%)\n";
    }
    json.end_array();

    // Tuned-winner fleet size per Table II preset over a device-count-enabled
    // grid (small thread/fraction axes — the interesting axis is the fleet).
    {
      const std::vector<int> threads_axis =
          hw > 1 ? std::vector<int>{1, static_cast<int>(hw)} : std::vector<int>{1};
      const opt::ConfigSpace device_space =
          opt::ConfigSpace(threads_axis, {parallel::HostAffinity::kNone}, threads_axis,
                           {parallel::DeviceAffinity::kBalanced}, {0.0, 50.0, 100.0},
                           {automata::EngineKind::kCompiledDfa})
              .with_device_counts({1, 2, 3, 4});
      json.key("tuned").begin_array();
      const auto tune_preset = [&](const std::string& method, const char* strategy_name,
                                   const std::shared_ptr<core::Evaluator>& evaluator) {
        core::TuningSession session(device_space);
        session.with_strategy(strategy_name)
            .with_evaluator(evaluator)
            .with_budget(strategy_name == std::string_view("exhaustive")
                             ? device_space.size()
                             : iterations + 1)
            .with_seed(seed);
        const core::SessionReport report = session.run(workload);
        const core::RealMeasurement real = real_eval->measure(report.config, workload);
        const bool parity = real.matches == rw.sequential_matches();
        device_parity = device_parity && parity;
        json.begin_object()
            .member("method", method)
            .member("device_count", report.config.device_count)
            .member("evaluations", report.evaluations)
            .member("real_time_s", real.seconds)
            .member("throughput_mb_s", real.throughput_mb_s)
            .member("match_parity", parity)
            .key("winner");
        write_config(json, report.config);
        json.end_object();
        std::cout << "  device_matrix " << method << " -> "
                  << report.config.device_count << " device"
                  << (report.config.device_count == 1 ? "" : "s") << " ("
                  << opt::to_string(report.config) << ")\n";
      };
      tune_preset("EM", "exhaustive", real_eval);
      tune_preset("EML", "exhaustive", prediction);
      tune_preset("SAM", "annealing", real_eval);
      tune_preset("SAML", "annealing", prediction);
      json.end_array();
    }
    json.end_object();
  }

  // --- fault_matrix ---------------------------------------------------------
  // The fault-tolerant runtime measured for real. The overhead block runs the
  // same 2-pool split plain and probe-armed (probe forces the watchdog +
  // per-chunk recovery machinery on while injecting nothing), so
  // overhead_percent is the price of the recovery path; it is expected to
  // stay <= 3% and is recorded with a flag (a warning, not a hard gate —
  // wall-clock on arbitrary runners). The recovery block executes planned
  // faults (pool death/stall, a permanently throwing chunk, a slowed chunk)
  // across fleet sizes and schedules: every row must keep byte-exact match
  // parity — that IS a hard CI gate, faults are deterministic — and records
  // the failure telemetry. The self_healing block drives the evaluator's
  // retry/backoff path through a transient and a hopeless measure-fail plan.
  bool fault_parity = true;
  {
    json.key("fault_matrix").begin_object();
    {
      const std::size_t overhead_reps = suite == "full" ? 9 : 5;
      std::vector<core::PoolSpec> specs(2);
      specs[0].threads = hw;
      specs[1].threads = hw;
      core::HeterogeneousExecutor executor(
          rw.engine(automata::EngineKind::kCompiledDfa), specs);
      const std::vector<double> shares{50.0, 50.0};
      const auto best_seconds = [&](bool probe) {
        double best = 0.0;
        for (std::size_t rep = 0; rep < overhead_reps; ++rep) {
          std::unique_ptr<util::FaultInjector> injector;
          if (probe) {
            injector =
                std::make_unique<util::FaultInjector>(util::FaultPlan::parse("probe"));
          }
          const core::ExecutionReport r =
              executor.run_fleet(rw.text(), shares, parallel::SchedulePolicy::kAdaptive);
          fault_parity = fault_parity && r.total_matches() == rw.sequential_matches();
          if (rep == 0 || r.total_seconds < best) best = r.total_seconds;
        }
        return best;
      };
      const double plain_s = best_seconds(false);
      const double probe_s = best_seconds(true);
      const double overhead_percent =
          plain_s > 0.0 ? 100.0 * (probe_s - plain_s) / plain_s : 0.0;
      constexpr double kOverheadGuardPercent = 3.0;
      const bool overhead_ok = overhead_percent <= kOverheadGuardPercent;
      if (!overhead_ok) {
        std::cerr << "bench_main: WARNING: recovery-path zero-fault overhead "
                  << util::format_double(overhead_percent, 2) << "% exceeds "
                  << util::format_double(kOverheadGuardPercent, 1) << "%\n";
      }
      json.key("overhead")
          .begin_object()
          .member("plain_seconds", plain_s)
          .member("probe_seconds", probe_s)
          .member("overhead_percent", overhead_percent)
          .member("guard_max_percent", kOverheadGuardPercent)
          .member("overhead_ok", overhead_ok)
          .end_object();
      std::cout << "  fault_matrix overhead: plain "
                << util::format_double(plain_s, 4) << " s, probe-armed "
                << util::format_double(probe_s, 4) << " s ("
                << util::format_double(overhead_percent, 2) << "%)\n";
    }
    {
      json.key("recovery").begin_array();
      for (const std::size_t pools : {std::size_t{2}, std::size_t{4}}) {
        std::vector<core::PoolSpec> specs(pools);
        for (std::size_t i = 0; i < pools; ++i) {
          specs[i].threads = 1 + (i % 3);
          specs[i].chunks = 4;
        }
        core::HeterogeneousExecutor executor(
            rw.engine(automata::EngineKind::kCompiledDfa), specs);
        executor.set_recovery({0.02});  // fast watchdog for the stall rows
        const std::vector<double> shares(pools, 100.0 / static_cast<double>(pools));
        const std::string last = std::to_string(pools - 1);
        const std::vector<std::string> plans = {
            "pool-death:pool=" + last,
            "pool-stall:pool=" + last,
            "chunk-throw:chunk=0,times=99",
            "chunk-slow:chunk=0,factor=3",
        };
        for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
          for (const std::string& plan : plans) {
            const util::FaultInjector injector(util::FaultPlan::parse(plan));
            const core::ExecutionReport r = executor.run_fleet(rw.text(), shares, policy);
            const bool parity = r.total_matches() == rw.sequential_matches();
            fault_parity = fault_parity && parity;
            json.begin_object()
                .member("plan", plan)
                .member("pools", pools)
                .member("schedule", parallel::to_string(policy))
                .member("seconds", r.total_seconds)
                .member("matches", r.total_matches())
                .member("match_parity", parity)
                .member("requeued_chunks", r.requeued_chunks)
                .member("chunk_retries", r.chunk_retries)
                .member("degraded", r.degraded)
                .member("injected", injector.injected())
                .key("failed_pools")
                .begin_array();
            for (const std::size_t p : r.failed_pools) {
              json.value(static_cast<std::uint64_t>(p));
            }
            json.end_array().end_object();
          }
        }
      }
      json.end_array();
      std::cout << "  fault_matrix recovery: 32 fault rows, parity "
                << (fault_parity ? "ok" : "FAILED") << "\n";
    }
    {
      const core::RealWorkloadEvaluator healer(catalog, real_options);
      const opt::SystemConfig config = rows.front().config;
      bool transient_valid = false;
      std::uint64_t transient_failures = 0;
      bool transient_parity = false;
      {
        const util::FaultInjector injector(
            util::FaultPlan::parse("measure-fail:after=0,times=2", seed));
        const core::RealMeasurement m = healer.measure(config, workload);
        transient_valid = m.valid;
        transient_failures = m.measure_failures;
        transient_parity = m.matches == rw.sequential_matches();
        fault_parity = fault_parity && transient_parity;
      }
      bool hopeless_valid = true;
      {
        const util::FaultInjector injector(
            util::FaultPlan::parse("measure-fail:after=0,times=1000", seed));
        const core::RealMeasurement m = healer.measure(config, workload);
        hopeless_valid = m.valid;  // must come back false, not throw
      }
      json.key("self_healing")
          .begin_object()
          .member("transient_valid", transient_valid)
          .member("transient_failures", transient_failures)
          .member("transient_match_parity", transient_parity)
          .member("hopeless_valid", hopeless_valid)
          .member("invalid_measurements", healer.invalid_measurements())
          .end_object();
      std::cout << "  fault_matrix self_healing: transient "
                << (transient_valid ? "healed" : "FAILED") << " after "
                << transient_failures << " failures, hopeless "
                << (hopeless_valid ? "UNEXPECTEDLY VALID" : "marked invalid") << "\n";
    }
    json.end_object();
  }

  // --- fraction_profile -----------------------------------------------------
  // Per-config real times along the fraction axis at the EM-real winner's
  // thread/affinity setting (the live-code analogue of Fig. 2).
  {
    json.key("fraction_profile").begin_array();
    for (const double fraction : real_space.fractions()) {
      opt::SystemConfig c = rows.front().config;
      c.host_percent = fraction;
      const core::RealMeasurement m = real_eval->measure(c, workload);
      json.begin_object()
          .member("host_percent", fraction)
          .member("seconds", m.seconds)
          .member("throughput_mb_s", m.throughput_mb_s)
          .member("matches", m.matches)
          .end_object();
    }
    json.end_array();
  }

  // --- real_vs_simulated ----------------------------------------------------
  // What the simulator would pick (EM over the paper space) vs what tuning
  // the live code picked, both executed for real. The simulated winner's
  // 48/240-thread configuration is snapped onto the real space first.
  {
    const auto em_sim =
        core::TuningSession::preset(core::Method::kEM, machine, opt::ConfigSpace::paper())
            .run(workload);
    const opt::SystemConfig clamped = clamp_to_space(real_space, em_sim.config);
    const core::RealMeasurement sim_on_real = real_eval->measure(clamped, workload);
    // The EM-real winner was already measured for its table2_real row; reuse
    // that run so the JSON reports one consistent number per configuration.
    const core::RealMeasurement& real_on_real = rows.front().real;

    json.key("real_vs_simulated").begin_object();
    json.key("simulated_em").begin_object().member("sim_time_s", em_sim.measured_time);
    json.key("config");
    write_config(json, em_sim.config);
    json.key("clamped_config");
    write_config(json, clamped);
    json.member("real_time_s", sim_on_real.seconds).end_object();
    json.key("real_em").begin_object();
    json.key("config");
    write_config(json, rows.front().config);
    json.member("real_time_s", real_on_real.seconds).end_object();
    json.member("sim_choice_slowdown",
                real_on_real.seconds > 0.0 ? sim_on_real.seconds / real_on_real.seconds : 0.0);
    json.end_object();
    std::cout << "real-vs-simulated: sim EM choice " << opt::to_string(em_sim.config)
              << " -> " << util::format_double(sim_on_real.seconds, 4)
              << " s real; live EM choice -> "
              << util::format_double(real_on_real.seconds, 4) << " s real\n";
  }

  json.end_object();

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_main: cannot open " << out_path << " for writing\n";
    return 1;
  }
  out << json.str() << '\n';
  std::cout << "wrote " << out_path << " (" << json.str().size() << " bytes)\n";

  // Hard gate for CI: every real measurement must have reproduced the
  // sequential match count exactly.
  for (const RealRow& row : rows) {
    if (!row.match_parity) {
      std::cerr << "bench_main: MATCH MISMATCH for " << row.method << "\n";
      return 1;
    }
  }
  // Kernel gates: every scan_kernel row must reproduce the sequential match
  // count, and the fused kernel must not regress below the guard.
  if (!kernel_parity) {
    std::cerr << "bench_main: scan_kernel MATCH MISMATCH\n";
    return 1;
  }
  // Every schedule-matrix row — all four policies across fractions, chunk
  // counts, the skew block and the tuned winners — must be byte-exact too.
  if (!schedule_parity) {
    std::cerr << "bench_main: schedule_matrix MATCH MISMATCH\n";
    return 1;
  }
  // Every device-matrix row — 1..4 emulated-device fleets and the tuned
  // fleet-size winners — must reproduce the sequential count too: N-way
  // parity is the whole point of the fleet runtime.
  if (!device_parity) {
    std::cerr << "bench_main: device_matrix MATCH MISMATCH\n";
    return 1;
  }
  // Every fault-matrix row scans under a deterministic fault plan; recovery
  // must reproduce the sequential count exactly, no wall-clock excuse.
  if (!fault_parity) {
    std::cerr << "bench_main: fault_matrix MATCH MISMATCH\n";
    return 1;
  }
  // Every simd-matrix row must reproduce the sequential count — the hard
  // cross-ISA gate. The AVX2 throughput expectation is a warning only.
  if (!simd_parity) {
    std::cerr << "bench_main: simd_matrix MATCH MISMATCH\n";
    return 1;
  }
  // Every io_bound row — in-memory baseline, cold 8x-budget stream, warm
  // cache, prefetch and budget sweeps — must be byte-exact: the streaming
  // path exists to make out-of-core scans indistinguishable from in-memory
  // ones.
  if (!io_parity) {
    std::cerr << "bench_main: io_bound MATCH MISMATCH\n";
    return 1;
  }
  // The throughput and overlap expectations hold whenever compute can
  // actually overlap IO; on a single hardware thread they are recorded with
  // a warning instead (io_warm_ok/io_stall_ok are forced true there).
  if (!io_warm_ok) {
    std::cerr << "bench_main: io_bound warm scan below tolerance\n";
    return 1;
  }
  if (!io_stall_ok) {
    std::cerr << "bench_main: io_bound prefetch failed to reduce cold stalls\n";
    return 1;
  }
  if (!avx2_ge_2x_scalar) {
    std::cerr << "bench_main: WARNING: avx2 bitap-simd below 2x the scalar "
                 "bitap engine on this host (recorded, not gated)\n";
  }
  if (fused_speedup < kKernelGuardMinSpeedup) {
    std::cerr << "bench_main: fused kernel only " << util::format_double(fused_speedup, 2)
              << "x naive (guard " << util::format_double(kKernelGuardMinSpeedup, 2)
              << "x)\n";
    return 1;
  }
  return 0;
}
