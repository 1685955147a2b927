// hetopt_benchmark: runs one workload for a fixed wall-clock window and
// reports its metrics.
//
//   hetopt_benchmark --workload NAME --seed N --seconds S --trace 0|1
//                    [--quick] [--out DIR] [--commit SHA] [--dirty 0|1]
//
// The workload is set up several times (setup_s is the median; see Scale),
// warmed up, then driven closed-loop until --seconds have passed. With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it records
// spans, alternates traced and untraced operations to measure the tracing
// overhead, runs the per-layer ledger (ledger.hpp) and reports the per-layer
// metrics. The full result, with provenance and sample counts, goes to
// DIR/<workload>-seed<N>[-traced]-<pid>.json (the spans next to it as a
// Chrome trace). stdout gets one "workload metric value unit n" line per
// reported metric and, last, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 when every checked operation was correct.
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "automata/simd/simd_kernels.hpp"
#include "ledger.hpp"
#include "trace.hpp"
#include "util/cli.hpp"
#include "util/cpu_features.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

#ifndef HETOPT_BENCH_BUILD_TYPE
#define HETOPT_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace hetopt;
using bench::LayerMetric;

[[nodiscard]] double median(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : util::median(xs);
}

/// Peak resident set size (VmHWM) in MiB.
[[nodiscard]] double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

/// Restarts the peak-RSS count from the current RSS (Linux >= 4.0), so the
/// peak covers only what follows. False when the kernel refused.
[[nodiscard]] bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.close();
  return static_cast<bool>(out);
}

struct Run {
  std::vector<double> setup_s;
  std::vector<double> op_ms;           // untraced operations
  std::vector<double> traced_op_ms;    // --trace 1: the traced half
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t corpus_bytes = 0;
  double rss_mb = 0.0;  // peak during the timed phase
  bool rss_peak_reset = false;
};

/// Set-up, warm-up and the timed closed loop of one workload.
Run drive(std::string_view name, const bench::Context& ctx, bool traced, double seconds) {
  Run run;
  bench::Tracer& tracer = *ctx.tracer;
  const bench::Scope root(tracer, "workload", 0);
  const std::unique_ptr<bench::Workload> workload = bench::make_workload(name, ctx);
  const util::Timer setups;
  for (std::size_t i = 0; i < ctx.scale.setup_reps || setups.seconds() < ctx.scale.setup_seconds;
       ++i) {
    const util::Timer timer;
    {
      const bench::Scope span(tracer, "setup");
      workload->set_up();
    }
    run.setup_s.push_back(timer.seconds());
  }
  const auto checked_op = [&](std::uint64_t input) {
    ++run.attempted;
    try {
      if (workload->op(input)) return;
      std::cerr << name << ": operation " << input << " returned a wrong match count\n";
    } catch (const std::exception& e) {
      std::cerr << name << ": operation " << input << " failed: " << e.what() << "\n";
    }
    ++run.failed;
  };
  for (std::size_t i = 0; i < workload->warmup_ops(); ++i) {
    const bench::Scope span(tracer, "warmup");
    checked_op(0);
  }
  run.rss_peak_reset = reset_peak_rss();
  // Traced runs alternate traced and untraced operations over the same
  // inputs (ops 2k and 2k+1 both use input k), so the two halves differ
  // only in the spans.
  const util::Timer window;
  for (std::uint64_t i = 0; i < (traced ? 2u : 1u) || window.seconds() < seconds; ++i) {
    const bool on = traced && i % 2 == 0;
    tracer.set_enabled(on);
    const util::Timer timer;
    {
      const bench::Scope span(tracer, "op", i + 1);
      checked_op(traced ? i / 2 : i);
    }
    (on ? run.traced_op_ms : run.op_ms).push_back(timer.millis());
  }
  tracer.set_enabled(traced);
  run.rss_mb = peak_rss_mib();
  run.corpus_bytes = workload->corpus_bytes();
  return run;
}

void write_metrics(util::JsonWriter& json, const std::vector<LayerMetric>& metrics,
                   bool with_n) {
  json.begin_object();
  for (const LayerMetric& m : metrics) {
    json.key(m.name).begin_object().member("value", m.value).member("unit", m.unit);
    if (with_n) json.member("n", m.n);
    json.end_object();
  }
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::CliArgs args(argc, argv);
    const std::string name = args.get("workload", std::string());
    const std::int64_t seed = args.get("seed", std::int64_t{1});
    const double seconds_arg = args.get("seconds", 15.0);
    const std::int64_t trace = args.get("trace", std::int64_t{0});
    const bool quick = args.flag("quick");
    const std::string out_dir = args.get("out", std::string("benchmark/out"));
    if (name.empty() || seed < 0 || !(seconds_arg >= 0.0) || (trace != 0 && trace != 1)) {
      std::cerr << "usage: hetopt_benchmark --workload "
                   "scan_mem|scan_paged|tune_measured|tune_predicted --seed N>=0 "
                   "--seconds S --trace 0|1 [--quick] [--out DIR] [--commit SHA] "
                   "[--dirty 0|1]\n";
      return 2;
    }
    const bool traced = trace == 1;
    std::filesystem::create_directories(out_dir);

    bench::Tracer tracer(traced ? std::size_t{1} << 16 : 0);
    tracer.set_enabled(traced);
    bench::Context ctx;
    ctx.seed = static_cast<std::uint64_t>(seed);
    ctx.scale = quick ? bench::Scale::quick() : bench::Scale{};
    ctx.tracer = &tracer;
    ctx.out_dir = out_dir;
    const double window = quick ? seconds_arg / 20.0 : seconds_arg;
    const double started_unix =
        std::chrono::duration<double>(std::chrono::system_clock::now().time_since_epoch())
            .count();

    const Run run = drive(name, ctx, traced, window);

    const std::vector<LayerMetric> end_to_end = {
        {"setup_s", median(run.setup_s), "s", run.setup_s.size()},
        {"op_ms", median(run.op_ms), "ms", run.op_ms.size()},
        {"op_ms_p95", run.op_ms.empty() ? 0.0 : util::percentile(run.op_ms, 95.0), "ms",
         run.op_ms.size()},
        {"rss_mb", run.rss_mb, "MiB", 1},
    };
    std::uint64_t attempted = run.attempted;
    std::uint64_t failed = run.failed;
    bench::Ledger ledger;
    if (traced) {
      ledger = bench::run_ledger(ctx);
      attempted += ledger.attempted;
      failed += ledger.failed;
      // Pair k ran input k traced, then untraced.
      std::vector<double> excess;
      for (std::size_t k = 0; k < run.op_ms.size() && k < run.traced_op_ms.size(); ++k) {
        excess.push_back(run.traced_op_ms[k] / run.op_ms[k] - 1.0);
      }
      ledger.metrics.push_back({"trace.overhead_pct", 100.0 * median(excess), "%", excess.size()});
    }
    const std::vector<LayerMetric>& reported = traced ? ledger.metrics : end_to_end;
    const bool correct = failed == 0;

    const std::string stem = out_dir + "/" + name + "-seed" + std::to_string(seed) +
                             (traced ? "-traced" : "") + "-" + std::to_string(::getpid());
    if (traced) tracer.write_chrome_json(stem + ".trace.json");
    const char* const forced = std::getenv("HETOPT_FORCE_ISA");
    util::JsonWriter json;
    json.begin_object()
        .member("schema", "hetopt-benchmark-v1")
        .member("workload", name)
        .member("seed", seed)
        .member("traced", traced)
        .member("quick", quick)
        .member("seconds", window)
        .member("started_unix", started_unix)
        .member("correct", correct)
        .member("attempted", attempted)
        .member("failed", failed)
        .member("error_rate",
                attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                              : 0.0);
    json.key("provenance")
        .begin_object()
        .member("cpu_model", util::cpu_features().model_name)
        .member("nproc", bench::hardware_threads())
        .member("l3_bytes", bench::l3_cache_bytes())
        .member("isa_active", util::to_string(automata::simd::resolve_isa(std::nullopt)))
        .member("force_isa", forced != nullptr ? forced : "")
        .member("git_commit", args.get("commit", std::string("unknown")))
        .member("git_dirty", args.get("dirty", std::int64_t{-1}))
        .member("build_type", HETOPT_BENCH_BUILD_TYPE)
        .member("corpus_bytes", run.corpus_bytes)
        .member("mem_reference_bytes", ledger.mem_bytes)
        .member("rss_peak_reset", run.rss_peak_reset)
        .member("dropped_spans", tracer.dropped())
        .end_object();
    json.key("end_to_end");
    write_metrics(json, end_to_end, true);
    if (traced) {
      json.key("per_layer");
      write_metrics(json, ledger.metrics, true);
    }
    json.end_object();
    {
      std::ofstream out(stem + ".json", std::ios::trunc);
      out << json.str() << '\n';
      if (!out) throw std::runtime_error("cannot write " + stem + ".json");
    }

    for (const LayerMetric& m : reported) {
      std::cout << name << ' ' << m.name << ' ' << m.value << ' ' << m.unit << ' ' << m.n
                << '\n';
    }
    util::JsonWriter last;
    last.begin_object()
        .member("correct", correct)
        .member("attempted", attempted)
        .member("failed", failed)
        .key("metrics");
    write_metrics(last, reported, false);
    last.end_object();
    std::cout << last.str() << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "hetopt_benchmark: " << e.what() << "\n";
    return 1;
  }
}
