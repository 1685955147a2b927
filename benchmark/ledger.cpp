#include "ledger.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <numeric>
#include <set>

#include "automata/compiled_dfa.hpp"
#include "automata/parallel_matcher.hpp"
#include "automata/simd_engine.hpp"
#include "parallel/thread_pool.hpp"
#include "util/stats.hpp"

namespace hetopt::bench {

namespace {

[[nodiscard]] double median(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : util::median(xs);
}

[[nodiscard]] double gbps(std::size_t bytes, double seconds) {
  return seconds > 0.0 ? static_cast<double>(bytes) / seconds * 1e-9 : 0.0;
}

[[nodiscard]] double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

[[nodiscard]] std::uint64_t sum_words(const std::uint64_t* words, std::size_t n) {
  // Four independent accumulators keep the loop bandwidth-bound.
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += words[i];
    s1 += words[i + 1];
    s2 += words[i + 2];
    s3 += words[i + 3];
  }
  for (; i < n; ++i) s0 += words[i];
  return s0 + s1 + s2 + s3;
}

/// Bookkeeping shared by the probes: checked calls and metrics read off
/// the ledger's spans.
class Probe {
 public:
  Probe(const Context& ctx, Ledger& out) : ctx_(ctx), tracer_(*ctx.tracer), out_(out) {}

  void add(std::string name, double value, std::string unit, std::size_t n) {
    out_.metrics.push_back({std::move(name), value, std::move(unit), n});
  }
  void check(bool ok) {
    ++out_.attempted;
    if (!ok) ++out_.failed;
  }
  /// Durations of the ledger's spans named `name`, in start order.
  [[nodiscard]] std::vector<double> seconds(const char* name) const {
    std::vector<double> out;
    for (const Span* s : tracer_.find(name, kLedgerOp)) out.push_back(s->seconds());
    return out;
  }
  [[nodiscard]] double first_seconds(const char* name) const {
    const std::vector<double> s = seconds(name);
    return s.empty() ? 0.0 : s.front();
  }
  /// Runs `count()` `reps` times under span `name`, checking each result.
  template <typename Fn>
  void timed(const char* name, std::size_t reps, std::uint64_t oracle, Fn&& count) {
    for (std::size_t r = 0; r < reps; ++r) {
      std::uint64_t matches = 0;
      {
        const Scope span(tracer_, name);
        matches = count();
      }
      check(matches == oracle);
    }
  }
  /// GB/s of the median `name` span over `bytes`, as metric `metric`.
  double add_gbps(const char* metric, const char* name, std::size_t bytes) {
    const std::vector<double> s = seconds(name);
    const double value = gbps(bytes, median(s));
    add(metric, value, "GB/s", s.size());
    return value;
  }

  [[nodiscard]] const Context& ctx() const noexcept { return ctx_; }
  [[nodiscard]] Tracer& tracer() const noexcept { return tracer_; }

 private:
  const Context& ctx_;
  Tracer& tracer_;
  Ledger& out_;
};

[[nodiscard]] std::size_t reference_bytes(const Scale& scale) {
  if (scale.mem_bytes != 0) return scale.mem_bytes;
  // Four times the last-level cache so the reference streams from DRAM,
  // capped to keep the probe's footprint bounded on very large caches.
  const std::size_t l3 = l3_cache_bytes();
  if (l3 == 0) return std::size_t{512} << 20;
  return std::clamp(4 * l3, std::size_t{256} << 20, std::size_t{1280} << 20);
}

/// Returns mem.read_gbps_1t.
double probe_memory(Probe& p, Ledger& out) {
  const std::size_t bytes = reference_bytes(p.ctx().scale);
  out.mem_bytes = bytes;
  const std::size_t words = bytes / sizeof(std::uint64_t);
  const std::unique_ptr<std::uint64_t[]> buffer(new std::uint64_t[words]);
  {
    const Scope span(p.tracer(), "mem.fill");
    std::iota(buffer.get(), buffer.get() + words, std::uint64_t{0});
  }
  const std::uint64_t expected = words * (words - 1) / 2;
  const std::size_t reps = p.ctx().scale.kernel_reps;
  for (std::size_t r = 0; r < reps; ++r) {
    std::uint64_t sum = 0;
    {
      const Scope span(p.tracer(), "mem.read_1t");
      sum = sum_words(buffer.get(), words);
    }
    p.check(sum == expected);
  }
  const std::size_t threads = hardware_threads();
  parallel::ThreadPool pool(threads);
  std::vector<std::uint64_t> partial(threads, 0);
  for (std::size_t r = 0; r < reps; ++r) {
    {
      const Scope span(p.tracer(), "mem.read_all");
      pool.parallel_chunks(words, threads,
                           [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                             partial[chunk] = sum_words(buffer.get() + begin, end - begin);
                           });
    }
    p.check(std::accumulate(partial.begin(), partial.end(), std::uint64_t{0}) == expected);
  }
  p.add_gbps("mem.read_gbps_all", "mem.read_all", bytes);
  return p.add_gbps("mem.read_gbps_1t", "mem.read_1t", bytes);
}

/// Returns kernel.multi_stream_gbps.
double probe_kernels(Probe& p, const ScanCorpus& corpus, double mem_1t_gbps) {
  const std::string_view text = corpus.text();
  const std::size_t reps = p.ctx().scale.kernel_reps;
  const automata::CompiledDfa& kernel = *corpus.engine->kernel();
  p.timed("kernel.fused", reps, corpus.oracle,
          [&] { return kernel.count_fused(text, kernel.start()).match_count; });
  p.timed("kernel.paired", reps, corpus.oracle,
          [&] { return kernel.count_paired(text, kernel.start()).match_count; });
  {
    parallel::ThreadPool one(1);
    const automata::ParallelMatcher matcher(*corpus.engine, one);
    p.timed("kernel.multi_stream", reps, corpus.oracle, [&] {
      return matcher.count(text, automata::CompiledDfa::kMaxStreams).match_count;
    });
  }
  {
    const automata::BitapSimdEngine bitap(motifs());
    p.timed("kernel.bitap_simd", reps, corpus.oracle, [&] { return bitap.count(text); });
  }
  p.add_gbps("kernel.fused_gbps", "kernel.fused", text.size());
  p.add_gbps("kernel.paired_gbps", "kernel.paired", text.size());
  const double multi_stream_gbps =
      p.add_gbps("kernel.multi_stream_gbps", "kernel.multi_stream", text.size());
  p.add_gbps("kernel.bitap_simd_gbps", "kernel.bitap_simd", text.size());
  p.add("kernel.over_mem", ratio(multi_stream_gbps, mem_1t_gbps), "ratio", reps);
  return multi_stream_gbps;
}

/// Returns matcher.count_gbps.
double probe_matcher(Probe& p, const ScanCorpus& corpus, double multi_stream_gbps) {
  const std::size_t workers = hardware_threads();
  parallel::ThreadPool pool(workers);
  const automata::ParallelMatcher matcher(*corpus.engine, pool);
  const std::size_t reps = p.ctx().scale.kernel_reps;
  p.timed("matcher.count", reps, corpus.oracle,
          [&] { return matcher.count(corpus.text(), workers).match_count; });
  p.timed("matcher.count_8x", reps, corpus.oracle,
          [&] { return matcher.count(corpus.text(), 8 * workers).match_count; });
  const double count_gbps = p.add_gbps("matcher.count_gbps", "matcher.count", corpus.text().size());
  p.add_gbps("matcher.count_gbps_8x", "matcher.count_8x", corpus.text().size());
  p.add("matcher.over_kernel",
        ratio(count_gbps, static_cast<double>(workers) * multi_stream_gbps), "ratio", reps);
  return count_gbps;
}

/// Returns executor.gbps.
double probe_executor(Probe& p, const ScanCorpus& corpus, double matcher_gbps) {
  core::HeterogeneousExecutor executor(*corpus.engine, fleet_specs(false));
  for (int i = 0; i < 2; ++i) (void)executor.run_fleet(corpus.text());  // warm-up, untraced
  const std::size_t calls = p.ctx().scale.fleet_calls;
  std::vector<core::ExecutionReport> reports;
  for (std::size_t i = 0; i < calls; ++i) {
    core::ExecutionReport report;
    {
      const Scope span(p.tracer(), "executor.run_fleet");
      report = executor.run_fleet(corpus.text());
    }
    p.check(report.total_matches() == corpus.oracle);
    reports.push_back(std::move(report));
  }
  const std::vector<double> wall = p.seconds("executor.run_fleet");
  std::vector<double> outside_ms;
  std::vector<double> imbalance;
  for (std::size_t i = 0; i < wall.size() && i < reports.size(); ++i) {
    outside_ms.push_back((wall[i] - reports[i].total_seconds) * 1e3);
    imbalance.push_back(reports[i].imbalance);
  }
  const double executor_gbps = gbps(corpus.text().size(), median(wall));
  p.add("executor.gbps", executor_gbps, "GB/s", wall.size());
  p.add("executor.over_matcher", ratio(executor_gbps, matcher_gbps), "ratio", wall.size());
  p.add("executor.outside_ms_p50", median(outside_ms), "ms", outside_ms.size());
  p.add("executor.imbalance_p50", median(imbalance), "fraction", imbalance.size());
  return executor_gbps;
}

void probe_paging(Probe& p, const ScanCorpus& corpus, PagedCorpus& paged,
                  double executor_gbps) {
  core::HeterogeneousExecutor executor(*corpus.engine, fleet_specs(true));
  dna::PagedGenome& genome = paged.genome();
  for (int i = 0; i < 2; ++i) (void)executor.run_fleet_paged(genome);  // warm-up, untraced
  const std::size_t calls = p.ctx().scale.fleet_calls;
  dna::CacheStats total;
  for (std::size_t i = 0; i < calls; ++i) {
    const dna::CacheStats before = genome.stats();
    std::uint64_t matches = 0;
    {
      const Scope span(p.tracer(), "paged.run_fleet");
      matches = executor.run_fleet_paged(genome).total_matches();
    }
    const dna::CacheStats after = genome.stats();
    p.check(matches == corpus.oracle);
    total.hits += after.hits - before.hits;
    total.loads += after.loads - before.loads;
    total.cold_stalls += after.cold_stalls - before.cold_stalls;
    total.backpressure_waits += after.backpressure_waits - before.backpressure_waits;
    total.bytes_read += after.bytes_read - before.bytes_read;
    total.load_seconds += after.load_seconds - before.load_seconds;
    total.cold_stall_seconds += after.cold_stall_seconds - before.cold_stall_seconds;
  }
  const auto per_scan = [&](double v) { return v / static_cast<double>(calls); };
  const double paged_gbps = p.add_gbps("paged.gbps", "paged.run_fleet", corpus.text().size());
  p.add("paged.over_executor", ratio(paged_gbps, executor_gbps), "ratio", calls);
  p.add("page.loads_per_scan", per_scan(static_cast<double>(total.loads)), "count", calls);
  p.add("page.hit_rate",
        ratio(static_cast<double>(total.hits),
              static_cast<double>(total.hits + total.cold_stalls)),
        "fraction", calls);
  p.add("page.read_amplification",
        ratio(static_cast<double>(total.bytes_read),
              static_cast<double>(calls * corpus.text().size())),
        "ratio", calls);
  p.add("page.load_ms_per_scan", per_scan(total.load_seconds * 1e3), "ms", calls);
  p.add("page.stall_ms_per_scan", per_scan(total.cold_stall_seconds * 1e3), "ms", calls);
  p.add("page.cold_stalls_per_scan", per_scan(static_cast<double>(total.cold_stalls)), "count",
        calls);
  p.add("page.backpressure_waits_per_scan",
        per_scan(static_cast<double>(total.backpressure_waits)), "count", calls);
}

/// What RealWorkloadEvaluator::measure builds for a one-device `config` with
/// the default options: one chunk per worker, pinned per the affinities.
[[nodiscard]] std::unique_ptr<core::HeterogeneousExecutor> executor_for(
    const core::RealWorkload& real, const opt::SystemConfig& config) {
  std::vector<core::PoolSpec> specs(2);
  specs[0].threads = static_cast<std::size_t>(config.host_threads);
  specs[0].share_percent = config.host_percent;
  specs[0].chunks = specs[0].threads;
  specs[0].host_affinity = config.host_affinity;
  specs[1].threads = static_cast<std::size_t>(config.device_threads);
  specs[1].share_percent = 100.0 - config.host_percent;
  specs[1].chunks = specs[1].threads;
  specs[1].device_affinity = config.device_affinity;
  return std::make_unique<core::HeterogeneousExecutor>(real.engine(config.engine),
                                                       std::move(specs));
}

void probe_evaluator(Probe& p) {
  TuningFixture fixture(p.tracer(), true);
  const CheckedEvaluator& evaluator = *fixture.evaluator();
  std::vector<opt::SystemConfig> candidates;
  fixture.evaluator()->record_candidates(&candidates);
  opt::SystemConfig winner;
  for (std::size_t s = 0; s < p.ctx().scale.probe_sessions; ++s) {
    const core::SessionReport report = fixture.run_session(p.ctx().seed + s);
    if (s == 0) winner = report.config;
    p.check(true);  // run_session throws on a bad measurement
  }
  fixture.evaluator()->record_candidates(nullptr);

  std::vector<double> measure_ms = p.seconds("evaluation");
  for (double& v : measure_ms) v *= 1e3;
  p.add("evaluator.evals", static_cast<double>(measure_ms.size()), "count", measure_ms.size());
  p.add("evaluator.measure_ms_p50", median(measure_ms), "ms", measure_ms.size());
  p.add("evaluator.measure_ms_p99", measure_ms.empty() ? 0.0 : util::percentile(measure_ms, 99),
        "ms", measure_ms.size());
  p.add("evaluator.retries", static_cast<double>(evaluator.retries()), "count",
        measure_ms.size());
  p.add("evaluator.invalid", static_cast<double>(evaluator.invalid()), "count",
        measure_ms.size());

  double session_s = 0.0;
  double outside_s = 0.0;
  const std::vector<const Span*> sessions = p.tracer().find("session", kLedgerOp);
  for (const Span* s : sessions) {
    session_s += s->seconds();
    outside_s += p.tracer().self_seconds(*s);
  }
  std::set<std::size_t> distinct;
  for (const opt::SystemConfig& c : candidates) distinct.insert(fixture.space().index_of(c));
  std::vector<double> rescore_ms = p.seconds("rescore");
  for (double& v : rescore_ms) v *= 1e3;
  p.add("session.search_frac", ratio(outside_s, session_s), "fraction", sessions.size());
  p.add("session.unique_frac",
        ratio(static_cast<double>(distinct.size()), static_cast<double>(candidates.size())),
        "fraction", candidates.size());
  p.add("session.rescore_ms", median(rescore_ms), "ms", rescore_ms.size());

  // measure() against a bare run_fleet of the same configuration on a
  // prebuilt executor: what one evaluation pays beyond the scan.
  const std::size_t calls = p.ctx().scale.overhead_calls;
  const std::uint64_t bad_before = evaluator.bad();
  for (std::size_t i = 0; i < calls; ++i) {
    const Scope span(p.tracer(), "evaluator.measure");
    (void)evaluator.measure(winner, fixture.workload());
  }
  p.check(evaluator.bad() == bad_before);
  const std::unique_ptr<core::HeterogeneousExecutor> executor =
      executor_for(fixture.real(), winner);
  for (std::size_t i = 0; i < calls; ++i) {
    std::uint64_t matches = 0;
    {
      const Scope span(p.tracer(), "evaluator.run_fleet");
      matches = executor->run_fleet(fixture.real().text(), winner.schedule).total_matches();
    }
    p.check(matches == fixture.real().sequential_matches());
  }
  p.add("evaluator.overhead_ms",
        (median(p.seconds("evaluator.measure")) - median(p.seconds("evaluator.run_fleet"))) *
            1e3,
        "ms", calls);
}

void probe_ml(Probe& p) {
  TuningFixture fixture(p.tracer(), false);
  const PredictedRun run = run_predicted(fixture, p.ctx().seed);
  p.check(true);  // run_predicted throws on a bad re-score
  const double eml_s = p.first_seconds("opt.eml");
  p.add("ml.sweep_s", p.first_seconds("ml.sweep"), "s", 1);
  p.add("ml.train_rows", static_cast<double>(run.train_rows), "count", 1);
  p.add("ml.train_s", p.first_seconds("ml.train"), "s", 1);
  p.add("opt.eml_s", eml_s, "s", 1);
  p.add("opt.predict_us",
        ratio(eml_s * 1e6, static_cast<double>(run.eml_predictions)), "us",
        run.eml_predictions);
  p.add("opt.saml_s", p.first_seconds("opt.saml"), "s", 1);
}

}  // namespace

std::size_t l3_cache_bytes() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::size_t value = 0;
  char suffix = 0;
  if (!(in >> value)) return 0;
  in >> suffix;
  switch (suffix) {
    case 'K': return value << 10;
    case 'M': return value << 20;
    case 'G': return value << 30;
    default: return value;
  }
}

Ledger run_ledger(const Context& ctx) {
  Ledger out;
  Probe p(ctx, out);
  const Scope root(*ctx.tracer, "ledger", kLedgerOp);

  ScanCorpus corpus;
  {
    const Scope span(*ctx.tracer, "setup");
    corpus = make_scan_corpus(ctx);
  }
  PagedCorpus paged(ctx, corpus.text());
  p.add("setup.generate_s", p.first_seconds("setup.generate"), "s", 1);
  p.add("setup.lower_s", p.first_seconds("setup.lower"), "s", 1);
  p.add("setup.oracle_s", p.first_seconds("setup.oracle"), "s", 1);
  p.add("setup.write_s", p.first_seconds("setup.write"), "s", 1);

  const double mem_1t = probe_memory(p, out);
  const double multi_stream_gbps = probe_kernels(p, corpus, mem_1t);
  const double matcher_gbps = probe_matcher(p, corpus, multi_stream_gbps);
  const double executor_gbps = probe_executor(p, corpus, matcher_gbps);
  probe_paging(p, corpus, paged, executor_gbps);
  probe_evaluator(p);
  probe_ml(p);
  return out;
}

}  // namespace hetopt::bench
