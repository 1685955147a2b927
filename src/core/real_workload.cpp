#include "core/real_workload.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "automata/hopcroft.hpp"
#include "automata/regex.hpp"
#include "automata/scanner.hpp"
#include "automata/subset.hpp"
#include "core/executor.hpp"
#include "dna/alphabet.hpp"
#include "parallel/partitioner.hpp"
#include "sim/multi.hpp"
#include "util/backoff.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace hetopt::core {

namespace {

/// One concrete ACGT instantiation of an IUPAC motif (first base of every
/// ambiguity class), used to plant findable copies into the genome. Regex
/// operators ('?', '*', '+', '(', ')', '|') are skipped: planting works on
/// the literal backbone and is best-effort anyway.
[[nodiscard]] std::string instantiate_motif(std::string_view motif) {
  std::string out;
  out.reserve(motif.size());
  for (const char c : motif) {
    const auto cls = dna::iupac_from_char(c);
    if (!cls) continue;  // regex operator
    for (unsigned b = 0; b < dna::kAlphabetSize; ++b) {
      if (cls->contains(static_cast<dna::Base>(b))) {
        out.push_back(dna::to_char(static_cast<dna::Base>(b)));
        break;
      }
    }
  }
  return out;
}

[[nodiscard]] std::size_t scaled_bytes(const Workload& logical,
                                       const RealWorkloadOptions& options) {
  const double raw = logical.size_mb * options.bytes_per_logical_mb;
  const auto bytes = static_cast<std::size_t>(std::llround(raw));
  return std::clamp(bytes, options.min_physical_bytes, options.max_physical_bytes);
}

[[nodiscard]] double affinity_model_factor(parallel::HostAffinity a) noexcept {
  switch (a) {
    case parallel::HostAffinity::kNone: return 1.00;
    case parallel::HostAffinity::kScatter: return 0.94;
    case parallel::HostAffinity::kCompact: return 1.06;
  }
  return 1.0;
}

[[nodiscard]] double affinity_model_factor(parallel::DeviceAffinity a) noexcept {
  switch (a) {
    case parallel::DeviceAffinity::kBalanced: return 1.00;
    case parallel::DeviceAffinity::kScatter: return 1.04;
    case parallel::DeviceAffinity::kCompact: return 1.10;
  }
  return 1.0;
}

/// Relative scan cost of the configured engine in the deterministic model.
/// The compiled-DFA factor is exactly 1 so pre-engine-axis numbers are
/// unchanged; bitap is modeled cheapest (its whole state is one register, no
/// table loads), Aho–Corasick slightly dearer than the minimized DFA (more
/// states, more table pressure). Real measurements of course override this —
/// the model only needs seeded runs to face an engine-shaped landscape.
[[nodiscard]] double engine_model_factor(automata::EngineKind k) noexcept {
  switch (k) {
    case automata::EngineKind::kCompiledDfa: return 1.00;
    case automata::EngineKind::kAhoCorasick: return 1.08;
    case automata::EngineKind::kBitap: return 0.85;
    // The SIMD bitap amortizes the same recurrence over vector lanes, so the
    // model prices it cheapest of all; the prefiltered DFA only wins on
    // sparse inputs, which the deterministic model does not see — slightly
    // under the plain DFA, never under bitap.
    case automata::EngineKind::kBitapSimd: return 0.70;
    case automata::EngineKind::kPrefilterDfa: return 0.95;
  }
  return 1.0;
}

/// Queue-traffic overhead of the shared-queue schedules in the deterministic
/// model (multiplies the combined-rate drain time). The static schedule never
/// reaches this — its formula is untouched, so its factor is exactly 1.0 and
/// pre-schedule-axis numbers are unchanged. Adaptive mostly works its own
/// seeded region (only steals touch the shared ends), guided pulls fewer,
/// bigger head chunks than dynamic's uniform tickets.
[[nodiscard]] double schedule_model_overhead(parallel::SchedulePolicy p) noexcept {
  switch (p) {
    case parallel::SchedulePolicy::kStatic: return 1.00;  // unused; see above
    case parallel::SchedulePolicy::kDynamic: return 1.03;
    case parallel::SchedulePolicy::kGuided: return 1.02;
    case parallel::SchedulePolicy::kAdaptive: return 1.01;
  }
  return 1.0;
}

}  // namespace

double real_workload_model_seconds(const opt::SystemConfig& config, std::size_t host_bytes,
                                   std::size_t device_bytes) {
  return real_workload_model_fleet_seconds(config, host_bytes, {device_bytes});
}

double real_workload_model_fleet_seconds(const opt::SystemConfig& config,
                                         std::size_t host_bytes,
                                         const std::vector<std::size_t>& device_bytes) {
  if (device_bytes.empty()) {
    throw std::invalid_argument("real_workload_model_fleet_seconds: no device pools");
  }
  // Sub-linear thread scaling (Amdahl-flavoured exponents) plus a fixed
  // offload launch cost; shapes match the simulated surface qualitatively so
  // searches face a realistic landscape, but the numbers are pure functions
  // of the executed work — that is what makes seeded runs reproducible.
  const double host_mb = static_cast<double>(host_bytes) / (1024.0 * 1024.0);
  const double host_rate =
      80.0 * std::pow(static_cast<double>(std::max(1, config.host_threads)), 0.8) /
      affinity_model_factor(config.host_affinity);
  const double device_rate =
      40.0 * std::pow(static_cast<double>(std::max(1, config.device_threads)), 0.7) /
      affinity_model_factor(config.device_affinity);
  const double engine = engine_model_factor(config.engine);
  if (config.schedule != parallel::SchedulePolicy::kStatic) {
    // Shared-queue schedules: every pool drains the combined work regardless
    // of the configured shares (dynamic/guided ignore them, adaptive steals
    // its way there), so the model is the summed-rate drain time plus the
    // offload launch cost, scaled by the policy's queue-traffic overhead.
    // This rewards demand-driven schedules exactly where the real runtime
    // does — at badly configured fractions — while a well-tuned static
    // split (whose optimum approaches the same combined-rate time) still
    // wins on overhead. K identical devices contribute K device rates.
    double total_mb = host_mb;
    for (const std::size_t bytes : device_bytes) {
      total_mb += static_cast<double>(bytes) / (1024.0 * 1024.0);
    }
    if (total_mb <= 0.0) return 1e-9;
    return 0.002 +
           schedule_model_overhead(config.schedule) * engine * total_mb /
               (host_rate + static_cast<double>(device_bytes.size()) * device_rate) +
           1e-9;
  }
  // Static: every pool drains its own share standalone; the run is the
  // slowest pool. Zero-share device pools are skipped entirely by the
  // executor, so they cost nothing — not even the launch.
  double worst = host_mb > 0.0 ? engine * host_mb / host_rate : 0.0;
  for (const std::size_t bytes : device_bytes) {
    const double device_mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
    const double device_s =
        device_mb > 0.0 ? 0.002 + engine * device_mb / device_rate : 0.0;
    worst = std::max(worst, device_s);
  }
  return worst + 1e-9;
}

// --- RealWorkload -----------------------------------------------------------

RealWorkload::RealWorkload(const dna::GenomeCatalog& catalog, const Workload& logical,
                           const RealWorkloadOptions& options)
    : logical_(logical) {
  if (options.motifs.empty()) {
    throw std::invalid_argument("RealWorkload: no motifs to search for");
  }
  const std::size_t bytes = scaled_bytes(logical, options);
  // Plant a handful of findable copies per motif so tuning runs always have
  // non-trivial match counts to cross-check.
  std::vector<dna::PlantedMotif> planted;
  for (const std::string& motif : options.motifs) {
    std::string concrete = instantiate_motif(motif);
    if (concrete.empty() || concrete.size() > bytes) continue;
    planted.push_back({std::move(concrete), std::max<std::size_t>(8, bytes / 65536)});
  }
  sequence_ = catalog.materialize(logical.name, bytes, planted);

  // Build every engine the motif set qualifies for; record why the others
  // are skipped. The compiled-DFA engine handles the full motif language and
  // is therefore always present (compile errors propagate from here). The
  // materialized genome's first page is the density sample input-adaptive
  // engines (the prefiltered DFA's skip cutoff) probe at lowering time.
  const std::string_view sample =
      sequence_.view().substr(0, std::min(options.paged.page_bytes, sequence_.size()));
  for (const automata::EngineKind kind : automata::kAllEngineKinds) {
    const auto i = static_cast<std::size_t>(kind);
    engines_[i] = automata::try_lower(kind, options.motifs, &engine_gaps_[i], sample);
  }
  // The oracle every parallel/kernel run is checked against must stay
  // independent of the kernels under test: use the naive reference loop.
  // One slow scan per materialized workload (cached) is cheap.
  sequential_matches_ =
      automata::scan_count_naive(dfa(), sequence_.view(), dfa().start()).match_count;

  if (options.out_of_core) {
    // Materialize-to-disk fixture: the same bytes written raw to a temp
    // file and re-served through the bounded page cache, so out-of-core
    // measurements are checked against the in-memory oracle above. The path
    // is keyed by workload identity plus this object's address — unique per
    // live fixture without reaching for banned entropy sources.
    const std::uint64_t tag = util::hash_combine(
        util::hash_combine(util::hash_string(logical.name), sequence_.size()),
        reinterpret_cast<std::uintptr_t>(this));
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("hetopt_ooc_" + std::to_string(tag) + ".raw");
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      if (!out) {
        throw std::runtime_error("RealWorkload: cannot create out-of-core fixture at " +
                                 path.string());
      }
      const std::string_view view = sequence_.view();
      out.write(view.data(), static_cast<std::streamsize>(view.size()));
      if (!out) {
        throw std::runtime_error("RealWorkload: short write to out-of-core fixture " +
                                 path.string());
      }
    }
    paged_path_ = path.string();
    paged_ = std::make_unique<dna::PagedGenome>(
        std::make_unique<dna::FilePageSource>(paged_path_), options.paged);
  }
}

RealWorkload::~RealWorkload() {
  if (!paged_path_.empty()) {
    paged_.reset();  // drop the open file handle before removing the fixture
    std::error_code ec;
    std::filesystem::remove(paged_path_, ec);  // best-effort temp cleanup
  }
}

dna::PagedGenome& RealWorkload::paged_genome() const {
  if (paged_ == nullptr) {
    throw std::logic_error(
        "RealWorkload: paged_genome() requires RealWorkloadOptions::out_of_core");
  }
  return *paged_;
}

const automata::MatchEngine& RealWorkload::engine(automata::EngineKind kind) const {
  const automata::MatchEngine* e = find_engine(kind);
  if (e == nullptr) {
    throw std::invalid_argument("RealWorkload: engine '" +
                                std::string(automata::to_string(kind)) +
                                "' is not applicable to the motif set: " +
                                engine_gap(kind));
  }
  return *e;
}

std::vector<automata::EngineKind> RealWorkload::engines() const {
  std::vector<automata::EngineKind> kinds;
  for (const automata::EngineKind kind : automata::kAllEngineKinds) {
    if (find_engine(kind) != nullptr) kinds.push_back(kind);
  }
  return kinds;
}

// --- RealWorkloadEvaluator --------------------------------------------------

RealWorkloadEvaluator::RealWorkloadEvaluator(dna::GenomeCatalog catalog,
                                             RealWorkloadOptions options)
    : catalog_(std::move(catalog)), options_(std::move(options)) {
  if (options_.repeats == 0) {
    throw std::invalid_argument("RealWorkloadEvaluator: repeats must be >= 1");
  }
  if (options_.chunks_per_thread == 0) {
    throw std::invalid_argument("RealWorkloadEvaluator: chunks_per_thread must be >= 1");
  }
}

std::shared_ptr<const RealWorkload> RealWorkloadEvaluator::cached(
    const Workload& workload) const {
  const std::string key =
      workload.name + "@" + std::to_string(scaled_bytes(workload, options_));
  const util::MutexLock lock(mutex_);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    it = cache_.emplace(key, std::make_shared<RealWorkload>(catalog_, workload, options_))
             .first;
  }
  return it->second;
}

const RealWorkload& RealWorkloadEvaluator::real(const Workload& workload) const {
  return *cached(workload);
}

RealMeasurement RealWorkloadEvaluator::measure(const opt::SystemConfig& config,
                                               const Workload& workload) const {
  if (config.host_threads < 1 || config.device_threads < 1) {
    throw std::invalid_argument("RealWorkloadEvaluator: thread counts must be >= 1");
  }
  if (config.device_count < 1) {
    throw std::invalid_argument("RealWorkloadEvaluator: device_count must be >= 1");
  }
  const std::shared_ptr<const RealWorkload> rw = cached(workload);

  const auto host_threads = static_cast<std::size_t>(config.host_threads);
  const auto device_threads = static_cast<std::size_t>(config.device_threads);
  const auto devices = static_cast<std::size_t>(config.device_count);

  RealMeasurement m;
  m.pool_count = config.device_count + 1;
  m.host_chunks = host_threads * options_.chunks_per_thread;
  m.device_chunks = device_threads * options_.chunks_per_thread;

  // Configured shares, fleet order. The paper's pair splits by the raw
  // fraction, {host_percent, 100 - host_percent}; a larger fleet keeps the
  // host fraction and water-fills the device remainder across K identical
  // Phis so they finish together — the same
  // sim::MultiDeviceMachine::distribute call the differential-oracle test
  // compares against.
  std::vector<double> shares;
  shares.reserve(devices + 1);
  if (devices == 1) {
    shares = {config.host_percent, 100.0 - config.host_percent};
  } else {
    const sim::ShareVector sv = sim::emil_with_phis(devices).distribute(
        rw->physical_mb(), config.host_percent, config.host_threads,
        config.host_affinity, config.device_threads, config.device_affinity);
    shares.push_back(sv.host_percent);
    for (const double d : sv.device_percent) shares.push_back(d);
  }

  // The configured engine runs every pool; asking for an engine the motif
  // set does not qualify for throws with the gap reason (callers size the
  // engine axis from RealWorkload::engines(), so search never gets here).
  std::vector<PoolSpec> specs;
  specs.reserve(devices + 1);
  PoolSpec host;
  host.threads = host_threads;
  host.share_percent = shares[0];
  host.chunks = m.host_chunks;
  if (options_.pin_threads) host.host_affinity = config.host_affinity;
  specs.push_back(host);
  for (std::size_t d = 0; d < devices; ++d) {
    PoolSpec dev;
    dev.threads = device_threads;
    dev.share_percent = shares[d + 1];
    dev.chunks = m.device_chunks;
    if (options_.pin_threads) dev.device_affinity = config.device_affinity;
    specs.push_back(dev);
  }
  HeterogeneousExecutor executor(rw->engine(config.engine), std::move(specs));

  // --- Self-healing measurement loop ----------------------------------------
  // Each successful attempt contributes one timing sample; an attempt that
  // throws (a genuine executor error, or an injected measure-fail) burns one
  // unit of the retry budget and backs off with seeded jitter before the
  // next try. With no armed fault plan this collects exactly `repeats`
  // samples, as before.
  const util::FaultInjector* injector = util::FaultInjector::current();
  util::Backoff backoff(injector != nullptr ? injector->plan().seed : 0);
  struct Sample {
    double seconds;
    ExecutionReport report;
  };
  std::vector<Sample> samples;
  samples.reserve(options_.repeats);
  std::size_t budget = options_.measure_retry_budget;
  while (samples.size() < options_.repeats) {
    try {
      if (injector != nullptr && injector->measure_fails()) {
        throw util::FaultInjectedError("injected measure-fail");
      }
      // Out-of-core mode streams the on-disk fixture through the paged
      // fleet path; the default scans the in-memory copy, as always.
      ExecutionReport report;
      if (options_.out_of_core) {
        PagedFleetOptions po;
        po.schedule = config.schedule;
        report = executor.run_fleet_paged(rw->paged_genome(), shares, po);
      } else {
        report = executor.run_fleet(rw->text(), config.schedule);
      }
      double seconds = report.total_seconds;
      if (injector != nullptr) {
        seconds *= injector->measure_noise(samples.size());
      }
      samples.push_back(Sample{seconds, std::move(report)});
    } catch (...) {
      ++m.measure_failures;  // recorded failure; retried below or given up on
      if (budget == 0) break;
      --budget;
      backoff.sleep();
    }
  }
  if (samples.empty()) {
    // Total measurement loss: the candidate is priced out, not the session.
    // seconds = +inf flows through opt::checked_energy (which admits +inf),
    // so the search simply never picks this configuration.
    m.valid = false;
    m.seconds = std::numeric_limits<double>::infinity();
    invalid_count_.fetch_add(1, std::memory_order_relaxed);
    return m;
  }
  // Median-of-k outlier rejection: with three or more samples, samples slower
  // than 4x the median are disqualified from being the reported run (a noise
  // spike must not masquerade as a measurement). The minimum can never be
  // rejected, so the no-fault reported run is unchanged.
  double reject_above = std::numeric_limits<double>::infinity();
  if (samples.size() >= 3) {
    std::vector<double> sorted;
    sorted.reserve(samples.size());
    for (const Sample& s : samples) sorted.push_back(s.seconds);
    std::sort(sorted.begin(), sorted.end());
    reject_above = 4.0 * sorted[sorted.size() / 2];
  }
  const Sample* best = nullptr;
  for (const Sample& s : samples) {
    if (s.seconds > reject_above) {
      ++m.rejected_outliers;
      continue;
    }
    if (best == nullptr || s.seconds < best->seconds) best = &s;
  }
  {
    const ExecutionReport& report = best->report;
    m.seconds = best->seconds;
    m.matches = report.total_matches();
    m.imbalance = report.imbalance;
    m.configured_percents.clear();
    m.realized_percents.clear();
    m.pool_seconds.clear();
    m.pool_bytes.clear();
    m.pool_steals.clear();
    for (const PoolReport& pool : report.pools) {
      m.configured_percents.push_back(pool.configured_percent);
      m.realized_percents.push_back(pool.realized_percent);
      m.pool_seconds.push_back(pool.seconds);
      m.pool_bytes.push_back(pool.bytes);
      m.pool_steals.push_back(pool.steals);
    }
    // Host = pool 0; the device side aggregates pools 1..K (sums, with the
    // slowest device's seconds).
    const PoolReport& host_pool = report.pools.front();
    m.host_seconds = host_pool.seconds;
    m.host_bytes = host_pool.bytes;
    m.realized_host_percent = host_pool.realized_percent;
    m.host_steals = host_pool.steals;
    m.device_seconds = 0.0;
    m.device_bytes = 0;
    m.device_steals = 0;
    for (std::size_t i = 1; i < report.pools.size(); ++i) {
      m.device_seconds = std::max(m.device_seconds, report.pools[i].seconds);
      m.device_bytes += report.pools[i].bytes;
      m.device_steals += report.pools[i].steals;
    }
    m.failed_pools = report.failed_pools;
    m.requeued_chunks = report.requeued_chunks;
    m.chunk_retries = report.chunk_retries;
    m.degraded = report.degraded;
  }
  if (options_.deterministic_timing) {
    // Model the *configured* split, not the realized bytes: under the
    // shared-queue schedules the realized distribution varies run to run,
    // and seeded deterministic tuning must not. (For static the two are the
    // same split, so pre-schedule-axis numbers are unchanged.) The
    // distribution-runtime fields are overridden to the configured split
    // too — a half-deterministic measurement whose bytes disagreed with its
    // modeled seconds would flake any test or JSON diff that reads them.
    //
    // The byte split is the executor's own segment cut (share_bounds).
    const std::size_t total = rw->text().size();
    const std::vector<std::size_t> bounds = parallel::share_bounds(total, shares);
    const std::size_t host_b = bounds[1] - bounds[0];
    std::vector<std::size_t> device_b(shares.size() - 1);
    for (std::size_t d = 0; d + 1 < shares.size(); ++d) {
      device_b[d] = bounds[d + 2] - bounds[d + 1];
    }
    m.seconds = real_workload_model_fleet_seconds(config, host_b, device_b);
    // The per-pool display fields use the static per-pool formula — a
    // pool's standalone drain time, deterministic in the config alone.
    opt::SystemConfig side = config;
    side.schedule = parallel::SchedulePolicy::kStatic;
    m.host_seconds = real_workload_model_seconds(side, host_b, 0);
    m.device_seconds = 0.0;
    m.configured_percents = shares;
    m.realized_percents.assign(shares.size(), 0.0);
    m.pool_seconds.assign(shares.size(), 0.0);
    m.pool_bytes.assign(shares.size(), 0);
    m.pool_steals.assign(shares.size(), 0);
    m.pool_seconds[0] = m.host_seconds;
    m.pool_bytes[0] = host_b;
    std::size_t device_total = 0;
    for (std::size_t d = 0; d < device_b.size(); ++d) {
      const double device_s = real_workload_model_seconds(side, 0, device_b[d]);
      m.device_seconds = std::max(m.device_seconds, device_s);
      m.pool_seconds[d + 1] = device_s;
      m.pool_bytes[d + 1] = device_b[d];
      device_total += device_b[d];
    }
    for (std::size_t i = 0; i < shares.size(); ++i) {
      m.realized_percents[i] =
          total == 0 ? 0.0
                     : 100.0 * static_cast<double>(m.pool_bytes[i]) /
                           static_cast<double>(total);
    }
    m.host_bytes = host_b;
    m.device_bytes = device_total;
    m.realized_host_percent = m.realized_percents[0];
    m.host_steals = 0;
    m.device_steals = 0;
    m.imbalance = 0.0;
  }
  m.throughput_mb_s = m.seconds > 0.0 ? rw->physical_mb() / m.seconds : 0.0;
  return m;
}

double RealWorkloadEvaluator::value(const opt::SystemConfig& config,
                                    const Workload& workload) const {
  return measure(config, workload).seconds;
}

double RealWorkloadEvaluator::score(const opt::SystemConfig& config,
                                    const Workload& workload) const {
  // Scoring is one more real run of the winner — the literal §IV-C protocol.
  return measure(config, workload).seconds;
}

}  // namespace hetopt::core
