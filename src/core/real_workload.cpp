#include "core/real_workload.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "automata/hopcroft.hpp"
#include "automata/regex.hpp"
#include "automata/scanner.hpp"
#include "automata/subset.hpp"
#include "dna/alphabet.hpp"
#include "parallel/partitioner.hpp"
#include "sim/multi.hpp"
#include "util/backoff.hpp"
#include "util/fault.hpp"

namespace hetopt::core {

namespace {

/// Measurement attempts a self-healing measure() may spend beyond `repeats`
/// on failed runs before it gives up and returns a marked-invalid
/// measurement.
constexpr std::size_t kMeasureRetryBudget = 2;

/// One concrete ACGT instantiation of an IUPAC motif (first base of every
/// ambiguity class), used to plant findable copies into the genome. Regex
/// operators ('?', '(', ')', '|') are skipped: planting works on the literal
/// backbone and is best-effort anyway.
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
/// unchanged; the SIMD bitap is modeled cheaper (its whole state is one
/// register per vector lane, no table loads). Real measurements of course
/// override this — the model only needs seeded runs to face an
/// engine-shaped landscape.
[[nodiscard]] double engine_model_factor(automata::EngineKind k) noexcept {
  switch (k) {
    case automata::EngineKind::kCompiledDfa: return 1.00;
    case automata::EngineKind::kBitapSimd: return 0.70;
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
  // is therefore always present (compile errors propagate from here).
  for (const automata::EngineKind kind : automata::kAllEngineKinds) {
    const auto i = static_cast<std::size_t>(kind);
    engines_[i] = automata::try_lower(kind, options.motifs, &engine_gaps_[i]);
  }
  // The oracle every parallel/kernel run is checked against must stay
  // independent of the kernels under test: use the naive reference loop.
  // One slow scan per materialized workload (cached) is cheap.
  sequential_matches_ =
      automata::scan_count_naive(dfa(), sequence_.view(), dfa().start()).match_count;
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

  const auto devices = static_cast<std::size_t>(config.device_count);

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

  // One host pool plus `devices` device pools, pinned per the affinity axes,
  // each cut into one chunk per worker. The configured engine runs every
  // pool; asking for an engine the motif set does not qualify for throws
  // with the gap reason (callers size the engine axis from
  // RealWorkload::engines(), so search never gets here).
  std::vector<PoolSpec> specs(devices + 1);
  specs[0].threads = static_cast<std::size_t>(config.host_threads);
  specs[0].host_affinity = config.host_affinity;
  for (std::size_t d = 1; d <= devices; ++d) {
    specs[d].threads = static_cast<std::size_t>(config.device_threads);
    specs[d].device_affinity = config.device_affinity;
  }
  for (std::size_t i = 0; i <= devices; ++i) specs[i].share_percent = shares[i];
  HeterogeneousExecutor executor(rw->engine(config.engine), std::move(specs));

  // --- Self-healing measurement loop ----------------------------------------
  // Each successful attempt contributes one timing sample; an attempt that
  // throws (a genuine executor error, or an injected measure-fail) burns one
  // unit of the retry budget and backs off with seeded jitter before the
  // next try. std::invalid_argument is not retried: the executor throws it
  // for a configuration it rejects, which fails the same way on every
  // attempt. With no armed fault plan this collects exactly `repeats`
  // samples, as before.
  RealMeasurement m;
  const util::FaultInjector* injector = util::FaultInjector::current();
  util::Backoff backoff(injector != nullptr ? injector->plan().seed : 0);
  struct Sample {
    double seconds;
    ExecutionReport report;
  };
  std::vector<Sample> samples;
  samples.reserve(options_.repeats);
  std::size_t budget = kMeasureRetryBudget;
  while (samples.size() < options_.repeats) {
    try {
      if (injector != nullptr && injector->measure_fails()) {
        throw util::FaultInjectedError("injected measure-fail");
      }
      ExecutionReport report = executor.run_fleet(rw->text(), config.schedule);
      double seconds = report.total_seconds;
      if (injector != nullptr) {
        seconds *= injector->measure_noise(samples.size());
      }
      samples.push_back(Sample{seconds, std::move(report)});
    } catch (const std::invalid_argument&) {
      throw;
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
  Sample* best = nullptr;
  for (Sample& s : samples) {
    if (s.seconds > reject_above) {
      ++m.rejected_outliers;
      continue;
    }
    if (best == nullptr || s.seconds < best->seconds) best = &s;
  }
  m.seconds = best->seconds;
  m.report = std::move(best->report);
  m.matches = m.report.total_matches();
  if (options_.deterministic_timing) {
    // Model the *configured* split, not the realized bytes: under the
    // shared-queue schedules the realized distribution varies run to run,
    // and seeded deterministic tuning must not. (For static the two are the
    // same split, so pre-schedule-axis numbers are unchanged.) The report's
    // distribution fields are rewritten to the configured split too — a
    // half-deterministic measurement whose bytes disagreed with its modeled
    // seconds would flake any test or JSON diff that reads them. Each pool's
    // bytes are the executor's own segment cut (share_bounds), and its
    // seconds the static formula for that pool alone — a standalone drain
    // time, deterministic in the config alone.
    const std::size_t total = rw->text().size();
    const std::vector<std::size_t> bounds = parallel::share_bounds(total, shares);
    opt::SystemConfig side = config;
    side.schedule = parallel::SchedulePolicy::kStatic;
    std::vector<std::size_t> device_bytes;
    device_bytes.reserve(devices);
    for (std::size_t i = 0; i < m.report.pools.size(); ++i) {
      PoolReport& pool = m.report.pools[i];
      pool.bytes = bounds[i + 1] - bounds[i];
      pool.seconds = i == 0 ? real_workload_model_fleet_seconds(side, pool.bytes, {0})
                            : real_workload_model_fleet_seconds(side, 0, {pool.bytes});
      pool.realized_percent =
          total == 0 ? 0.0
                     : 100.0 * static_cast<double>(pool.bytes) / static_cast<double>(total);
      pool.steals = 0;
      if (i > 0) device_bytes.push_back(pool.bytes);
    }
    m.seconds = real_workload_model_fleet_seconds(config, m.report.pools[0].bytes, device_bytes);
    m.report.total_seconds = m.seconds;
    m.report.imbalance = 0.0;
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
