// The real-workload measurement pipeline: tune the *actual* PaREM-style
// chunk-parallel DNA matcher instead of the simulated Emil surface.
//
// core::RealWorkload materializes a physically scaled-down synthetic genome
// for one of the paper's logical workloads (dna::GenomeCatalog) and compiles
// the motif set into the dense scanning automaton. core::RealWorkloadEvaluator
// plugs into core::TuningSession exactly like the simulated evaluators: every
// candidate configuration is priced by *running* the heterogeneous executor —
// one host pool plus `device_count` emulated-device pools, sized, pinned and
// chunked from the opt::SystemConfig — and timing the overlapped scan.
// EM/EML/SAM/SAML therefore tune live code end-to-end, which is what the
// paper's testbed did.
//
// A RealMeasurement is what the evaluator adds (seconds, throughput, the
// match count, validity and the self-healing counters) plus the executor's
// ExecutionReport of the run it reports, passed on whole: who scanned what,
// for how long, and what the recovery policy did is read from
// `report.pools` and the report's fault fields, not from copies.
//
// Two timing modes:
//   wall          (default) monotonic wall-clock of the real scan, min over
//                 `repeats` runs. Non-deterministic, as real measurements are.
//   deterministic the scan still runs (match counts stay live and exact) but
//                 the reported seconds come from a pure work model of the
//                 configured split, and the report's per-pool bytes, shares
//                 and seconds are rewritten to that model. Used by tests and
//                 CI smoke runs, where wall-clock noise would make seeds
//                 meaningless.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "automata/compiled_dfa.hpp"
#include "automata/dense_dfa.hpp"
#include "automata/engine_kind.hpp"
#include "automata/match_engine.hpp"
#include "core/evaluator.hpp"
#include "core/executor.hpp"
#include "core/workload.hpp"
#include "dna/catalog.hpp"
#include "dna/sequence.hpp"
#include "opt/config.hpp"
#include "util/annotations.hpp"
#include "util/sync.hpp"

namespace hetopt::core {

struct RealWorkloadOptions {
  /// IUPAC motif expressions compiled into one scanning automaton.
  std::vector<std::string> motifs{"TATAWAW", "GGGCGG"};
  /// Physical bytes materialized per *logical* megabyte of the workload
  /// (the paper's genomes are GBs; the default scales human to ~3.2 MB).
  double bytes_per_logical_mb = 1024.0;
  /// Clamp on the materialized sequence size.
  std::size_t min_physical_bytes = std::size_t{64} * 1024;
  std::size_t max_physical_bytes = std::size_t{64} * 1024 * 1024;
  /// Timed repetitions per measurement; the minimum is reported (standard
  /// practice for wall-clock microbenchmarks). A self-healing measure() may
  /// spend two more attempts on failed runs, backing off with seeded jitter,
  /// before it returns a marked-invalid (infinite-seconds) measurement.
  std::size_t repeats = 1;
  /// Replace wall-clock with the deterministic work model (tests, CI).
  bool deterministic_timing = false;
};

/// A logical workload made physical: the scaled synthetic genome plus every
/// match engine applicable to the motif set, with the sequential match count
/// as ground truth. The compiled-DFA engine always exists; bitap-simd is
/// built when the motif set qualifies (IUPAC patterns, <= 64 summed pattern
/// bits) and skipped — with a recorded reason — when not, so the tuner's
/// engine axis can be sized per workload.
class RealWorkload {
 public:
  RealWorkload(const dna::GenomeCatalog& catalog, const Workload& logical,
               const RealWorkloadOptions& options);

  [[nodiscard]] const Workload& logical() const noexcept { return logical_; }
  [[nodiscard]] std::string_view text() const noexcept { return sequence_.view(); }
  [[nodiscard]] const automata::DenseDfa& dfa() const noexcept {
    return *engines_[0]->dfa();
  }
  /// The motif automaton lowered into the compiled scan kernels (built once
  /// per workload; what the compiled-DFA engine and the kernel bench scan
  /// with).
  [[nodiscard]] const automata::CompiledDfa& compiled() const noexcept {
    return *engines_[0]->kernel();
  }
  [[nodiscard]] std::size_t physical_bytes() const noexcept { return sequence_.size(); }
  [[nodiscard]] double physical_mb() const noexcept {
    return static_cast<double>(sequence_.size()) / (1024.0 * 1024.0);
  }
  /// Match count of a plain sequential scan — the oracle every parallel
  /// configuration must reproduce exactly.
  [[nodiscard]] std::uint64_t sequential_matches() const noexcept {
    return sequential_matches_;
  }

  // --- Engine selection ------------------------------------------------------
  /// The engine of `kind`, or nullptr when the motif set does not qualify.
  [[nodiscard]] const automata::MatchEngine* find_engine(
      automata::EngineKind kind) const noexcept {
    return engines_[static_cast<std::size_t>(kind)].get();
  }
  /// The engine of `kind`; throws std::invalid_argument (with the gap
  /// reason) when it is not applicable to the motif set.
  [[nodiscard]] const automata::MatchEngine& engine(automata::EngineKind kind) const;
  /// The kinds applicable to this motif set, in axis order (always includes
  /// kCompiledDfa) — what ConfigSpace::with_engines() should receive.
  [[nodiscard]] std::vector<automata::EngineKind> engines() const;
  /// Why `kind` is unavailable ("" when it is available).
  [[nodiscard]] const std::string& engine_gap(automata::EngineKind kind) const noexcept {
    return engine_gaps_[static_cast<std::size_t>(kind)];
  }

 private:
  Workload logical_;
  // Indexed by EngineKind; [0] (compiled-dfa) is always present.
  std::array<std::unique_ptr<const automata::MatchEngine>, automata::kEngineKindCount>
      engines_;
  std::array<std::string, automata::kEngineKindCount> engine_gaps_;
  dna::Sequence sequence_;
  std::uint64_t sequential_matches_ = 0;
};

/// One measurement of a configuration: what the evaluator adds, plus the
/// executor's report of the run it reports.
struct RealMeasurement {
  /// Overlapped seconds of the reported run (the fastest of `repeats` that
  /// survived the outlier filter), or the work model's seconds under
  /// deterministic timing; +infinity when `valid` is false.
  double seconds = 0.0;
  double throughput_mb_s = 0.0;  // physical MB scanned per reported second
  std::uint64_t matches = 0;     // report.total_matches()
  /// False when every attempt failed and the retry budget ran out; `seconds`
  /// is then +infinity, so opt::checked_energy prices the candidate out
  /// instead of aborting the tuning session.
  bool valid = true;
  /// Measurement attempts that threw (and were retried with backoff).
  std::uint64_t measure_failures = 0;
  /// Timing samples rejected by the median-of-k outlier filter.
  std::uint64_t rejected_outliers = 0;
  /// The reported run: one pool per fleet member (pool 0 = host, pools
  /// 1..K = devices), whose configured_percent is the share measure()
  /// configured, plus the recovery policy's failure telemetry. Under
  /// deterministic timing each pool's bytes, seconds and realized share are
  /// the model's (the executor's share cut of the configured split, priced
  /// standalone), steals and imbalance are 0, and total_seconds equals
  /// `seconds`; per-pool matches stay the live run's, and only their sum is
  /// independent of the schedule. `pools` is empty when `valid` is false.
  ExecutionReport report;
};

/// Evaluator backend that prices configurations by executing the real
/// matcher. Materialized workloads are cached per (genome, scale), so a
/// tuning run generates the genome once. Not concurrent(): timed runs must
/// not overlap or they would perturb each other's measurements.
class RealWorkloadEvaluator final : public Evaluator {
 public:
  explicit RealWorkloadEvaluator(dna::GenomeCatalog catalog, RealWorkloadOptions options = {});

  [[nodiscard]] std::string_view name() const noexcept override { return "real-workload"; }
  [[nodiscard]] double score(const opt::SystemConfig& config,
                             const Workload& workload) const override;

  /// One full measurement of `config` (what value()/score() consume the
  /// seconds of); exposed so benches can report throughput and match counts.
  ///
  /// `config.device_count` sizes the executed fleet: 1 (the default) runs
  /// the paper's host+device pair as a 2-pool fleet; K > 1 runs one
  /// host pool plus K emulated-device pools, with the device remainder of
  /// the configured fraction water-filled across the K devices by
  /// sim::MultiDeviceMachine::distribute (the Emil host + K Phi model) so
  /// identical devices finish together.
  ///
  /// Throws std::invalid_argument for a configuration the engine or the
  /// executor rejects; only other failures are retried and, once the retry
  /// budget runs out, returned marked-invalid.
  [[nodiscard]] RealMeasurement measure(const opt::SystemConfig& config,
                                        const Workload& workload) const;

  /// The materialized physical workload behind `workload` (cached).
  [[nodiscard]] const RealWorkload& real(const Workload& workload) const;

  [[nodiscard]] const RealWorkloadOptions& options() const noexcept { return options_; }

  /// Measurements that exhausted their retry budget and were returned
  /// marked-invalid (infinite seconds) over this evaluator's lifetime — how
  /// a tuning run reports "kept searching through N hard failures".
  [[nodiscard]] std::uint64_t invalid_measurements() const noexcept {
    return invalid_count_.load(std::memory_order_relaxed);
  }

 protected:
  [[nodiscard]] double value(const opt::SystemConfig& config,
                             const Workload& workload) const override;
  [[nodiscard]] bool concurrent() const noexcept override { return false; }

 private:
  [[nodiscard]] std::shared_ptr<const RealWorkload> cached(const Workload& workload) const;

  dna::GenomeCatalog catalog_;
  RealWorkloadOptions options_;
  mutable std::atomic<std::uint64_t> invalid_count_{0};
  mutable util::Mutex mutex_;
  mutable std::map<std::string, std::shared_ptr<const RealWorkload>> cache_
      HETOPT_GUARDED_BY(mutex_);
};

/// The deterministic work model (exposed for tests): overlapped seconds for
/// scanning `host_bytes` on the host and `device_bytes[i]` on device pool i
/// under `config`. Every device pool runs `config.device_threads` under
/// `config.device_affinity` (the identical-accelerator assumption of
/// sim::emil_with_phis). The configured engine scales the scan cost (the
/// default compiled-DFA engine's factor is exactly 1), and the schedule sets
/// the shape: static is the max over the host's drain and every non-empty
/// device's launch + drain; the shared-queue schedules drain the combined
/// bytes at the summed rate (one host rate + K device rates) times a
/// policy-specific queue-traffic factor (dynamic > guided > adaptive —
/// adaptive touches the shared ends least). Throws std::invalid_argument
/// when `device_bytes` is empty. Pure.
[[nodiscard]] double real_workload_model_fleet_seconds(
    const opt::SystemConfig& config, std::size_t host_bytes,
    const std::vector<std::size_t>& device_bytes);

}  // namespace hetopt::core
