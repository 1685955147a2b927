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
// Two timing modes:
//   wall          (default) monotonic wall-clock of the real scan, min over
//                 `repeats` runs. Non-deterministic, as real measurements are.
//   deterministic the scan still runs (match counts stay live and exact) but
//                 the reported seconds come from a pure work model of the
//                 executed bytes/threads/affinity. Used by tests and CI smoke
//                 runs, where wall-clock noise would make seeds meaningless.
#pragma once

#include <array>
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
#include "automata/parallel_matcher.hpp"
#include "core/evaluator.hpp"
#include "core/workload.hpp"
#include "dna/catalog.hpp"
#include "dna/paged_genome.hpp"
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
  /// practice for wall-clock microbenchmarks).
  std::size_t repeats = 1;
  /// Chunks per pool worker (the matcher's chunking knob).
  std::size_t chunks_per_thread = 1;
  /// Apply the configuration's scatter/compact policies to the pool workers.
  bool pin_threads = true;
  /// Replace wall-clock with the deterministic work model (tests, CI).
  bool deterministic_timing = false;
  /// Extra measurement attempts (beyond `repeats`) a self-healing measure()
  /// may spend on failed runs before giving up and returning a marked-invalid
  /// (infinite-seconds) measurement. Retries back off with seeded jitter.
  std::size_t measure_retry_budget = 2;
  /// Opt-in out-of-core mode: the materialized genome is additionally
  /// written to a temporary raw file and every measurement streams it
  /// through a bounded page cache (dna::PagedGenome + the executor's paged
  /// fleet mode) instead of scanning the in-memory copy. Match counts stay
  /// checked against the same in-memory sequential oracle. The `paged`
  /// resident budget must cover the largest fleet a measured configuration
  /// builds (total workers across pools) or measure() attempts fail. The
  /// default (false) leaves every path byte-identical to before.
  bool out_of_core = false;
  /// Page geometry/budget of the out-of-core cache. The halo default (63)
  /// covers any motif shorter than 64 bases; longer motif sets need a
  /// larger halo (>= synchronization bound - 1).
  dna::PagedGenomeOptions paged{};
};

/// A logical workload made physical: the scaled synthetic genome plus every
/// match engine applicable to the motif set, with the sequential match count
/// as ground truth. The compiled-DFA engine always exists; Aho–Corasick and
/// bitap are built when the motif set qualifies (literal ACGT patterns /
/// <= 64 summed pattern bits) and skipped — with a recorded reason — when
/// not, so the tuner's engine axis can be sized per workload.
class RealWorkload {
 public:
  RealWorkload(const dna::GenomeCatalog& catalog, const Workload& logical,
               const RealWorkloadOptions& options);

  // The out-of-core fixture owns a temp file; neither it nor the engines
  // are copyable.
  RealWorkload(const RealWorkload&) = delete;
  RealWorkload& operator=(const RealWorkload&) = delete;
  ~RealWorkload();

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

  // --- Out-of-core fixture ---------------------------------------------------
  /// True when this workload was materialized with
  /// RealWorkloadOptions::out_of_core: the genome also lives in a temp raw
  /// file behind a bounded page cache, and measurements stream it.
  [[nodiscard]] bool out_of_core() const noexcept { return paged_ != nullptr; }
  /// The paged view of the materialized genome (same bytes as text(), served
  /// from disk through the bounded cache — the parity tests check both the
  /// content and the match counts against the in-memory copy). Thread-safe
  /// like any PagedGenome; throws std::logic_error when not out-of-core.
  [[nodiscard]] dna::PagedGenome& paged_genome() const;
  /// Path of the on-disk raw fixture ("" when not out-of-core).
  [[nodiscard]] const std::string& paged_path() const noexcept { return paged_path_; }

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
  // Out-of-core fixture: the on-disk raw copy of sequence_ plus its paged
  // view (null when the mode is off). The file is removed in the dtor.
  std::string paged_path_;
  std::unique_ptr<dna::PagedGenome> paged_;
};

/// Everything one timed run of a configuration produced.
struct RealMeasurement {
  double seconds = 0.0;          // overlapped time (max of pools; min over repeats)
  double host_seconds = 0.0;     // host-side wall time of the reported run
  double device_seconds = 0.0;   // slowest emulated-device-side wall time
  double throughput_mb_s = 0.0;  // physical MB scanned per reported second
  std::uint64_t matches = 0;     // total motif occurrences found
  std::size_t host_bytes = 0;    // bytes the host side actually scanned
  std::size_t device_bytes = 0;  // bytes all device pools scanned, summed
  std::size_t host_chunks = 0;
  std::size_t device_chunks = 0;  // chunks *per device pool*
  // The distribution runtime's view of the reported run (executor.hpp):
  // under the shared-queue schedules the realized fraction emerges at
  // runtime; under static it equals the configured one and steals are 0.
  double realized_host_percent = 0.0;
  std::uint64_t host_steals = 0;
  std::uint64_t device_steals = 0;  // summed over all device pools
  double imbalance = 0.0;

  // --- Fleet view (pool 0 = host, pools 1..K = devices) ----------------------
  // One entry per pool of the executed fleet, in fleet order (the scalars
  // above are derived from them: host = pool 0, device = pools 1..K). For
  // the paper's pair (device_count = 1) these have exactly two entries; the
  // differential-oracle test layer compares configured_percents against
  // sim::MultiDeviceMachine::distribute.
  int pool_count = 2;                       // host + device_count
  std::vector<double> configured_percents;  // shares the run was asked for
  std::vector<double> realized_percents;    // shares that actually emerged
  std::vector<double> pool_seconds;         // per-pool wall time
  std::vector<std::size_t> pool_bytes;      // per-pool scanned bytes
  std::vector<std::uint64_t> pool_steals;   // per-pool cross-segment claims

  // --- Self-healing / failure view -------------------------------------------
  /// False when every attempt failed and the retry budget ran out; `seconds`
  /// is then +infinity, so opt::checked_energy prices the candidate out
  /// instead of aborting the tuning session.
  bool valid = true;
  /// Measurement attempts that threw (and were retried with backoff).
  std::uint64_t measure_failures = 0;
  /// Timing samples rejected by the median-of-k outlier filter.
  std::uint64_t rejected_outliers = 0;
  // Executor failure telemetry of the reported run (ExecutionReport):
  std::vector<std::size_t> failed_pools;
  std::uint64_t requeued_chunks = 0;
  std::uint64_t chunk_retries = 0;
  bool degraded = false;
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
/// scanning `host_bytes` + `device_bytes` under `config`, including the
/// configured engine's rate factor (the default compiled-DFA engine's factor
/// is exactly 1, so pre-engine-axis numbers are unchanged) and the
/// configured schedule's shape: static is exactly the pre-schedule-axis
/// formula (factor 1.0); the shared-queue schedules drain the combined work
/// with both pools, costed at the summed rates times a policy-specific
/// queue-traffic factor (dynamic > guided > adaptive — adaptive touches the
/// shared ends least). Pure.
[[nodiscard]] double real_workload_model_seconds(const opt::SystemConfig& config,
                                                 std::size_t host_bytes,
                                                 std::size_t device_bytes);

/// Fleet generalization of the work model: `device_bytes[i]` is the share of
/// device pool i (all device pools run `config.device_threads` under
/// `config.device_affinity` — the identical-accelerator assumption of
/// sim::emil_with_phis). Static is the max over the host's drain and every
/// device's launch + drain; the shared-queue schedules drain the combined
/// bytes at the summed rate (one host rate + K device rates). With one
/// device this is *literally* real_workload_model_seconds — the 2-arg form
/// delegates here — so pre-fleet seeded numbers are unchanged. Pure.
[[nodiscard]] double real_workload_model_fleet_seconds(
    const opt::SystemConfig& config, std::size_t host_bytes,
    const std::vector<std::size_t>& device_bytes);

}  // namespace hetopt::core
