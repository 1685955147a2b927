// The real (non-simulated) heterogeneous execution path: given a match
// engine and a physical DNA sequence, distribute the bytes across an ordered
// fleet of worker pools — pool 0 is the host, pools 1..N-1 are emulated
// devices — and scan every share *concurrently*, mirroring the paper's
// overlapped offload model generalized to the multi-accelerator machines the
// paper names as future work.
//
// Every run — in memory or paged, counting or collecting — is one
// chunk-ticket loop. The input is a list of spans (an in-memory text is one
// span; a dna::PagedGenome is one span per page, and the share cut falls on
// page seams), the spans are cut into chunk tickets, and each pool's workers
// claim tickets and scan them through MatchEngine::count_chunk/collect_chunk;
// only the ticket order changes with the distribution schedule
// (parallel/schedule.hpp):
//
//   static    one queue per configured segment, cut by the shares; each
//             pool drains its own segment and nothing else — the paper's
//             model;
//   dynamic   one shared queue over the whole input, every pool pulls from
//             the front, the realized split emerges from relative speeds;
//   guided    shared queue with guided (decreasing) chunk sizes;
//   adaptive  the static segment queues, but a pool that drains its own
//             segment *steals* from the back of the nearest unfinished
//             segment. Every pool claims its own segment in ascending order,
//             so owner and thief meet from opposite ends — the classic
//             two-ended scheme at every segment.
//
// Every policy produces byte-identical match counts (each chunk scan warms
// up over its own lead bytes); what changes is who scans what and when.
// Engines with no synchronization bound cannot warm up, so they run static
// with one chunk per pool, each pool entering its segment through
// count_chunk's prefix replay (in memory only). ExecutionReport::pools
// records per-pool realized shares, steal counts, and an imbalance metric so
// the tuner and the benches can see the difference.
//
// A paged ticket pins its page (at most one pin per worker, kept across the
// worker's tickets on that page) and is scanned on the pinned halo+payload
// view: the stored halo supplies the warm-up lead across page seams. Each
// segment's pool streams its pages through its own PrefetchReader (the
// shared-queue schedules use one reader); only ascending claims from a
// queue's front publish its reader's frontier, so a steal never drags a
// reader past pages its owner has not reached.
//
// Fault tolerance is a policy on the same loop, switched on only while an
// armed util::FaultInjector plan exercises recovery: a watchdog deadlines
// every pool, a dead or stalled pool's unclaimed tickets are requeued to the
// survivors (under static, a failed pool's segment is the only legal steal
// source), a failing chunk is retried and then degraded to the naive
// scanner, and a final sweep on the caller covers total fleet loss. With no
// such plan armed, scan errors (e.g. a non-ACGT byte) propagate unchanged.
//
// The executor is engine-generic: any automata::MatchEngine (compiled DFA,
// Aho–Corasick, bitap) drives every pool, which is how the tuner prices the
// engine axis with live runs.
//
// Substitution note: with no Xeon Phi present, every device share runs on an
// emulated device — another thread pool on the host. Results (match counts,
// positions) are exactly what the offloaded code would produce; *performance*
// of a real device fleet is the business of hetopt::sim, not this class.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "automata/dense_dfa.hpp"
#include "automata/match_engine.hpp"
#include "dna/paged_genome.hpp"
#include "dna/prefetch_reader.hpp"
#include "parallel/affinity.hpp"
#include "parallel/schedule.hpp"
#include "parallel/thread_pool.hpp"

namespace hetopt::core {

/// One pool of the fleet. Pool 0 is conventionally the host (pin with
/// `host_affinity`); pools 1..N-1 are emulated devices (pin with
/// `device_affinity`). Setting both affinities on one pool is rejected.
struct PoolSpec {
  /// Workers in this pool's thread pool (at least 1).
  std::size_t threads = 1;
  /// Configured share of the input bytes, in percent. The shares of a fleet
  /// must sum to 100 (run_fleet overloads can override them per run).
  double share_percent = 0.0;
  /// Chunks this pool's segment (on a paged run, each page of it) is cut
  /// into under the static and adaptive schedules; 0 means one chunk per
  /// worker.
  std::size_t chunks = 0;
  /// Watchdog deadline for this pool when the recovery policy is on: the
  /// pool is declared failed after this long without completing a chunk.
  /// 0 means "use the executor's RecoveryOptions::watchdog_seconds".
  double watchdog_seconds = 0.0;
  std::optional<parallel::HostAffinity> host_affinity;
  std::optional<parallel::DeviceAffinity> device_affinity;
};

/// Tunables of the recovery policy (on only while a util::FaultInjector plan
/// with execution faults is armed — the no-fault run loop skips all of it).
struct RecoveryOptions {
  /// Default per-pool watchdog deadline: a pool that completes no chunk for
  /// this long is declared failed and its unclaimed work is redistributed.
  double watchdog_seconds = 0.05;
  /// Scan attempts per chunk before degrading to the naive scanner.
  std::size_t max_chunk_attempts = 3;
};

/// Tunables of the fleet's paged (out-of-core) scan.
struct PagedFleetOptions {
  /// The fleet schedule, with the meaning it has in memory: static and
  /// adaptive cut the page range by the shares, dynamic and guided pull every
  /// page from one shared queue.
  parallel::SchedulePolicy schedule = parallel::SchedulePolicy::kStatic;
  /// Lookahead pages of every PrefetchReader. Clamped so the fleet's worker
  /// pins plus every reader's ring and in-flight load fit the resident
  /// budget; 0 starts no reader (every page is a cold demand load).
  std::size_t prefetch_depth = 2;
};

/// Per-pool slice of an ExecutionReport.
struct PoolReport {
  std::uint64_t matches = 0;
  /// Bytes this pool *actually* scanned (configured share under static,
  /// realized share under the shared-queue schedules).
  std::size_t bytes = 0;
  double seconds = 0.0;  // wall time of this pool's share
  double configured_percent = 0.0;
  /// bytes as a percentage of the input.
  double realized_percent = 0.0;
  /// Chunks this pool claimed out of another pool's configured segment.
  std::uint64_t steals = 0;
  /// True when the recovery policy declared this pool dead or stalled; its
  /// unclaimed chunks were requeued to the survivors.
  bool failed = false;
};

struct ExecutionReport {
  /// One entry per pool, in fleet order (pool 0 = host) — the only record
  /// of who scanned what.
  std::vector<PoolReport> pools;

  double total_seconds = 0.0;  // max over the pools (overlapped execution)

  /// The schedule that actually ran (a requested demand-driven schedule
  /// degrades to kStatic when the engine has no synchronization bound).
  parallel::SchedulePolicy schedule = parallel::SchedulePolicy::kStatic;
  /// (slowest pool - fastest pool) / slowest pool, over the pools that
  /// scanned bytes; 0 when fewer than two pools worked. 0 = perfectly
  /// overlapped, → 1 = a pool idled while another carried the run.
  double imbalance = 0.0;

  // Failure telemetry, filled only by the recovery policy (all stay at their
  // zero defaults on a no-fault run, keeping the report bit-identical).
  /// Pools declared dead or stalled, ascending.
  std::vector<std::size_t> failed_pools;
  /// Chunks claimed out of a failed pool's unclaimed remainder (by the
  /// survivors or the coordinator's final sweep).
  std::uint64_t requeued_chunks = 0;
  /// Chunk scan attempts that failed and were retried.
  std::uint64_t chunk_retries = 0;
  /// True when some chunk exhausted its retry budget and fell back to the
  /// naive reference scanner.
  bool degraded = false;

  // Paged runs only (both stay zero in memory).
  /// The lookahead every PrefetchReader ran at, after the budget clamp.
  std::size_t prefetch_depth = 0;
  /// PrefetchStats summed over the run's readers.
  dna::PrefetchStats prefetch;

  [[nodiscard]] std::uint64_t total_matches() const noexcept {
    std::uint64_t total = 0;
    for (const PoolReport& pool : pools) total += pool.matches;
    return total;
  }

  /// One human-readable line — matches, bytes, seconds, then one section per
  /// pool (realized vs configured share, wall time), per-pool steal counts,
  /// imbalance — for examples and bench logs.
  [[nodiscard]] std::string to_string() const;
};

class HeterogeneousExecutor {
 public:
  /// Fleet construction: one thread pool per PoolSpec, in order (thread
  /// counts are clamped to at least 1, as ThreadPool does). Pinning is
  /// opt-in per pool: a spec's affinity places that pool's workers at
  /// startup (best-effort, Linux pinning; HostAffinity::kNone and
  /// unsupported platforms leave threads floating), mirroring the paper's
  /// OMP_PROC_BIND / KMP_AFFINITY knobs on the live code path. Throws
  /// std::invalid_argument when `pools` is empty, a share is outside
  /// [0, 100], or a spec sets both affinity kinds. The automaton is copied
  /// into an owned compiled-DFA engine.
  HeterogeneousExecutor(const automata::DenseDfa& dfa, std::vector<PoolSpec> pools);

  /// Engine-generic fleet construction; the engine must outlive the
  /// executor. Engines without a DFA behind them must have a positive
  /// synchronization bound (throws std::invalid_argument otherwise).
  HeterogeneousExecutor(const automata::MatchEngine& engine, std::vector<PoolSpec> pools);

  /// Scans `text` across the whole fleet using the constructed
  /// share_percent of every pool. Match counts are exact across every
  /// segment and chunk boundary (each chunk scan warms up over its lead
  /// bytes, so motifs spanning a cut are counted exactly once).
  [[nodiscard]] ExecutionReport run_fleet(
      std::string_view text,
      parallel::SchedulePolicy schedule = parallel::SchedulePolicy::kStatic);

  /// Same, with per-run shares overriding the constructed ones. `shares`
  /// must have one entry per pool, each in [0, 100], summing to 100. Pools
  /// whose share rounds to zero bytes are skipped entirely under the static
  /// schedule (no scan, no launch — their report fields stay exactly zero).
  [[nodiscard]] ExecutionReport run_fleet(std::string_view text,
                                          const std::vector<double>& shares,
                                          parallel::SchedulePolicy schedule);

  /// Scans a paged (out-of-core) corpus across the whole fleet, streaming
  /// pages through the genome's bounded cache; the shares cut the page range
  /// (cuts land on page seams). Requires an engine with a positive
  /// synchronization bound, a genome halo of at least bound-1 bytes, and a
  /// resident budget covering the fleet's total workers (throws
  /// std::invalid_argument otherwise). Counts are byte-identical to
  /// run_fleet over the same bytes (property-tested).
  [[nodiscard]] ExecutionReport run_fleet_paged(dna::PagedGenome& genome,
                                                const PagedFleetOptions& options = {});

  /// Same, with per-run shares overriding the constructed ones (one entry
  /// per pool, each in [0, 100], summing to 100).
  [[nodiscard]] ExecutionReport run_fleet_paged(dna::PagedGenome& genome,
                                                const std::vector<double>& shares,
                                                const PagedFleetOptions& options = {});

  /// run_fleet that additionally collects every match event into `out`
  /// (global end offsets, ascending — byte-identical to a sequential
  /// scan_collect_naive over the whole text). This is the N-way
  /// position-parity hook the test layer drives.
  [[nodiscard]] ExecutionReport collect_fleet(std::string_view text,
                                              const std::vector<double>& shares,
                                              parallel::SchedulePolicy schedule,
                                              std::vector<automata::Match>& out);

  /// run_fleet_paged that additionally collects every match event into
  /// `out`, exactly as the in-memory collect_fleet does.
  [[nodiscard]] ExecutionReport collect_fleet(dna::PagedGenome& genome,
                                              const std::vector<double>& shares,
                                              const PagedFleetOptions& options,
                                              std::vector<automata::Match>& out);

  [[nodiscard]] std::size_t pool_count() const noexcept { return specs_.size(); }
  [[nodiscard]] const std::vector<PoolSpec>& pools() const noexcept { return specs_; }

  /// Tunes the recovery policy (watchdog deadline, retry budget). Takes
  /// effect on the next run; irrelevant while no fault plan is armed.
  void set_recovery(const RecoveryOptions& options) noexcept { recovery_ = options; }
  [[nodiscard]] const RecoveryOptions& recovery() const noexcept { return recovery_; }

  /// The engine every pool executes.
  [[nodiscard]] const automata::MatchEngine& engine() const noexcept { return *engine_; }

 private:
  void build_fleet(std::vector<PoolSpec> pools);
  [[nodiscard]] std::vector<double> configured_shares() const;
  /// The one run loop behind every public run: scans `text`, or `genome`
  /// page by page when it is non-null (readers at `prefetch_depth`); `out`
  /// non-null collects match events.
  [[nodiscard]] ExecutionReport run_chunks(std::string_view text, dna::PagedGenome* genome,
                                           const std::vector<double>& shares,
                                           parallel::SchedulePolicy schedule,
                                           std::size_t prefetch_depth,
                                           std::vector<automata::Match>* out);

  std::unique_ptr<const automata::MatchEngine> owned_engine_;  // DenseDfa constructor
  const automata::MatchEngine* engine_ = nullptr;
  std::vector<PoolSpec> specs_;
  // ThreadPool is pinned to its address (non-movable), so the fleet owns
  // its pools through pointers.
  std::vector<std::unique_ptr<parallel::ThreadPool>> pools_;
  RecoveryOptions recovery_;
};

}  // namespace hetopt::core
