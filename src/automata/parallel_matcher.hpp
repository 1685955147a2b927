// PaREM-style chunk-parallel matching (Memeti & Pllana, CSE 2014) over any
// automata::MatchEngine. The input is cut into chunks; the difficulty is that
// a chunk's correct entry state depends on all preceding text.
//
// On an engine with a synchronization bound L (the longest motif) the scan
// state at any position is fully determined by the previous L-1 bytes, so
// count_chunk/collect_chunk warm up over the bytes before a chunk and count
// only inside it: the PaREM warm-up protocol. Every chunk is independent, and
// one ticket loop scans them all, counting and collecting, under every
// schedule. Only the ticket order varies: static hands each worker a
// contiguous group of tickets, the demand-driven schedules pull them from a
// ChunkQueue. Interleaving load chains is the kernel's job:
// CompiledDfa::count() splits every long chunk into warmed sub-streams.
//
// An engine with no bound (regex '*'/'+') cannot warm up, so the matcher runs
// speculative waves on its compiled DFA instead, statically. Phase 1 scans
// every chunk from the start state in parallel (a guess) and records exit
// states. Phase 2 propagates true entry states and re-scans mispredicted
// chunks in parallel waves until the propagation settles; motif automata
// synchronize quickly, so the first wave is usually empty. Counting
// interleaves the chunks one worker would scan serially through count_multi.
// The automaton chooses between the two paths; there is no option.
//
// The matcher scans one in-memory text on one pool. Fleet scans — several
// pools, and every paged (out-of-core) scan — run in
// core::HeterogeneousExecutor's chunk-ticket loop instead.
//
// Both paths are byte-identical to a sequential scan (property-tested). A
// matcher reuses per-chunk scratch buffers across runs and must therefore
// not be used from two threads concurrently (distinct matchers sharing a
// pool are fine).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "automata/dense_dfa.hpp"
#include "automata/match_engine.hpp"
#include "automata/scanner.hpp"
#include "parallel/partitioner.hpp"
#include "parallel/schedule.hpp"
#include "parallel/thread_pool.hpp"
#include "util/aligned_buffer.hpp"

namespace hetopt::automata {

struct ParallelScanStats {
  std::uint64_t match_count = 0;
  std::size_t chunks = 0;
  std::size_t rescanned_chunks = 0;  // speculative only (rescans summed over waves)
};

class ParallelMatcher {
 public:
  /// Validates the automaton (throws std::invalid_argument otherwise) and
  /// scans through an owned DenseDfaEngine copy of it. The pool must outlive
  /// the matcher.
  ParallelMatcher(const DenseDfa& dfa, parallel::ThreadPool& pool);

  /// Borrows the engine and pool; both must outlive the matcher. An engine
  /// without a synchronization bound needs a compiled DFA for the
  /// speculative waves (throws std::invalid_argument otherwise).
  ParallelMatcher(const MatchEngine& engine, parallel::ThreadPool& pool);

  ParallelMatcher(const ParallelMatcher&) = delete;
  ParallelMatcher& operator=(const ParallelMatcher&) = delete;

  /// Counts occurrences in `text` using `chunks` parallel chunks, dealt to
  /// the workers by `schedule` (parallel/schedule.hpp; kGuided reads
  /// `chunks` as the tail-granularity hint). An unbounded engine scans
  /// statically whatever the schedule. A single chunk is scanned on the
  /// calling thread unless the pool's workers are pinned.
  [[nodiscard]] ParallelScanStats count(
      std::string_view text, std::size_t chunks,
      parallel::SchedulePolicy schedule = parallel::SchedulePolicy::kStatic) const;

  /// Counts and also collects match events (sorted by end offset).
  [[nodiscard]] ParallelScanStats collect(
      std::string_view text, std::size_t chunks, std::vector<Match>& out,
      parallel::SchedulePolicy schedule = parallel::SchedulePolicy::kStatic) const;

 private:
  struct ChunkResult {
    ScanResult scan;
    std::vector<Match> matches;
  };
  /// One chunk scan: ticket `i`.
  using TicketScan = std::function<void(std::size_t)>;

  [[nodiscard]] ParallelScanStats run(std::string_view text, std::size_t chunks,
                                      parallel::SchedulePolicy schedule,
                                      std::vector<Match>* out) const;
  /// The phase 1/phase 2 waves for engines without a synchronization bound;
  /// returns the rescans summed over waves.
  [[nodiscard]] std::size_t run_speculative(std::string_view text,
                                            const std::vector<parallel::Chunk>& ranges,
                                            bool collect) const;
  /// The ticket loop: runs scan(i) for every ticket i in [0, n).
  /// kStatic hands each worker a contiguous group of tickets, every other
  /// schedule pulls them from a ChunkQueue. A lone ticket runs on the
  /// calling thread unless the workers are pinned: the scan must not escape
  /// the placement measurements price.
  void for_each_ticket(std::size_t n, parallel::SchedulePolicy schedule,
                       const TicketScan& scan) const;
  /// Scans chunk `c` of `text` into scratch slot `i` through the engine,
  /// which reads its warm-up lead out of the text before the chunk.
  void scan_chunk(std::size_t i, const parallel::Chunk& c, std::string_view text,
                  bool collect) const;
  /// Sums the first `n` scratch slots' counts; when `out` is set, also
  /// merges their matches into *out, sorted by end offset.
  std::uint64_t gather(std::size_t n, std::vector<Match>* out) const;

  std::unique_ptr<const MatchEngine> owned_engine_;  // DenseDfa constructor
  const MatchEngine* engine_ = nullptr;
  parallel::ThreadPool& pool_;
  // Per-chunk scratch in cache-line-aligned storage: workers write disjoint
  // slots concurrently, and the 64-byte alignment keeps slot boundaries off
  // shared cache lines. Reused across runs (element capacity kept).
  mutable util::AlignedBuffer<ChunkResult> scratch_;
};

}  // namespace hetopt::automata
