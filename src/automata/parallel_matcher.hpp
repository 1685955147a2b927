// PaREM-style chunk-parallel matching (Memeti & Pllana, CSE 2014) over any
// automata::MatchEngine. The input is cut into chunks; the difficulty is that
// a chunk's correct entry state depends on all preceding text.
//
// On an engine with a synchronization bound L (the longest motif) the scan
// state at any position is fully determined by the previous L-1 bytes, so
// count_chunk/collect_chunk warm up over the bytes before a chunk and count
// only inside it: the PaREM warm-up protocol. Every chunk is independent, and
// one ticket loop scans them all — in memory and paged (paged_scan.cpp),
// counting and collecting, under every schedule. Only the ticket order
// varies: static hands each worker a contiguous group of tickets, the
// demand-driven schedules pull them from a ChunkQueue. Interleaving load
// chains is the kernel's job: CompiledDfa::count() splits every long chunk
// into warmed sub-streams.
//
// An engine with no bound (regex '*'/'+') cannot warm up, so the matcher runs
// speculative waves on its compiled DFA instead, statically and in memory
// only. Phase 1 scans every chunk from the start state in parallel (a guess)
// and records exit states. Phase 2 propagates true entry states and re-scans
// mispredicted chunks in parallel waves until the propagation settles; motif
// automata synchronize quickly, so the first wave is usually empty. Counting
// interleaves the chunks one worker would scan serially through count_multi.
// The automaton chooses between the two paths; there is no option.
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
#include "dna/paged_genome.hpp"
#include "dna/prefetch_reader.hpp"
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

/// Options for the paged (out-of-core) scan path. Chunks are cut *within*
/// pages (no chunk ever spans a page seam; the stored halo carries the
/// warm-up context across seams instead), so every schedule's results stay
/// byte-identical to an in-memory scan of the same bytes.
struct PagedScanOptions {
  /// kStatic pre-assigns contiguous chunk groups per worker (each worker
  /// streams its own page range); the demand-driven schedules pull chunk
  /// tickets in ascending page order — the shape the prefetch ring is built
  /// for, and the recommended paged default. kAdaptive degenerates to
  /// kDynamic here, as in the in-memory matcher.
  parallel::SchedulePolicy schedule = parallel::SchedulePolicy::kDynamic;
  /// Chunks each page's payload is cut into; 0 = one per pool worker.
  std::size_t chunks_per_page = 0;
  /// Lookahead pages for the background PrefetchReader; clamped so the ring,
  /// one in-flight load, and every worker's pin fit the resident budget
  /// together (progress is never deadlocked on backpressure). 0 = no
  /// prefetch thread — every page is a cold consumer load (the baseline the
  /// io_bound bench's depth sweep compares against).
  std::size_t prefetch_depth = 2;
  /// Page range [first_page, last_page) to scan; last clamps to page_count.
  std::size_t first_page = 0;
  std::size_t last_page = static_cast<std::size_t>(-1);
  /// Resident-budget share this run may pin at once; 0 = the genome's whole
  /// budget. The heterogeneous executor divides the budget across its
  /// concurrently running pools through this knob.
  std::size_t pin_budget = 0;
};

struct PagedScanStats {
  std::uint64_t match_count = 0;
  std::size_t chunks = 0;
  std::size_t pages = 0;
  std::size_t bytes = 0;            // payload bytes scanned
  double seconds = 0.0;             // wall time of the paged run
  std::size_t prefetch_depth = 0;   // effective depth after budget clamping
  /// Genome-wide cache-stat delta over the run window (equals this run's
  /// activity when it is the only scanner of the genome).
  dna::CacheStats cache;
  dna::PrefetchStats prefetch;

  /// Fraction of page-load time hidden from the consumers: 1 minus the
  /// demand loads' stall time over all load time, clamped to [0, 1] (1 when
  /// nothing was loaded). Waiter stalls are left out, so N workers blocked
  /// on one load do not count it N times. The io_bound bench's overlap
  /// metric.
  [[nodiscard]] double overlap_efficiency() const noexcept {
    if (cache.load_seconds <= 0.0) return 1.0;
    const double ratio = cache.cold_stall_seconds / cache.load_seconds;
    return ratio >= 1.0 ? 0.0 : 1.0 - ratio;
  }
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

  /// Counts occurrences across a paged corpus, streaming pages through the
  /// genome's bounded cache (pool workers block only on genuinely-cold
  /// pages; a PrefetchReader loads ahead of the scan frontier when
  /// prefetch_depth > 0). Byte-identical to count() over the same bytes.
  /// Requires an automaton with a positive synchronization bound, a genome
  /// halo of at least bound-1 bytes, and a resident budget that covers the
  /// pool's workers (throws std::invalid_argument otherwise).
  [[nodiscard]] PagedScanStats count_paged(dna::PagedGenome& genome,
                                           const PagedScanOptions& options = {}) const;

  /// Same, collecting every match event (global end offsets, sorted
  /// ascending — byte-identical to collect() over the same bytes).
  [[nodiscard]] PagedScanStats collect_paged(dna::PagedGenome& genome,
                                             std::vector<Match>& out,
                                             const PagedScanOptions& options = {}) const;

 private:
  struct ChunkResult {
    ScanResult scan;
    std::vector<Match> matches;
  };
  /// One chunk scan: ticket `i` plus the page the worker holds pinned across
  /// its tickets (in-memory scans never pin).
  using TicketScan = std::function<void(std::size_t, dna::PagedGenome::PageRef&)>;

  [[nodiscard]] ParallelScanStats run(std::string_view text, std::size_t chunks,
                                      parallel::SchedulePolicy schedule,
                                      std::vector<Match>* out) const;
  /// The phase 1/phase 2 waves for engines without a synchronization bound;
  /// returns the rescans summed over waves.
  [[nodiscard]] std::size_t run_speculative(std::string_view text,
                                            const std::vector<parallel::Chunk>& ranges,
                                            bool collect) const;
  /// The paged-input mode (automata/paged_scan.cpp): pages pinned on
  /// demand, chunk tickets in page order, per-chunk warm-up out of the halo.
  [[nodiscard]] PagedScanStats run_paged(dna::PagedGenome& genome,
                                         const PagedScanOptions& options,
                                         std::vector<Match>* out) const;
  /// The ticket loop: runs scan(i, pin) for every ticket i in [0, n).
  /// kStatic hands each worker a contiguous group of tickets, every other
  /// schedule pulls them from a ChunkQueue. A lone ticket runs on the
  /// calling thread unless the workers are pinned: the scan must not escape
  /// the placement measurements price.
  void for_each_ticket(std::size_t n, parallel::SchedulePolicy schedule,
                       const TicketScan& scan) const;
  /// Scans chunk `c` (global offsets) into scratch slot `i` through the
  /// engine, on `view`, whose byte 0 is global offset `base`; the engine
  /// reads its warm-up lead out of the view.
  void scan_chunk(std::size_t i, const parallel::Chunk& c, std::string_view view,
                  std::size_t base, bool collect) const;
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
