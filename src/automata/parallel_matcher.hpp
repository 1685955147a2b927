// PaREM-style chunk-parallel finite-automaton matching (Memeti & Pllana,
// CSE 2014). The input is cut into contiguous chunks, one per worker; the
// difficulty is that a chunk's correct entry state depends on all preceding
// text. Two resolution strategies are provided:
//
//  kWarmup      Exact, one pass. Usable when the automaton has a finite
//               synchronization bound L (= longest motif): the scan state at
//               any position is fully determined by the previous L-1 bytes,
//               so each worker "warms up" from the start state over the L-1
//               bytes before its chunk and then counts only inside the chunk.
//
//  kSpeculative Exact, two phases. Phase 1 scans every chunk from the start
//               state in parallel (a guess) and records exit states. Phase 2
//               propagates true entry states and re-scans mispredicted chunks
//               in parallel waves until the propagation settles; because
//               motif automata synchronize quickly, almost no chunk needs a
//               second scan and the first wave is usually empty. Works for
//               unbounded patterns ('*'/'+') where no warm-up bound exists.
//
// The matcher is engine-generic: construct it from any automata::MatchEngine.
// DFA-backed engines (compiled-dfa, aho-corasick) run on the compiled kernels
// (automata/compiled_dfa.hpp) with both strategies available; counting
// interleaves scan chains to hide the per-byte load latency a single chain
// serializes on, at two levels: the matcher groups several chunks per worker
// task (streams_per_worker, by default the chunk/worker ratio), and the
// kernel's count() splits every long chunk on a bounded automaton into up to
// CompiledDfa::kMaxStreams warmed sub-streams. So the stream width a worker
// runs at is not only the chunk/worker ratio: one chunk per worker still
// scans interleaved. Engines without a DFA behind them (bitap) are driven
// through the chunk-aware MatchEngine interface with the warm-up strategy
// (they must declare a positive synchronization bound). The legacy DenseDfa
// constructor lowers the automaton itself and behaves exactly as before.
//
// Both strategies return byte-identical results to a sequential scan (this is
// property-tested). A matcher instance reuses per-chunk scratch buffers
// across runs and must therefore not be used from two threads concurrently
// (distinct matchers sharing a pool are fine).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "automata/compiled_dfa.hpp"
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

enum class ParallelStrategy { kWarmup, kSpeculative };

struct MatcherOptions {
  ParallelStrategy strategy = ParallelStrategy::kWarmup;
  /// Independent chunk scans interleaved per worker task when counting.
  /// 0 = auto (chunks / pool workers, capped at CompiledDfa::kMaxStreams);
  /// 1 = one chunk per task (the seed behavior). Match collection always
  /// scans one chunk per task (events need per-chunk append order). A chunk
  /// scanned on its own is still split inside CompiledDfa::count() when long.
  std::size_t streams_per_worker = 0;
  /// How chunks reach the workers (parallel/schedule.hpp): kStatic
  /// pre-assigns contiguous chunk groups (the seed behavior); kDynamic and
  /// kAdaptive pull chunk indices from an atomic ticket queue (a single pool
  /// has no one to steal from, so adaptive degenerates to dynamic here);
  /// kGuided pulls decreasing chunk sizes, reinterpreting `chunks` as the
  /// tail-granularity hint. Demand-driven schedules need per-chunk warm-up,
  /// so they force the kWarmup strategy; automata without a synchronization
  /// bound fall back to the static speculative path. Results are
  /// byte-identical across every policy (property-tested).
  parallel::SchedulePolicy schedule = parallel::SchedulePolicy::kStatic;
};

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
  /// The matcher borrows the automaton and pool; both must outlive it.
  /// Validates the automaton once and lowers it into the compiled kernels.
  ParallelMatcher(const DenseDfa& dfa, parallel::ThreadPool& pool);

  /// Engine-generic construction; the engine and pool must outlive the
  /// matcher. DFA-backed engines run on their already-lowered kernel (no
  /// re-lowering); other engines use the chunk-aware warm-up path and must
  /// have a positive synchronization bound (throws std::invalid_argument
  /// otherwise).
  ParallelMatcher(const MatchEngine& engine, parallel::ThreadPool& pool);

  // Not copyable/movable: kernel_ may point into owned_kernel_, so a copy
  // would scan through the source's (possibly destroyed) tables.
  ParallelMatcher(const ParallelMatcher&) = delete;
  ParallelMatcher& operator=(const ParallelMatcher&) = delete;

  /// Counts occurrences in `text` using `chunks` parallel chunks.
  /// Falls back to kSpeculative when kWarmup is requested but the automaton
  /// has no synchronization bound. A single chunk is scanned directly on the
  /// calling thread (no pool round-trip).
  [[nodiscard]] ParallelScanStats count(std::string_view text, std::size_t chunks,
                                        ParallelStrategy strategy =
                                            ParallelStrategy::kWarmup) const;
  [[nodiscard]] ParallelScanStats count(std::string_view text, std::size_t chunks,
                                        const MatcherOptions& options) const;

  /// Counts and also collects match events (sorted by end offset).
  [[nodiscard]] ParallelScanStats collect(std::string_view text, std::size_t chunks,
                                          std::vector<Match>& out,
                                          ParallelStrategy strategy =
                                              ParallelStrategy::kWarmup) const;
  [[nodiscard]] ParallelScanStats collect(std::string_view text, std::size_t chunks,
                                          std::vector<Match>& out,
                                          const MatcherOptions& options) const;

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

  /// The lowered automaton (shared with callers that scan outside the
  /// chunked path). Only valid for DFA-backed matchers — see dfa_backed().
  [[nodiscard]] const CompiledDfa& compiled() const noexcept { return *kernel_; }

  /// True when the matcher runs on the compiled DFA kernels (the DenseDfa
  /// constructor or an engine with a dfa() behind it); false for generic
  /// engines such as bitap, where compiled() must not be called.
  [[nodiscard]] bool dfa_backed() const noexcept { return kernel_ != nullptr; }

 private:
  struct ChunkResult {
    ScanResult scan;
    std::vector<Match> matches;
  };

  [[nodiscard]] ParallelScanStats run(std::string_view text, std::size_t chunks,
                                      MatcherOptions options, bool want_matches,
                                      std::vector<Match>* out) const;
  [[nodiscard]] ParallelScanStats run_engine(std::string_view text, std::size_t chunks,
                                             parallel::SchedulePolicy schedule,
                                             bool want_matches,
                                             std::vector<Match>* out) const;
  /// The paged-input mode (automata/paged_scan.cpp): pages pinned on
  /// demand, chunk tickets in page order, per-chunk warm-up out of the halo.
  [[nodiscard]] PagedScanStats run_paged(dna::PagedGenome& genome,
                                         const PagedScanOptions& options,
                                         bool want_matches,
                                         std::vector<Match>* out) const;
  /// Merges the first `range_count` scratch slots' matches into *out, sorted
  /// by end offset.
  void collect_sorted(std::size_t range_count, std::vector<Match>* out) const;

  const DenseDfa* dfa_ = nullptr;            // non-null when DFA-backed
  const MatchEngine* engine_ = nullptr;      // non-null on the generic engine path
  parallel::ThreadPool& pool_;
  CompiledDfa owned_kernel_;                 // lowered here on the DenseDfa path
  const CompiledDfa* kernel_ = nullptr;      // owned_kernel_ or the engine's kernel
  // Per-chunk scratch in cache-line-aligned storage: workers write disjoint
  // slots concurrently, and the 64-byte alignment keeps slot boundaries off
  // shared cache lines. Reused across runs (element capacity kept).
  mutable util::AlignedBuffer<ChunkResult> scratch_;
};

}  // namespace hetopt::automata
