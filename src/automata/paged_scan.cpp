// The IO/compute-pipelined scan path: ParallelMatcher's paged-input mode.
//
// The in-memory matcher (parallel_matcher.cpp) assumes the whole text is
// addressable; here the corpus lives behind dna::PagedGenome's bounded page
// cache. The pipeline:
//
//   - chunks are cut *within* pages, so a worker scanning chunk i touches
//     exactly one resident page — the stored halo in front of each payload
//     carries the PaREM warm-up context across page seams, which keeps every
//     schedule's counts and collected positions byte-identical to an
//     in-memory scan of the same bytes (property-tested);
//   - chunk tickets are dispensed in ascending page order through the PR-5
//     ChunkQueue; a worker claiming a chunk on a new page publishes the scan
//     frontier, which tells the background PrefetchReader to load further
//     ahead and lets it drop ring pins the scan has passed;
//   - workers block only on genuinely-cold pages (PagedGenome::acquire);
//     everything already resident — prefetched or still warm from another
//     worker — is pinned without waiting.
//
// Scan semantics per chunk match the in-memory paths exactly: the kernel
// path warms up over the lead bytes and scans the body on the compiled DFA;
// the engine path drives MatchEngine::count_chunk/collect_chunk on the
// page-local view (the engine reads its own warm-up lead out of the halo).
#include <algorithm>
#include <optional>
#include <stdexcept>

#include "automata/parallel_matcher.hpp"
#include "parallel/chunk_queue.hpp"
#include "util/timer.hpp"

namespace hetopt::automata {

namespace {

[[nodiscard]] dna::CacheStats cache_delta(const dna::CacheStats& before,
                                          const dna::CacheStats& after) {
  dna::CacheStats d;
  d.hits = after.hits - before.hits;
  d.loads = after.loads - before.loads;
  d.evictions = after.evictions - before.evictions;
  d.cold_stalls = after.cold_stalls - before.cold_stalls;
  d.waiter_stalls = after.waiter_stalls - before.waiter_stalls;
  d.backpressure_waits = after.backpressure_waits - before.backpressure_waits;
  d.bytes_read = after.bytes_read - before.bytes_read;
  d.load_seconds = after.load_seconds - before.load_seconds;
  d.cold_stall_seconds = after.cold_stall_seconds - before.cold_stall_seconds;
  d.waiter_stall_seconds = after.waiter_stall_seconds - before.waiter_stall_seconds;
  return d;
}

}  // namespace

PagedScanStats ParallelMatcher::count_paged(dna::PagedGenome& genome,
                                            const PagedScanOptions& options) const {
  return run_paged(genome, options, /*want_matches=*/false, nullptr);
}

PagedScanStats ParallelMatcher::collect_paged(dna::PagedGenome& genome,
                                              std::vector<Match>& out,
                                              const PagedScanOptions& options) const {
  return run_paged(genome, options, /*want_matches=*/true, &out);
}

PagedScanStats ParallelMatcher::run_paged(dna::PagedGenome& genome,
                                          const PagedScanOptions& options,
                                          bool want_matches, std::vector<Match>* out) const {
  const std::size_t bound =
      engine_ != nullptr ? engine_->synchronization_bound() : dfa_->synchronization_bound();
  if (bound == 0) {
    throw std::invalid_argument(
        "ParallelMatcher: paged scanning needs a synchronization bound "
        "(per-chunk warm-up out of the page halo); unbounded automata cannot "
        "stream");
  }
  if (want_matches && engine_ != nullptr && !engine_->supports_collect()) {
    throw std::logic_error("ParallelMatcher: engine '" + std::string(engine_->name()) +
                           "' does not support match collection");
  }
  const dna::PagedGenomeOptions& gopts = genome.options();
  if (gopts.halo_bytes < bound - 1) {
    throw std::invalid_argument(
        "ParallelMatcher: page halo (" + std::to_string(gopts.halo_bytes) +
        "B) is smaller than the warm-up lead (" + std::to_string(bound - 1) +
        "B); configure PagedGenomeOptions::halo_bytes >= synchronization_bound - 1");
  }
  const std::size_t workers = pool_.thread_count();
  const std::size_t budget = options.pin_budget == 0
                                 ? gopts.resident_pages
                                 : std::min(options.pin_budget, gopts.resident_pages);
  if (budget < workers) {
    throw std::invalid_argument(
        "ParallelMatcher: resident budget (" + std::to_string(budget) +
        " pages) must cover the pool's " + std::to_string(workers) +
        " workers or the paged scan can deadlock on backpressure");
  }

  PagedScanStats stats;
  const std::size_t first = std::min(options.first_page, genome.page_count());
  const std::size_t last = std::min(options.last_page, genome.page_count());
  if (first >= last) return stats;

  // The ring, one in-flight prefetch load, and every worker's pin must fit
  // the budget together or backpressure could deadlock: clamp the depth.
  const std::size_t depth =
      std::min(options.prefetch_depth, budget > workers + 2 ? budget - workers - 2 : 0);

  // Chunk layout: every page's payload cut independently, pages ascending.
  const std::size_t per_page =
      std::max<std::size_t>(1, options.chunks_per_page == 0 ? workers
                                                            : options.chunks_per_page);
  std::vector<parallel::Chunk> ranges;
  std::vector<std::uint32_t> page_of;
  ranges.reserve((last - first) * per_page);
  page_of.reserve((last - first) * per_page);
  for (std::size_t p = first; p < last; ++p) {
    const std::size_t base = genome.page_begin(p);
    const std::size_t len = genome.page_payload_bytes(p);
    if (len == 0) continue;
    const auto cut =
        options.schedule == parallel::SchedulePolicy::kGuided
            ? parallel::make_chunks_guided(len, workers,
                                           parallel::guided_min_chunk(len, per_page))
            : parallel::make_chunks(len, std::min(per_page, len), /*halo=*/0);
    for (const parallel::Chunk& c : cut) {
      ranges.push_back(parallel::Chunk{c.begin + base, c.end + base, c.scan_end + base});
      page_of.push_back(static_cast<std::uint32_t>(p));
      stats.bytes += c.end - c.begin;
    }
  }
  stats.chunks = ranges.size();
  stats.pages = last - first;
  stats.prefetch_depth = depth;
  if (ranges.empty()) return stats;
  if (scratch_.size() < ranges.size()) scratch_.resize(ranges.size());

  const dna::CacheStats before = genome.stats();
  const util::Timer run_timer;
  std::optional<dna::PrefetchReader> prefetch;
  if (depth > 0) prefetch.emplace(genome, first, last, depth);
  dna::PrefetchReader* reader = prefetch.has_value() ? &*prefetch : nullptr;

  const std::size_t warmup = bound - 1;
  const auto scan_chunk = [&](std::size_t i, dna::PagedGenome::PageRef& ref) {
    const std::size_t p = page_of[i];
    if (!ref.valid() || ref.page() != p) {
      ref.release();  // at most one pin per worker: the progress guarantee
      if (reader != nullptr) reader->publish(p);
      ref = genome.acquire(p);
    }
    const std::string_view local = ref.view();
    const std::size_t base = ref.begin() - ref.halo();  // global offset of local[0]
    const parallel::Chunk& c = ranges[i];
    ChunkResult& cr = scratch_[i];
    cr.matches.clear();  // clear() keeps capacity — reused across runs
    cr.scan = ScanResult{};
    if (engine_ != nullptr) {
      // The engine reads its own warm-up lead before the chunk; the halo in
      // front of the payload provides it for chunks at a page seam.
      if (want_matches) {
        cr.scan.match_count =
            engine_->collect_chunk(local, c.begin - base, c.end - base, cr.matches);
        // collect_chunk reports offsets within `local`; lift them to global.
        for (Match& m : cr.matches) m.end += base;
      } else {
        cr.scan.match_count = engine_->count_chunk(local, c.begin - base, c.end - base);
      }
    } else {
      const std::size_t lead = std::min(warmup, c.begin);
      StateId entry = dfa_->start();
      if (lead > 0) {
        entry = kernel_->count(local.substr(c.begin - lead - base, lead), entry)
                    .final_state;
      }
      const std::string_view body = local.substr(c.begin - base, c.end - c.begin);
      if (want_matches) {
        cr.scan = kernel_->collect(body, entry, c.begin, cr.matches);
      } else {
        cr.scan = kernel_->count(body, entry);
      }
    }
  };

  if (options.schedule == parallel::SchedulePolicy::kStatic) {
    // Pre-assigned contiguous chunk groups: every worker streams its own
    // page sub-range (its own frontier; the single shared ring serves the
    // lowest pages first).
    pool_.parallel_chunks(ranges.size(), workers,
                          [&](std::size_t, std::size_t lo, std::size_t hi) {
                            dna::PagedGenome::PageRef ref;
                            for (std::size_t i = lo; i < hi; ++i) scan_chunk(i, ref);
                          });
  } else {
    // Demand-driven: tickets ascend through the pages, so the claim order
    // IS the scan frontier the prefetcher runs ahead of.
    parallel::ChunkQueue queue(ranges.size());
    pool_.parallel_pull([&](std::size_t) {
      dna::PagedGenome::PageRef ref;
      while (const auto t = queue.take_front()) scan_chunk(*t, ref);
    });
  }
  if (reader != nullptr) {
    stats.prefetch = reader->stats();
    reader->stop();
  }
  stats.seconds = run_timer.seconds();
  stats.cache = cache_delta(before, genome.stats());

  for (std::size_t i = 0; i < ranges.size(); ++i) {
    stats.match_count += scratch_[i].scan.match_count;
  }
  if (want_matches && out != nullptr) {
    collect_sorted(ranges.size(), out);
  }
  return stats;
}

}  // namespace hetopt::automata
