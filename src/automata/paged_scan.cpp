// ParallelMatcher's paged-input mode: the in-memory ticket loop
// (parallel_matcher.cpp) over a corpus that lives behind dna::PagedGenome's
// bounded page cache.
//
//   - chunks are cut *within* pages, so a worker scanning chunk i touches
//     exactly one resident page — the stored halo in front of each payload
//     carries the PaREM warm-up context across page seams, which keeps every
//     schedule's counts and collected positions byte-identical to an
//     in-memory scan of the same bytes (property-tested);
//   - tickets ascend through the pages. A worker claiming a chunk on a new
//     page releases its old pin (at most one pin per worker), publishes the
//     scan frontier — which tells the background PrefetchReader to load
//     further ahead and drop ring pins the scan has passed — and pins the
//     page; it blocks only on a genuinely-cold page (PagedGenome::acquire);
//   - each chunk is scanned by the same count_chunk/collect_chunk call as in
//     memory, on the pinned page's view: the engine reads its own warm-up
//     lead out of the halo.
#include <algorithm>
#include <optional>
#include <stdexcept>

#include "automata/parallel_matcher.hpp"
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
  return run_paged(genome, options, nullptr);
}

PagedScanStats ParallelMatcher::collect_paged(dna::PagedGenome& genome,
                                              std::vector<Match>& out,
                                              const PagedScanOptions& options) const {
  return run_paged(genome, options, &out);
}

PagedScanStats ParallelMatcher::run_paged(dna::PagedGenome& genome,
                                          const PagedScanOptions& options,
                                          std::vector<Match>* out) const {
  const std::size_t bound = engine_->synchronization_bound();
  if (bound == 0) {
    throw std::invalid_argument(
        "ParallelMatcher: paged scanning needs a synchronization bound "
        "(per-chunk warm-up out of the page halo); unbounded automata cannot "
        "stream");
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
            : parallel::make_chunks(len, std::min(per_page, len));
    for (const parallel::Chunk& c : cut) {
      ranges.push_back(parallel::Chunk{c.begin + base, c.end + base});
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

  for_each_ticket(ranges.size(), options.schedule,
                  [&](std::size_t i, dna::PagedGenome::PageRef& pin) {
                    const std::size_t p = page_of[i];
                    if (!pin.valid() || pin.page() != p) {
                      pin.release();  // at most one pin per worker: the progress guarantee
                      if (reader != nullptr) reader->publish(p);
                      pin = genome.acquire(p);
                    }
                    scan_chunk(i, ranges[i], pin.view(), pin.begin() - pin.halo(),
                               out != nullptr);
                  });
  if (reader != nullptr) {
    stats.prefetch = reader->stats();
    reader->stop();
  }
  stats.seconds = run_timer.seconds();
  stats.cache = cache_delta(before, genome.stats());

  stats.match_count = gather(ranges.size(), out);
  return stats;
}

}  // namespace hetopt::automata
