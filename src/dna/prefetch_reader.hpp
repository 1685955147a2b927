// Background page prefetch: the IO half of the IO/compute pipeline.
//
// A PrefetchReader owns one fetch thread that keeps a lookahead ring of up
// to `depth` pinned pages ahead of the consumer's published frontier:
//
//      consumer frontier                    prefetch ring (pinned)
//            v                               v
//   [ done ][ scanning ][ resident, warm ][ loading ahead ... ]
//
// The scan path publishes its frontier (the highest page it has started
// consuming) via publish(); the reader then drops ring pins at or behind
// the frontier — the pages stay resident until LRU-evicted, the ring just
// stops protecting them — and pulls new pages through
// PagedGenome::acquire_prefetch until it is `depth` pages ahead again.
// The reader *chases* the frontier: if the consumers outrun it, it skips
// straight to the published page rather than re-loading the corpus behind
// them (passed pages are evicted or about to be — fetching them doubles IO).
// Backpressure is inherited from the cache: when every slot is pinned the
// acquire blocks, and the reader resumes as pins drop. The ring size must
// leave the consumers room inside the resident budget — the fleet executor
// clamps every reader's depth to its share of resident_pages - workers,
// minus 2 (rings + in-flight loads + the workers' own pins all fit, so
// progress is never deadlocked on the budget).
//
// depth = 0 is the measured baseline: no thread is started, every page is a
// cold consumer load. The io_bound bench's prefetch-depth sweep compares
// cold-stall time across depths against that row.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <thread>

#include "dna/paged_genome.hpp"
#include "util/annotations.hpp"
#include "util/sync.hpp"

namespace hetopt::dna {

struct PrefetchStats {
  std::uint64_t pages_prefetched = 0;
  /// Times the fetch loop went to sleep because the ring was full (it was
  /// `depth` pages ahead) — the reader outrunning the consumers.
  std::uint64_t ring_full_waits = 0;
};

class PrefetchReader {
 public:
  /// Prefetches pages of [first_page, last_page) in ascending order, up to
  /// `depth` pages ahead of the published frontier. depth 0 starts no
  /// thread; any depth self-clamps to resident_pages - 1 so the ring alone
  /// can never pin the whole budget (the fleet executor clamps tighter,
  /// leaving room for every worker). The genome must outlive the reader.
  PrefetchReader(PagedGenome& genome, std::size_t first_page, std::size_t last_page,
                 std::size_t depth);
  ~PrefetchReader() { stop(); }

  PrefetchReader(const PrefetchReader&) = delete;
  PrefetchReader& operator=(const PrefetchReader&) = delete;

  /// Tells the reader the consumer has started page `page`: the frontier is
  /// monotonic (lower publications are no-ops), ring pins at or behind it
  /// are dropped, and fetching extends to frontier + depth. Thread-safe.
  void publish(std::size_t page);

  /// Stops the fetch thread and drops every ring pin (idempotent; also run
  /// by the destructor). Joins even while the fetch thread is blocked
  /// behind cache backpressure: the acquire carries a cancel flag and
  /// stop() wakes the cache's waiters.
  void stop();

  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  [[nodiscard]] PrefetchStats stats() const;

 private:
  void fetch_loop();

  PagedGenome& genome_;
  std::size_t first_page_;
  std::size_t last_page_;
  std::size_t depth_;

  mutable util::Mutex mutex_;
  util::CondVar cv_;  // signaled on publish() and stop()
  std::size_t frontier_ HETOPT_GUARDED_BY(mutex_);
  bool stopping_ HETOPT_GUARDED_BY(mutex_) = false;
  PrefetchStats stats_ HETOPT_GUARDED_BY(mutex_);
  /// Mirrors stopping_ for the cache's cooperative-cancellation check (the
  /// blocked acquire must not take this reader's mutex).
  std::atomic<bool> cancel_{false};

  std::thread thread_;  // started last, joined by stop()
};

}  // namespace hetopt::dna
