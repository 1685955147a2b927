#include "core/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <stdexcept>
#include <stop_token>
#include <thread>
#include <utility>

#include "automata/scanner.hpp"
#include "parallel/chunk_queue.hpp"
#include "parallel/partitioner.hpp"
#include "util/fault.hpp"
#include "util/strings.hpp"
#include "util/sync.hpp"
#include "util/timer.hpp"

namespace hetopt::core {

namespace {

/// Scan attempts per chunk under the recovery policy before the chunk
/// degrades to the naive scanner.
constexpr std::size_t kMaxChunkAttempts = 3;

/// Smallest ticket a paged run cuts a page into. Paging multiplies the
/// ticket count by the page count, and every ticket pays a claim, a pin and
/// an engine call on top of its scan: ≈1 µs with four workers on a 4-vCPU
/// AVX2 Xeon, where the compiled kernel scans 16 KiB in 3-4 µs.
constexpr std::size_t kMinPagedTicketBytes = std::size_t{16} << 10;

[[nodiscard]] parallel::ThreadPool::WorkerInit pool_init(const PoolSpec& spec) {
  if (spec.host_affinity) {
    return [a = *spec.host_affinity, threads = spec.threads](std::size_t worker) {
      parallel::pin_current_thread(a, worker, threads);
    };
  }
  if (spec.device_affinity) {
    return [a = *spec.device_affinity, threads = spec.threads](std::size_t worker) {
      parallel::pin_current_thread(a, worker, threads);
    };
  }
  return nullptr;
}

/// Segment bounds of a run: one share per pool (the arity is the executor's
/// rule; parallel::share_bounds checks the range and the sum).
[[nodiscard]] std::vector<std::size_t> fleet_bounds(std::size_t total,
                                                    const std::vector<double>& shares,
                                                    std::size_t pool_count) {
  if (shares.size() != pool_count) {
    throw std::invalid_argument("HeterogeneousExecutor: one share per pool required");
  }
  return parallel::share_bounds(total, shares);
}

/// Rejects a paged run the loop cannot scan exactly, or could deadlock on:
/// every chunk warms up out of its page's halo, and every fleet worker may
/// hold a pin at once.
void check_paged(const dna::PagedGenome& genome, std::size_t sync_bound,
                 std::size_t workers) {
  const std::size_t halo = genome.options().halo_bytes;
  if (halo < sync_bound - 1) {
    throw std::invalid_argument(
        "HeterogeneousExecutor: page halo (" + std::to_string(halo) +
        "B) is smaller than the warm-up lead (" + std::to_string(sync_bound - 1) +
        "B); configure PagedGenomeOptions::halo_bytes >= synchronization_bound - 1");
  }
  const std::size_t resident = genome.options().resident_pages;
  if (resident < workers) {
    throw std::invalid_argument("HeterogeneousExecutor: resident budget (" +
                                std::to_string(resident) + " pages) must cover the fleet's " +
                                std::to_string(workers) + " workers for a paged run");
  }
}

/// Derives realized shares, the imbalance metric, and the overlapped wall
/// time from the filled per-pool bytes/seconds fields.
void finalize_fleet(ExecutionReport& report) {
  std::size_t total = 0;
  for (const PoolReport& p : report.pools) total += p.bytes;
  double slow = 0.0;
  double fast = std::numeric_limits<double>::infinity();
  std::size_t active = 0;
  for (PoolReport& p : report.pools) {
    p.realized_percent =
        total > 0 ? 100.0 * static_cast<double>(p.bytes) / static_cast<double>(total) : 0.0;
    report.total_seconds = std::max(report.total_seconds, p.seconds);
    if (p.bytes == 0) continue;
    ++active;
    slow = std::max(slow, p.seconds);
    fast = std::min(fast, p.seconds);
  }
  report.imbalance = active >= 2 && slow > 0.0 ? (slow - fast) / slow : 0.0;
}

/// Runs task(i) for every pool i with active(i): pools 1..N-1 each on an
/// async launch thread (the "offload"), pool 0 on the calling thread, then
/// joins them all, so the pools overlap. An exception from any task reaches
/// the caller only after every launched task has joined (a std::async
/// future blocks in its destructor).
template <typename Active, typename Task>
void for_each_pool(std::size_t n, const Active& active, const Task& task) {
  std::vector<std::future<void>> futures(n);
  for (std::size_t i = 1; i < n; ++i) {
    if (active(i)) futures[i] = std::async(std::launch::async, [&task, i] { task(i); });
  }
  if (active(0)) task(0);
  for (std::future<void>& f : futures) {
    if (f.valid()) f.get();
  }
}

/// The chunk layout of a run plus who owns each chunk. The input is a list
/// of ascending, contiguous spans (the whole text in memory, one span per
/// page when paged); no chunk crosses a span. kStatic/kAdaptive cut every
/// configured segment's part of each span with the segment's own
/// granularity (per-segment queues); kDynamic/kGuided cut every span with
/// the fleet's total granularity (one shared queue). A nonzero `min_ticket`
/// coarsens the cuts: even cuts make no chunk shorter (a shorter span stays
/// whole), and guided cuts take it as their tail granularity.
struct FleetLayout {
  std::vector<parallel::Chunk> chunks;
  /// The pool whose configured segment contains chunks[t].begin — a claim by
  /// any other pool is a steal.
  std::vector<std::uint32_t> owners;
  /// The span chunks[t] lies in.
  std::vector<std::uint32_t> span_of;
  /// chunks[seg_offset[i] .. seg_offset[i+1]) is segment i (per-segment
  /// layouts only).
  std::vector<std::size_t> seg_offset;
  bool per_segment = false;
};

[[nodiscard]] FleetLayout build_layout(const std::vector<parallel::Chunk>& spans,
                                       const std::vector<std::size_t>& bounds,
                                       const std::vector<std::size_t>& chunk_counts,
                                       std::size_t total_workers,
                                       parallel::SchedulePolicy schedule,
                                       std::size_t min_ticket) {
  const auto capped = [min_ticket](std::size_t len, std::size_t count) {
    return min_ticket == 0 ? count : std::min(count, std::max<std::size_t>(1, len / min_ticket));
  };
  const std::size_t n = bounds.size() - 1;
  FleetLayout layout;
  layout.per_segment = schedule == parallel::SchedulePolicy::kStatic ||
                       schedule == parallel::SchedulePolicy::kAdaptive;
  layout.seg_offset.assign(n + 1, 0);
  // Cuts [lo, hi) of span s into chunks with `cut` and appends them.
  const auto append = [&](std::size_t s, std::size_t lo, std::size_t hi, const auto& cut) {
    for (const parallel::Chunk& c : cut(hi - lo)) {
      layout.chunks.push_back({c.begin + lo, c.end + lo});
      layout.span_of.push_back(static_cast<std::uint32_t>(s));
    }
  };
  if (layout.per_segment) {
    std::size_t s = 0;
    for (std::size_t i = 0; i < n; ++i) {
      layout.seg_offset[i] = layout.chunks.size();
      for (; s < spans.size() && spans[s].begin < bounds[i + 1]; ++s) {
        const std::size_t lo = std::max(spans[s].begin, bounds[i]);
        const std::size_t hi = std::min(spans[s].end, bounds[i + 1]);
        append(s, lo, hi, [&](std::size_t len) {
          return parallel::make_chunks(len, capped(len, chunk_counts[i]));
        });
        if (spans[s].end > bounds[i + 1]) break;  // the next segment continues this span
      }
    }
    layout.seg_offset[n] = layout.chunks.size();
  } else {
    std::size_t total_chunks = 0;
    for (const std::size_t c : chunk_counts) total_chunks += c;
    total_chunks = std::max<std::size_t>(1, total_chunks);
    for (std::size_t s = 0; s < spans.size(); ++s) {
      append(s, spans[s].begin, spans[s].end, [&](std::size_t len) {
        return schedule == parallel::SchedulePolicy::kGuided
                   ? parallel::make_chunks_guided(
                         len, total_workers,
                         std::max(parallel::guided_min_chunk(len, total_chunks), min_ticket))
                   : parallel::make_chunks(len, capped(len, total_chunks));
      });
    }
  }
  layout.owners.resize(layout.chunks.size());
  std::size_t seg = 0;
  for (std::size_t t = 0; t < layout.chunks.size(); ++t) {
    while (seg + 1 < n && layout.chunks[t].begin >= bounds[seg + 1]) ++seg;
    layout.owners[t] = static_cast<std::uint32_t>(seg);
  }
  return layout;
}

/// Per-pool accumulators, fetch_add'ed by that pool's pull-loop workers.
/// All operations are relaxed: the totals carry no payload another thread
/// reads mid-run, and the pool join (parallel_pull's future.get plus the
/// per-pool future.get) is the synchronization that publishes them before
/// the single-threaded reads into the report.
struct PoolTotals {
  std::atomic<std::uint64_t> matches{0};
  std::atomic<std::size_t> bytes{0};
  std::atomic<std::uint64_t> steals{0};
};

/// Shared state of the recovery policy. The failed mask and the per-pool
/// progress words are the only state read across threads mid-run;
/// everything else is telemetry merged after the joins.
struct RecoveryContext {
  explicit RecoveryContext(std::size_t pools)
      : progress(pools), started(pools), finished(pools) {}

  /// Bit i set = pool i declared dead or stalled. fetch_or with acq_rel so
  /// the claim paths that acquire-load the mask observe everything the
  /// failure handler published before raising the bit.
  std::atomic<std::uint64_t> failed_mask{0};
  /// Chunks completed per pool — the liveness signal the watchdog reads.
  std::vector<std::atomic<std::uint64_t>> progress;
  std::vector<std::atomic<bool>> started;
  std::vector<std::atomic<bool>> finished;
  std::atomic<std::uint64_t> requeued{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<bool> degraded{false};
  util::Mutex mutex;
  util::CondVar cv;  // parks stalled pools; signaled by mark_failed

  void mark_failed(std::size_t pool) {
    const std::uint64_t bit = std::uint64_t{1} << pool;
    if ((failed_mask.fetch_or(bit, std::memory_order_acq_rel) & bit) != 0) return;
    {
      // Empty critical section: a stalled worker that has checked the mask
      // but not yet blocked cannot miss the wakeup (lost-notify guard).
      const util::MutexLock lock(mutex);
    }
    cv.notify_all();
  }

  [[nodiscard]] bool failed(std::size_t pool) const noexcept {
    return ((failed_mask.load(std::memory_order_acquire) >> pool) & 1) != 0;
  }

  /// Blocks until this pool is declared failed — how an injected stall
  /// hangs "like a wedged device" until the watchdog gives up on it.
  void wait_until_failed(std::size_t pool) {
    util::MutexLock lock(mutex);
    while (!failed(pool)) cv.wait(mutex);
  }
};

/// The watchdog: ticks on a fraction of the deadline and declares a pool
/// failed once it has gone `deadline` seconds without completing a chunk.
/// Runs on its own thread until a stop is requested.
void watchdog_loop(const std::stop_token& stop, RecoveryContext& ctx, double deadline) {
  const std::size_t n = ctx.progress.size();
  const double tick = std::max(deadline / 4.0, 0.001);
  std::vector<std::uint64_t> last(n, 0);
  std::vector<double> stagnant(n, 0.0);
  while (!stop.stop_requested()) {
    std::this_thread::sleep_for(std::chrono::duration<double>(tick));
    for (std::size_t i = 0; i < n; ++i) {
      if (!ctx.started[i].load(std::memory_order_relaxed) ||
          ctx.finished[i].load(std::memory_order_relaxed) || ctx.failed(i)) {
        stagnant[i] = 0.0;
        continue;
      }
      const std::uint64_t cur = ctx.progress[i].load(std::memory_order_relaxed);
      if (cur != last[i]) {
        last[i] = cur;
        stagnant[i] = 0.0;
        continue;
      }
      stagnant[i] += tick;
      if (stagnant[i] >= deadline) ctx.mark_failed(i);
    }
  }
}

}  // namespace

std::string ExecutionReport::to_string() const {
  std::size_t total_bytes = 0;
  for (const PoolReport& p : pools) total_bytes += p.bytes;
  const double total_mb = static_cast<double>(total_bytes) / (1024.0 * 1024.0);
  std::string out = "[";
  out += parallel::to_string(schedule);
  out += "] ";
  out += std::to_string(total_matches());
  out += " matches, ";
  out += util::format_double(total_mb, 2);
  out += " MB in ";
  out += util::format_double(total_seconds, 4);
  out += " s";
  for (std::size_t i = 0; i < pools.size(); ++i) {
    out += " | ";
    out += i == 0 ? "host" : "dev" + std::to_string(i);
    out += " ";
    out += util::format_trimmed(pools[i].realized_percent, 1);
    out += "% of bytes (configured ";
    out += util::format_trimmed(pools[i].configured_percent, 1);
    out += "%), ";
    out += util::format_double(pools[i].seconds, 4);
    out += " s";
  }
  out += " | steals ";
  for (std::size_t i = 0; i < pools.size(); ++i) {
    if (i > 0) out += "+";
    out += std::to_string(pools[i].steals);
  }
  out += " | imbalance ";
  out += util::format_double(imbalance, 2);
  // Failure section only when the recovery policy did something — the
  // no-fault report line stays byte-identical to the pre-fault-tolerance
  // format.
  if (!failed_pools.empty() || requeued_chunks > 0 || chunk_retries > 0 || degraded) {
    out += " | faults: failed={";
    for (std::size_t i = 0; i < failed_pools.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(failed_pools[i]);
    }
    out += "}, requeued ";
    out += std::to_string(requeued_chunks);
    out += ", retries ";
    out += std::to_string(chunk_retries);
    if (degraded) out += ", degraded";
  }
  return out;
}

HeterogeneousExecutor::HeterogeneousExecutor(const automata::DenseDfa& dfa,
                                             std::vector<PoolSpec> pools)
    : owned_engine_(std::make_unique<automata::DenseDfaEngine>(dfa)),
      engine_(owned_engine_.get()) {
  build_fleet(std::move(pools));
}

HeterogeneousExecutor::HeterogeneousExecutor(const automata::MatchEngine& engine,
                                             std::vector<PoolSpec> pools)
    : engine_(&engine) {
  build_fleet(std::move(pools));
}

void HeterogeneousExecutor::build_fleet(std::vector<PoolSpec> pools) {
  if (pools.empty()) {
    throw std::invalid_argument("HeterogeneousExecutor: at least one pool required");
  }
  // Every chunk scan enters its chunk by warming up over the bound - 1 bytes
  // before it.
  if (engine_->synchronization_bound() == 0) {
    throw std::invalid_argument("HeterogeneousExecutor: engine '" +
                                std::string(engine_->name()) +
                                "' has no synchronization bound; "
                                "chunked scanning would be inexact");
  }
  for (const PoolSpec& spec : pools) {
    if (!(spec.share_percent >= 0.0 && spec.share_percent <= 100.0)) {
      throw std::invalid_argument("HeterogeneousExecutor: pool share out of [0,100]");
    }
    if (spec.host_affinity && spec.device_affinity) {
      throw std::invalid_argument(
          "HeterogeneousExecutor: a pool pins as host or as device, not both");
    }
  }
  specs_ = std::move(pools);
  pools_.reserve(specs_.size());
  for (const PoolSpec& spec : specs_) {
    pools_.push_back(std::make_unique<parallel::ThreadPool>(spec.threads, pool_init(spec)));
  }
}

std::vector<double> HeterogeneousExecutor::configured_shares() const {
  std::vector<double> shares;
  shares.reserve(specs_.size());
  for (const PoolSpec& spec : specs_) shares.push_back(spec.share_percent);
  return shares;
}

ExecutionReport HeterogeneousExecutor::run_fleet(std::string_view text,
                                                 parallel::SchedulePolicy schedule) {
  return run_chunks(text, nullptr, configured_shares(), schedule, 0, nullptr);
}

ExecutionReport HeterogeneousExecutor::run_fleet(std::string_view text,
                                                 const std::vector<double>& shares,
                                                 parallel::SchedulePolicy schedule) {
  return run_chunks(text, nullptr, shares, schedule, 0, nullptr);
}

ExecutionReport HeterogeneousExecutor::collect_fleet(std::string_view text,
                                                     const std::vector<double>& shares,
                                                     parallel::SchedulePolicy schedule,
                                                     std::vector<automata::Match>& out) {
  return run_chunks(text, nullptr, shares, schedule, 0, &out);
}

ExecutionReport HeterogeneousExecutor::run_fleet_paged(dna::PagedGenome& genome,
                                                       const PagedFleetOptions& options) {
  return run_fleet_paged(genome, configured_shares(), options);
}

ExecutionReport HeterogeneousExecutor::run_fleet_paged(dna::PagedGenome& genome,
                                                       const std::vector<double>& shares,
                                                       const PagedFleetOptions& options) {
  return run_chunks({}, &genome, shares, options.schedule, options.prefetch_depth, nullptr);
}

ExecutionReport HeterogeneousExecutor::collect_fleet(dna::PagedGenome& genome,
                                                     const std::vector<double>& shares,
                                                     const PagedFleetOptions& options,
                                                     std::vector<automata::Match>& out) {
  return run_chunks({}, &genome, shares, options.schedule, options.prefetch_depth, &out);
}

ExecutionReport HeterogeneousExecutor::run_chunks(std::string_view text,
                                                  dna::PagedGenome* genome,
                                                  const std::vector<double>& shares,
                                                  parallel::SchedulePolicy schedule,
                                                  std::size_t prefetch_depth,
                                                  std::vector<automata::Match>* out) {
  const std::size_t n = specs_.size();
  const std::size_t sync_bound = engine_->synchronization_bound();
  std::size_t total_workers = 0;
  for (const auto& pool : pools_) total_workers += pool->thread_count();

  // The input as ascending spans plus the share cut in bytes. In memory the
  // text is one span, cut anywhere; paged, every page is a span and the cut
  // falls on page seams (the stored halos keep counts exact across them).
  std::vector<parallel::Chunk> spans;
  std::vector<std::size_t> bounds;
  std::vector<std::size_t> page_bounds;
  if (genome == nullptr) {
    bounds = fleet_bounds(text.size(), shares, n);
    if (!text.empty()) spans.push_back({0, text.size()});
  } else {
    page_bounds = fleet_bounds(genome->page_count(), shares, n);
    check_paged(*genome, sync_bound, total_workers);
    for (const std::size_t p : page_bounds) {
      bounds.push_back(std::min(genome->page_begin(p), genome->size()));
    }
    for (std::size_t p = 0; p < genome->page_count(); ++p) {
      const std::size_t begin = genome->page_begin(p);
      spans.push_back({begin, begin + genome->page_payload_bytes(p)});
    }
  }
  const bool is_static = schedule == parallel::SchedulePolicy::kStatic;
  // The recovery policy is on only while an armed plan exercises it. The
  // failed mask holds one bit per pool, so >64-pool fleets run without it
  // (no injection there).
  const util::FaultInjector* injector = util::FaultInjector::current();
  const bool recover = injector != nullptr && injector->exercises_recovery() && n <= 64;

  ExecutionReport report;
  report.schedule = schedule;
  report.pools.resize(n);
  for (std::size_t i = 0; i < n; ++i) report.pools[i].configured_percent = shares[i];
  if (spans.empty()) {
    finalize_fleet(report);
    return report;
  }

  std::vector<std::size_t> chunk_counts(n);
  for (std::size_t i = 0; i < n; ++i) {
    chunk_counts[i] = specs_[i].chunks > 0 ? specs_[i].chunks : pools_[i]->thread_count();
  }
  const FleetLayout layout = build_layout(spans, bounds, chunk_counts, total_workers, schedule,
                                          genome != nullptr ? kMinPagedTicketBytes : 0);
  const std::vector<parallel::Chunk>& chunks = layout.chunks;

  // Per-segment layouts get one queue per configured segment; the shared
  // schedules race every pool down one queue's front — fully demand-driven.
  std::vector<std::unique_ptr<parallel::ChunkQueue>> queues;
  if (layout.per_segment) {
    for (std::size_t i = 0; i < n; ++i) {
      queues.push_back(std::make_unique<parallel::ChunkQueue>(layout.seg_offset[i + 1] -
                                                              layout.seg_offset[i]));
    }
  } else {
    queues.push_back(std::make_unique<parallel::ChunkQueue>(chunks.size()));
  }

  // Paged runs stream every queue's page range through its own
  // PrefetchReader. The depth is clamped so the fleet's worker pins plus
  // every reader's ring, in-flight load and one spare slot fit the resident
  // budget together: backpressure can never deadlock.
  std::vector<std::unique_ptr<dna::PrefetchReader>> readers(queues.size());
  if (genome != nullptr) {
    const auto first_page = [&](std::size_t q) {
      return layout.per_segment ? page_bounds[q] : 0;
    };
    const auto last_page = [&](std::size_t q) {
      return layout.per_segment ? page_bounds[q + 1] : genome->page_count();
    };
    std::size_t ranges = 0;
    for (std::size_t q = 0; q < queues.size(); ++q) {
      if (last_page(q) > first_page(q)) ++ranges;
    }
    const std::size_t spare = (genome->options().resident_pages - total_workers) / ranges;
    report.prefetch_depth = std::min(prefetch_depth, spare > 2 ? spare - 2 : 0);
    for (std::size_t q = 0; q < queues.size() && report.prefetch_depth > 0; ++q) {
      if (last_page(q) > first_page(q)) {
        readers[q] = std::make_unique<dna::PrefetchReader>(*genome, first_page(q), last_page(q),
                                                           report.prefetch_depth);
      }
    }
  }

  RecoveryContext ctx(n);
  const auto failed_in = [recover](std::uint64_t mask, std::size_t pool) {
    return recover && ((mask >> pool) & 1) != 0;
  };
  // Claims queue q's lowest ticket. Front claims are the ascending ones —
  // the owner's on a segment queue, everyone's on the shared queue — and
  // only they move the queue's reader frontier.
  const auto claim_front = [&](std::size_t q) -> std::optional<std::size_t> {
    const auto local = queues[q]->take_front();
    if (!local) return std::nullopt;
    const std::size_t t = layout.seg_offset[q] + *local;
    if (readers[q]) readers[q]->publish(layout.span_of[t]);
    return t;
  };
  // Claims a global chunk index for pool i: its own segment first, in
  // ascending order, then the back of the nearest segment it may steal from,
  // so owner and thief meet from opposite ends of every segment. Adaptive
  // steals from any segment; static only from a failed pool's, and that
  // steal IS the requeue of its unclaimed remainder. A failed pool claims
  // nothing more.
  const bool steal_live = layout.per_segment && !is_static;
  const auto take_for = [&](std::size_t i) -> std::optional<std::size_t> {
    if (recover && ctx.failed(i)) return std::nullopt;
    if (!layout.per_segment) return claim_front(0);
    if (const auto t = claim_front(i)) return t;
    const std::uint64_t mask = recover ? ctx.failed_mask.load(std::memory_order_acquire) : 0;
    if (!steal_live && mask == 0) return std::nullopt;
    const auto steal = [&](std::size_t j) -> std::optional<std::size_t> {
      if (!steal_live && !failed_in(mask, j)) return std::nullopt;
      const auto t = queues[j]->take_back();
      if (!t) return std::nullopt;
      if (failed_in(mask, j)) ctx.requeued.fetch_add(1, std::memory_order_relaxed);
      return layout.seg_offset[j] + *t;
    };
    for (std::size_t d = 1; d < n; ++d) {
      if (i + d < n) {
        if (const auto t = steal(i + d)) return t;
      }
      if (d <= i) {
        if (const auto t = steal(i - d)) return t;
      }
    }
    return std::nullopt;
  };

  // The bytes ticket t is scanned on, and the global offset of their first
  // byte: the whole text in memory; paged, the halo+payload view of the
  // ticket's page, pinned in `pin`. A worker holds at most one pin and keeps
  // it while its tickets stay on that page — the cache's progress guarantee.
  using PageRef = dna::PagedGenome::PageRef;
  using View = std::pair<std::string_view, std::size_t>;
  const auto view_of = [&](std::size_t t, PageRef& pin) -> View {
    if (genome == nullptr) return {text, 0};
    const std::size_t page = layout.span_of[t];
    if (!pin.valid() || pin.page() != page) {
      pin.release();
      pin = genome->acquire(page);
    }
    return {pin.view(), pin.begin() - pin.halo()};
  };

  // Whoever claims chunk t owns slot t exclusively; the joins publish the
  // slots before the single-threaded merge.
  const bool collect = out != nullptr;
  std::vector<std::vector<automata::Match>> slots(collect ? chunks.size() : 0);
  // Chunk-aware engine scan: the engine reads its own warm-up lead out of
  // the view before the chunk, so any pool can scan any chunk exactly.
  const auto scan = [&](std::size_t t, PageRef& pin) -> std::uint64_t {
    const auto [view, base] = view_of(t, pin);
    const std::size_t begin = chunks[t].begin - base;
    const std::size_t end = chunks[t].end - base;
    if (!collect) return engine_->count_chunk(view, begin, end);
    const std::uint64_t matches = engine_->collect_chunk(view, begin, end, slots[t]);
    for (automata::Match& m : slots[t]) m.end += base;  // view offsets -> global
    return matches;
  };

  // Degradation ladder, bottom rung: the per-byte reference scanner over the
  // raw DFA, warmed up over the chunk's lead. Engines without a DFA behind
  // them get one last engine scan with no injection.
  const automata::DenseDfa* dfa = engine_->dfa();
  const auto scan_degraded = [&](std::size_t t, PageRef& pin) -> std::uint64_t {
    if (dfa == nullptr) return scan(t, pin);
    const auto [view, base] = view_of(t, pin);
    const parallel::Chunk& c = chunks[t];
    const std::size_t lead = std::min(sync_bound - 1, c.begin - base);
    const std::string_view window = view.substr(c.begin - base - lead, c.end - c.begin + lead);
    if (!collect) {
      const std::uint64_t full =
          automata::scan_count_naive(*dfa, window, dfa->start()).match_count;
      const std::uint64_t prefix =
          automata::scan_count_naive(*dfa, window.substr(0, lead), dfa->start()).match_count;
      return full - prefix;
    }
    // Collect over the warmed-up window, then keep only the events ending
    // inside (c.begin, c.end] — the chunk contract.
    std::vector<automata::Match> events;
    (void)automata::scan_collect_naive(*dfa, window, dfa->start(), c.begin - lead, events);
    std::uint64_t kept = 0;
    for (const automata::Match& m : events) {
      if (m.end > c.begin) {
        slots[t].push_back(m);
        ++kept;
      }
    }
    return kept;
  };

  // One chunk under the recovery policy: injected or genuine scan failures
  // are retried up to the budget, then the chunk falls back to the naive
  // scanner. An injected slowdown stretches the scan by the planned factor.
  const auto scan_recover = [&](std::size_t t, PageRef& pin) -> std::uint64_t {
    for (std::size_t attempt = 0; attempt < kMaxChunkAttempts; ++attempt) {
      try {
        injector->chunk_scan(t, attempt);
        util::Timer timer;
        const std::uint64_t m = scan(t, pin);
        const double slow = injector->chunk_slow_factor(t);
        if (slow > 1.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>((slow - 1.0) * timer.seconds()));
        }
        return m;
      } catch (...) {
        // Count the failed attempt, drop any partial events, try again.
        ctx.retries.fetch_add(1, std::memory_order_relaxed);
        if (collect) slots[t].clear();
      }
    }
    ctx.degraded.store(true, std::memory_order_relaxed);
    return scan_degraded(t, pin);
  };

  std::vector<PoolTotals> totals(n);
  const auto drain = [&](std::size_t pool_idx) {
    PoolTotals& mine = totals[pool_idx];
    pools_[pool_idx]->parallel_pull([&, pool_idx](std::size_t) {
      if (recover) {
        ctx.started[pool_idx].store(true, std::memory_order_relaxed);
        if (injector->pool_dies(pool_idx)) {
          throw util::FaultInjectedError("injected pool-death: pool " +
                                         std::to_string(pool_idx));
        }
        if (injector->pool_stalls(pool_idx)) {
          // Hang exactly as a wedged device would: no progress until the
          // watchdog declares the pool failed, then return empty-handed.
          ctx.wait_until_failed(pool_idx);
          return;
        }
      }
      PageRef pin;
      std::uint64_t matches = 0;
      std::uint64_t steals = 0;
      std::size_t bytes = 0;
      while (const auto t = take_for(pool_idx)) {
        matches += recover ? scan_recover(*t, pin) : scan(*t, pin);
        bytes += chunks[*t].end - chunks[*t].begin;
        if (layout.owners[*t] != pool_idx) ++steals;
        if (recover) ctx.progress[pool_idx].fetch_add(1, std::memory_order_relaxed);
      }
      mine.matches.fetch_add(matches, std::memory_order_relaxed);
      mine.bytes.fetch_add(bytes, std::memory_order_relaxed);
      mine.steals.fetch_add(steals, std::memory_order_relaxed);
    });
  };

  // Static pools with an empty segment have nothing to claim and are not
  // launched (their report fields stay exactly zero) — unless the recovery
  // policy may hand them a failed pool's segment.
  const auto active = [&](std::size_t i) {
    return !is_static || recover || layout.seg_offset[i + 1] > layout.seg_offset[i];
  };
  const auto run_pool = [&](std::size_t i) {
    util::Timer timer;
    if (!recover) {
      drain(i);
    } else {
      // A pool whose workers or join threw is dead: record the failure so
      // the claim paths treat its segment as requeue material, and move on
      // — the survivors and the final sweep own its work now.
      try {
        drain(i);
      } catch (...) {
        ctx.mark_failed(i);
      }
      ctx.finished[i].store(true, std::memory_order_relaxed);
    }
    report.pools[i].seconds = timer.seconds();
  };

  if (!recover) {
    for_each_pool(n, active, run_pool);
  } else {
    {
      // The jthread requests a stop and joins when this scope ends, on the
      // exception path too.
      const std::jthread watchdog(
          [&ctx, deadline = recovery_.watchdog_seconds](const std::stop_token& stop) {
            watchdog_loop(stop, ctx, deadline);
          });
      for_each_pool(n, active, run_pool);
    }

    // Final sweep on the caller thread: anything still unclaimed (total
    // fleet loss, or a pool declared failed after the survivors had already
    // left) is scanned here and attributed to pool 0 — parity holds
    // unconditionally.
    PageRef pin;
    std::uint64_t matches = 0;
    std::uint64_t steals = 0;
    std::uint64_t requeued = 0;
    std::size_t bytes = 0;
    const std::uint64_t mask = ctx.failed_mask.load(std::memory_order_acquire);
    for (std::size_t qi = 0; qi < queues.size(); ++qi) {
      while (const auto local = queues[qi]->take_front()) {
        const std::size_t t = layout.seg_offset[qi] + *local;
        matches += scan_recover(t, pin);
        bytes += chunks[t].end - chunks[t].begin;
        if (layout.owners[t] != 0) ++steals;
        if (failed_in(mask, layout.owners[t])) ++requeued;
      }
      // Poison the drained queue: a late-waking claimant cannot resurrect a
      // range whose results are already merged.
      (void)queues[qi]->close();
    }
    totals[0].matches.fetch_add(matches, std::memory_order_relaxed);
    totals[0].bytes.fetch_add(bytes, std::memory_order_relaxed);
    totals[0].steals.fetch_add(steals, std::memory_order_relaxed);
    ctx.requeued.fetch_add(requeued, std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
      if (failed_in(mask, i)) {
        report.pools[i].failed = true;
        report.failed_pools.push_back(i);
      }
    }
    report.requeued_chunks = ctx.requeued.load(std::memory_order_relaxed);
    report.chunk_retries = ctx.retries.load(std::memory_order_relaxed);
    report.degraded = ctx.degraded.load(std::memory_order_relaxed);
  }
  for (const auto& reader : readers) {
    if (!reader) continue;
    reader->stop();
    const dna::PrefetchStats stats = reader->stats();
    report.prefetch.pages_prefetched += stats.pages_prefetched;
    report.prefetch.ring_full_waits += stats.ring_full_waits;
  }

  // Relaxed is enough: every pool has joined above, so these are
  // single-threaded reads ordered by the pool/future synchronization.
  for (std::size_t i = 0; i < n; ++i) {
    report.pools[i].matches = totals[i].matches.load(std::memory_order_relaxed);
    report.pools[i].bytes = totals[i].bytes.load(std::memory_order_relaxed);
    report.pools[i].steals = totals[i].steals.load(std::memory_order_relaxed);
  }
  finalize_fleet(report);
  if (collect) {
    // Chunks are laid out in ascending byte order and every match end
    // belongs to exactly one chunk, so a chunk-ordered merge is globally
    // sorted — the same order scan_collect_naive produces.
    std::size_t events = 0;
    for (const auto& slot : slots) events += slot.size();
    out->reserve(out->size() + events);
    for (const auto& slot : slots) out->insert(out->end(), slot.begin(), slot.end());
  }
  return report;
}

}  // namespace hetopt::core
