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

/// The chunk layout of a run plus who owns each chunk. kStatic/kAdaptive cut
/// every configured segment with its own granularity (per-segment queues);
/// kDynamic/kGuided cut the whole input as one shared range.
struct FleetLayout {
  std::vector<parallel::Chunk> chunks;
  /// The pool whose configured segment contains chunks[t].begin — a claim by
  /// any other pool is a steal.
  std::vector<std::uint32_t> owners;
  /// chunks[seg_offset[i] .. seg_offset[i+1]) is segment i (per-segment
  /// layouts only).
  std::vector<std::size_t> seg_offset;
  bool per_segment = false;
};

[[nodiscard]] FleetLayout build_layout(std::size_t total,
                                       const std::vector<std::size_t>& bounds,
                                       const std::vector<std::size_t>& chunk_counts,
                                       std::size_t total_workers,
                                       parallel::SchedulePolicy schedule) {
  const std::size_t n = bounds.size() - 1;
  FleetLayout layout;
  layout.per_segment = schedule == parallel::SchedulePolicy::kStatic ||
                       schedule == parallel::SchedulePolicy::kAdaptive;
  layout.seg_offset.assign(n + 1, 0);
  if (layout.per_segment) {
    for (std::size_t i = 0; i < n; ++i) {
      layout.seg_offset[i] = layout.chunks.size();
      for (const parallel::Chunk& c :
           parallel::make_chunks(bounds[i + 1] - bounds[i], chunk_counts[i])) {
        layout.chunks.push_back({c.begin + bounds[i], c.end + bounds[i]});
      }
    }
    layout.seg_offset[n] = layout.chunks.size();
  } else {
    std::size_t total_chunks = 0;
    for (const std::size_t c : chunk_counts) total_chunks += c;
    total_chunks = std::max<std::size_t>(1, total_chunks);
    if (schedule == parallel::SchedulePolicy::kGuided) {
      layout.chunks = parallel::make_chunks_guided(
          total, total_workers, parallel::guided_min_chunk(total, total_chunks));
    } else {
      layout.chunks = parallel::make_chunks(total, total_chunks);
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

/// The watchdog: ticks on a fraction of the tightest deadline and declares a
/// pool failed once it has gone `deadlines[i]` seconds without completing a
/// chunk. Runs on its own thread until a stop is requested.
void watchdog_loop(const std::stop_token& stop, RecoveryContext& ctx,
                   const std::vector<double>& deadlines) {
  const std::size_t n = deadlines.size();
  double tick = *std::min_element(deadlines.begin(), deadlines.end()) / 4.0;
  tick = std::max(tick, 0.001);
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
      if (stagnant[i] >= deadlines[i]) ctx.mark_failed(i);
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
    : owned_engine_(std::make_unique<automata::DenseDfaEngine>(
          automata::EngineKind::kCompiledDfa, dfa)),
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
  matchers_.reserve(specs_.size());
  for (const PoolSpec& spec : specs_) {
    pools_.push_back(std::make_unique<parallel::ThreadPool>(spec.threads, pool_init(spec)));
    // The ParallelMatcher constructor rejects a boundless engine without a
    // DFA, so every engine the run loop sees can scan any chunk exactly.
    matchers_.push_back(std::make_unique<automata::ParallelMatcher>(*engine_, *pools_.back()));
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
  return run_chunks(text, configured_shares(), schedule, nullptr);
}

ExecutionReport HeterogeneousExecutor::run_fleet(std::string_view text,
                                                 const std::vector<double>& shares,
                                                 parallel::SchedulePolicy schedule) {
  return run_chunks(text, shares, schedule, nullptr);
}

ExecutionReport HeterogeneousExecutor::collect_fleet(std::string_view text,
                                                     const std::vector<double>& shares,
                                                     parallel::SchedulePolicy schedule,
                                                     std::vector<automata::Match>& out) {
  return run_chunks(text, shares, schedule, &out);
}

ExecutionReport HeterogeneousExecutor::run_fleet_paged(dna::PagedGenome& genome,
                                                       const PagedFleetOptions& options) {
  return run_fleet_paged(genome, configured_shares(), options);
}

ExecutionReport HeterogeneousExecutor::run_fleet_paged(dna::PagedGenome& genome,
                                                       const std::vector<double>& shares,
                                                       const PagedFleetOptions& options) {
  // Page-granular segment cuts: the same cumulative-rounding split as the
  // in-memory run, but over pages so every pool boundary is a page seam
  // (the halo makes counts exact across it, like any other seam).
  const auto bounds = fleet_bounds(genome.page_count(), shares, specs_.size());
  const std::size_t n = specs_.size();
  std::size_t total_workers = 0;
  for (const auto& pool : pools_) total_workers += pool->thread_count();
  const std::size_t resident = genome.options().resident_pages;
  if (resident < total_workers) {
    throw std::invalid_argument(
        "HeterogeneousExecutor: resident budget (" + std::to_string(resident) +
        " pages) must cover the fleet's " + std::to_string(total_workers) +
        " workers for a paged run");
  }

  // The shared cache serves every pool at once, so the resident budget is
  // divided up front in proportion to worker counts: each slice covers its
  // pool's workers (floor(resident * w / W) >= w because resident >= W) and
  // the slices sum to at most `resident`, which bounds the fleet's total
  // pins below the budget — concurrent backpressure always has a free slot.
  std::vector<std::size_t> budget(n);
  for (std::size_t i = 0; i < n; ++i) {
    budget[i] = resident * pools_[i]->thread_count() / total_workers;
  }

  ExecutionReport report;
  report.schedule = options.schedule == parallel::SchedulePolicy::kAdaptive
                        ? parallel::SchedulePolicy::kDynamic
                        : options.schedule;
  report.pools.resize(n);
  for (std::size_t i = 0; i < n; ++i) report.pools[i].configured_percent = shares[i];

  // Every pool streams its page range through its own matcher; zero-page
  // shares are skipped entirely, as under the static in-memory schedule.
  for_each_pool(
      n, [&](std::size_t i) { return bounds[i + 1] > bounds[i]; },
      [&](std::size_t i) {
        automata::PagedScanOptions popts;
        popts.schedule = report.schedule;
        popts.chunks_per_page = options.chunks_per_page;
        popts.prefetch_depth = options.prefetch_depth;
        popts.first_page = bounds[i];
        popts.last_page = bounds[i + 1];
        popts.pin_budget = budget[i];
        const automata::PagedScanStats stats = matchers_[i]->count_paged(genome, popts);
        report.pools[i].matches = stats.match_count;
        report.pools[i].bytes = stats.bytes;
        report.pools[i].seconds = stats.seconds;
      });
  finalize_fleet(report);
  return report;
}

ExecutionReport HeterogeneousExecutor::run_chunks(std::string_view text,
                                                  const std::vector<double>& shares,
                                                  parallel::SchedulePolicy schedule,
                                                  std::vector<automata::Match>* out) {
  const auto bounds = fleet_bounds(text.size(), shares, specs_.size());
  const std::size_t n = specs_.size();
  const std::size_t sync_bound = engine_->synchronization_bound();
  // Without a synchronization bound a chunk cannot warm up on its own lead:
  // the run is static with one chunk per pool, and count_chunk replays the
  // whole prefix to enter each segment exactly.
  if (sync_bound == 0) schedule = parallel::SchedulePolicy::kStatic;
  const bool is_static = schedule == parallel::SchedulePolicy::kStatic;
  // The recovery policy is on only while an armed plan exercises it. Its
  // naive fallback warms up per chunk (a positive bound) and the failed mask
  // holds one bit per pool, so unbounded engines and >64-pool fleets run
  // without it (no injection there).
  const util::FaultInjector* injector = util::FaultInjector::current();
  const bool recover = injector != nullptr && injector->exercises_recovery() &&
                       sync_bound > 0 && n <= 64;

  ExecutionReport report;
  report.schedule = schedule;
  report.pools.resize(n);
  for (std::size_t i = 0; i < n; ++i) report.pools[i].configured_percent = shares[i];
  if (text.empty()) {
    finalize_fleet(report);
    return report;
  }

  std::vector<std::size_t> chunk_counts(n, 1);
  std::size_t total_workers = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t workers = pools_[i]->thread_count();
    total_workers += workers;
    if (sync_bound > 0) chunk_counts[i] = specs_[i].chunks > 0 ? specs_[i].chunks : workers;
  }
  const FleetLayout layout =
      build_layout(text.size(), bounds, chunk_counts, total_workers, schedule);
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

  RecoveryContext ctx(n);
  const auto failed_in = [recover](std::uint64_t mask, std::size_t pool) {
    return recover && ((mask >> pool) & 1) != 0;
  };
  // Claims a global chunk index for pool i: its own segment first (the last
  // pool descending from the back, everyone else ascending from the front),
  // then the nearest segment it may steal from — forward steals take that
  // segment's front, backward steals its back, so every boundary keeps the
  // two-ended meeting dynamics of the 2-pool host/device scheme. Adaptive
  // steals from any segment; static only from a failed pool's, and that
  // steal IS the requeue of its unclaimed remainder. A failed pool claims
  // nothing more.
  const bool steal_live = layout.per_segment && !is_static;
  const auto take_for = [&](std::size_t i) -> std::optional<std::size_t> {
    if (recover && ctx.failed(i)) return std::nullopt;
    if (!layout.per_segment) return queues[0]->take_front();
    if (const auto t = i + 1 == n ? queues[i]->take_back() : queues[i]->take_front()) {
      return layout.seg_offset[i] + *t;
    }
    const std::uint64_t mask = recover ? ctx.failed_mask.load(std::memory_order_acquire) : 0;
    if (!steal_live && mask == 0) return std::nullopt;
    const auto steal = [&](std::size_t j, bool front) -> std::optional<std::size_t> {
      if (!steal_live && !failed_in(mask, j)) return std::nullopt;
      const auto t = front ? queues[j]->take_front() : queues[j]->take_back();
      if (!t) return std::nullopt;
      if (failed_in(mask, j)) ctx.requeued.fetch_add(1, std::memory_order_relaxed);
      return layout.seg_offset[j] + *t;
    };
    for (std::size_t d = 1; d < n; ++d) {
      if (i + d < n) {
        if (const auto t = steal(i + d, /*front=*/true)) return t;
      }
      if (d <= i) {
        if (const auto t = steal(i - d, /*front=*/false)) return t;
      }
    }
    return std::nullopt;
  };

  // Whoever claims chunk t owns slot t exclusively; the joins publish the
  // slots before the single-threaded merge.
  const bool collect = out != nullptr;
  std::vector<std::vector<automata::Match>> slots(collect ? chunks.size() : 0);
  // Chunk-aware engine scan: the engine reads its own warm-up lead before
  // c.begin, so any pool can scan any chunk exactly.
  const auto scan = [&](std::size_t t) -> std::uint64_t {
    const parallel::Chunk& c = chunks[t];
    return collect ? engine_->collect_chunk(text, c.begin, c.end, slots[t])
                   : engine_->count_chunk(text, c.begin, c.end);
  };

  // Degradation ladder, bottom rung: the per-byte reference scanner over the
  // raw DFA, warmed up over the chunk's lead. Engines without a DFA behind
  // them get one last engine scan with no injection.
  const automata::DenseDfa* dfa = engine_->dfa();
  const auto scan_degraded = [&](std::size_t t) -> std::uint64_t {
    if (dfa == nullptr) return scan(t);
    const parallel::Chunk& c = chunks[t];
    const std::size_t lead = std::min(sync_bound - 1, c.begin);
    const std::string_view window = text.substr(c.begin - lead, c.end - c.begin + lead);
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
  const auto scan_recover = [&](std::size_t t) -> std::uint64_t {
    for (std::size_t attempt = 0; attempt < recovery_.max_chunk_attempts; ++attempt) {
      try {
        injector->chunk_scan(t, attempt);
        util::Timer timer;
        const std::uint64_t m = scan(t);
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
    return scan_degraded(t);
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
      std::uint64_t matches = 0;
      std::uint64_t steals = 0;
      std::size_t bytes = 0;
      while (const auto t = take_for(pool_idx)) {
        matches += recover ? scan_recover(*t) : scan(*t);
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
    std::vector<double> deadlines(n);
    for (std::size_t i = 0; i < n; ++i) {
      deadlines[i] = specs_[i].watchdog_seconds > 0.0 ? specs_[i].watchdog_seconds
                                                      : recovery_.watchdog_seconds;
    }
    {
      // The jthread requests a stop and joins when this scope ends, on the
      // exception path too.
      const std::jthread watchdog(
          [&ctx, deadlines](const std::stop_token& stop) { watchdog_loop(stop, ctx, deadlines); });
      for_each_pool(n, active, run_pool);
    }

    // Final sweep on the caller thread: anything still unclaimed (total
    // fleet loss, or a pool declared failed after the survivors had already
    // left) is scanned here and attributed to pool 0 — parity holds
    // unconditionally.
    std::uint64_t matches = 0;
    std::uint64_t steals = 0;
    std::uint64_t requeued = 0;
    std::size_t bytes = 0;
    const std::uint64_t mask = ctx.failed_mask.load(std::memory_order_acquire);
    for (std::size_t qi = 0; qi < queues.size(); ++qi) {
      while (const auto local = queues[qi]->take_front()) {
        const std::size_t t = layout.seg_offset[qi] + *local;
        matches += scan_recover(t);
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
