#include "automata/parallel_matcher.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "parallel/chunk_queue.hpp"
#include "parallel/partitioner.hpp"

namespace hetopt::automata {

namespace {

/// The chunk layout for a schedule: equal chunks for static/dynamic pulls,
/// decreasing sizes for guided (where `chunks` becomes the tail-granularity
/// hint: the smallest guided chunk is ~1/4 of the equal-split size).
[[nodiscard]] std::vector<parallel::Chunk> layout_chunks(std::size_t total,
                                                         std::size_t chunks,
                                                         std::size_t workers,
                                                         parallel::SchedulePolicy schedule) {
  if (schedule == parallel::SchedulePolicy::kGuided) {
    return parallel::make_chunks_guided(total, workers,
                                        parallel::guided_min_chunk(total, chunks));
  }
  return parallel::make_chunks(total, chunks, /*halo=*/0);
}

/// Scans chunks ids[0..m) of `text` as interleaved streams on `kernel`: one
/// count_multi pass warms the entry states over each chunk's lead bytes (up
/// to `warmup` before chunk.begin), a second scans the chunk bodies from the
/// warmed states; res[k] receives chunk ids[k]'s result. Exact for any
/// subset of chunks — the PaREM warm-up protocol, batched.
/// m must be <= CompiledDfa::kMaxStreams.
void scan_chunk_streams(const CompiledDfa& kernel, std::string_view text,
                        std::size_t warmup, const parallel::Chunk* chunks,
                        const std::size_t* ids, std::size_t m, ScanResult* res) {
  std::string_view views[CompiledDfa::kMaxStreams] = {};
  StateId entries[CompiledDfa::kMaxStreams] = {};
  for (std::size_t k = 0; k < m; ++k) {
    const parallel::Chunk& c = chunks[ids[k]];
    const std::size_t lead = std::min(warmup, c.begin);
    views[k] = text.substr(c.begin - lead, lead);
    entries[k] = kernel.start();
  }
  kernel.count_multi(views, entries, res, m);
  for (std::size_t k = 0; k < m; ++k) {
    const parallel::Chunk& c = chunks[ids[k]];
    entries[k] = res[k].final_state;
    views[k] = text.substr(c.begin, c.end - c.begin);
  }
  kernel.count_multi(views, entries, res, m);
}

}  // namespace

ParallelMatcher::ParallelMatcher(const DenseDfa& dfa, parallel::ThreadPool& pool)
    : dfa_(&dfa), pool_(pool) {
  const std::string err = dfa.validate();
  if (!err.empty()) throw std::invalid_argument("ParallelMatcher: " + err);
  owned_kernel_ = CompiledDfa(dfa);
  kernel_ = &owned_kernel_;
}

ParallelMatcher::ParallelMatcher(const MatchEngine& engine, parallel::ThreadPool& pool)
    : pool_(pool) {
  if (engine.dfa() != nullptr) {
    // DFA-backed: run on the engine's already-lowered kernel; behavior is
    // identical to the DenseDfa constructor (same tables, no re-lowering).
    dfa_ = engine.dfa();
    kernel_ = engine.kernel();
  } else {
    if (engine.synchronization_bound() == 0) {
      throw std::invalid_argument("ParallelMatcher: engine '" + std::string(engine.name()) +
                                  "' has no synchronization bound and no DFA; "
                                  "chunked scanning would be inexact");
    }
    engine_ = &engine;
  }
}

ParallelScanStats ParallelMatcher::count(std::string_view text, std::size_t chunks,
                                         ParallelStrategy strategy) const {
  return run(text, chunks, MatcherOptions{strategy, 0}, /*want_matches=*/false, nullptr);
}

ParallelScanStats ParallelMatcher::count(std::string_view text, std::size_t chunks,
                                         const MatcherOptions& options) const {
  return run(text, chunks, options, /*want_matches=*/false, nullptr);
}

ParallelScanStats ParallelMatcher::collect(std::string_view text, std::size_t chunks,
                                           std::vector<Match>& out,
                                           ParallelStrategy strategy) const {
  return run(text, chunks, MatcherOptions{strategy, 0}, /*want_matches=*/true, &out);
}

ParallelScanStats ParallelMatcher::collect(std::string_view text, std::size_t chunks,
                                           std::vector<Match>& out,
                                           const MatcherOptions& options) const {
  return run(text, chunks, options, /*want_matches=*/true, &out);
}

ParallelScanStats ParallelMatcher::run(std::string_view text, std::size_t chunks,
                                       MatcherOptions options, bool want_matches,
                                       std::vector<Match>* out) const {
  ParallelScanStats stats;
  if (text.empty()) return stats;
  chunks = std::max<std::size_t>(1, std::min(chunks, text.size()));

  if (engine_ != nullptr) return run_engine(text, chunks, options.schedule, want_matches, out);

  // Demand-driven schedules scan every chunk independently (per-chunk
  // warm-up), which requires a synchronization bound; unbounded automata
  // fall back to the ordered static speculative waves.
  if (options.schedule != parallel::SchedulePolicy::kStatic) {
    if (dfa_->synchronization_bound() == 0) {
      options.schedule = parallel::SchedulePolicy::kStatic;
    } else {
      options.strategy = ParallelStrategy::kWarmup;
    }
  }
  if (options.strategy == ParallelStrategy::kWarmup && dfa_->synchronization_bound() == 0) {
    options.strategy = ParallelStrategy::kSpeculative;
  }

  const auto ranges =
      layout_chunks(text.size(), chunks, pool_.thread_count(), options.schedule);
  stats.chunks = ranges.size();
  if (scratch_.size() < ranges.size()) scratch_.resize(ranges.size());

  std::size_t streams = options.streams_per_worker;
  if (streams == 0) {  // auto: the chunks one worker would process serially anyway
    streams = (ranges.size() + pool_.thread_count() - 1) / pool_.thread_count();
  }
  streams = std::min(std::max<std::size_t>(streams, 1), CompiledDfa::kMaxStreams);

  const auto body = [&](std::size_t i) {
    return text.substr(ranges[i].begin, ranges[i].end - ranges[i].begin);
  };
  const auto scan_chunk = [&](std::size_t i, StateId entry) {
    ChunkResult& cr = scratch_[i];
    cr.matches.clear();  // clear() keeps capacity — reused across runs
    if (want_matches) {
      cr.scan = kernel_->collect(body(i), entry, ranges[i].begin, cr.matches);
    } else {
      cr.scan = kernel_->count(body(i), entry);
    }
  };
  // Scans one chunk, on the calling thread when that cannot change placement
  // (no pool round-trip), on a pool worker when workers are pinned — the
  // scan must not escape the configured placement measurements price.
  const auto scan_one = [&](std::size_t i, StateId entry) {
    if (pool_.has_worker_init()) {
      pool_.submit([&] { scan_chunk(i, entry); }).get();
    } else {
      scan_chunk(i, entry);
    }
  };
  // Scans chunk idx[j] from entries[j] for all j across the pool. Counting
  // interleaves `streams` chunks per worker task (multi-stream); collection
  // scans one chunk per task, since events append per chunk.
  const auto scan_wave = [&](const std::vector<std::size_t>& idx,
                             const std::vector<StateId>& entries) {
    if (idx.size() == 1) {
      scan_one(idx[0], entries[0]);
      return;
    }
    if (want_matches || streams == 1) {
      pool_.parallel_for(idx.size(),
                         [&](std::size_t j) { scan_chunk(idx[j], entries[j]); });
      return;
    }
    const std::size_t groups = (idx.size() + streams - 1) / streams;
    pool_.parallel_for(groups, [&](std::size_t g) {
      const std::size_t first = g * streams;
      const std::size_t m = std::min(streams, idx.size() - first);
      std::string_view views[CompiledDfa::kMaxStreams];
      ScanResult res[CompiledDfa::kMaxStreams];
      for (std::size_t k = 0; k < m; ++k) views[k] = body(idx[first + k]);
      kernel_->count_multi(views, entries.data() + first, res, m);
      for (std::size_t k = 0; k < m; ++k) scratch_[idx[first + k]].scan = res[k];
    });
  };

  if (ranges.size() == 1) {
    // Single chunk: equal to a sequential scan for either strategy.
    scan_one(0, dfa_->start());
  } else if (options.strategy == ParallelStrategy::kWarmup) {
    const std::size_t warmup = dfa_->synchronization_bound() - 1;
    const auto warm_entry = [&](std::size_t i) {
      // Warm up from the start state over the bytes preceding the chunk.
      const std::size_t lead = std::min(warmup, ranges[i].begin);
      if (lead == 0) return dfa_->start();
      return kernel_->count(text.substr(ranges[i].begin - lead, lead), dfa_->start())
          .final_state;
    };
    if (options.schedule != parallel::SchedulePolicy::kStatic) {
      // Demand-driven: an idle worker claims the next chunk (or the next
      // `streams` chunks, scanned interleaved) from the ticket queue.
      parallel::ChunkQueue queue(ranges.size());
      if (want_matches || streams == 1) {
        pool_.parallel_pull([&](std::size_t) {
          while (const auto t = queue.take_front()) scan_chunk(*t, warm_entry(*t));
        });
      } else {
        pool_.parallel_pull([&](std::size_t) {
          std::size_t idx[CompiledDfa::kMaxStreams] = {};
          ScanResult res[CompiledDfa::kMaxStreams];
          for (;;) {
            std::size_t m = 0;
            while (m < streams) {
              const auto t = queue.take_front();
              if (!t) break;
              idx[m++] = *t;
            }
            if (m == 0) break;
            scan_chunk_streams(*kernel_, text, warmup, ranges.data(), idx, m, res);
            for (std::size_t k = 0; k < m; ++k) scratch_[idx[k]].scan = res[k];
          }
        });
      }
    } else if (want_matches || streams == 1) {
      pool_.parallel_for(ranges.size(),
                         [&](std::size_t i) { scan_chunk(i, warm_entry(i)); });
    } else {
      const std::size_t groups = (ranges.size() + streams - 1) / streams;
      pool_.parallel_for(groups, [&](std::size_t g) {
        const std::size_t first = g * streams;
        const std::size_t m = std::min(streams, ranges.size() - first);
        std::size_t ids[CompiledDfa::kMaxStreams] = {};
        ScanResult res[CompiledDfa::kMaxStreams];
        for (std::size_t k = 0; k < m; ++k) ids[k] = first + k;
        scan_chunk_streams(*kernel_, text, warmup, ranges.data(), ids, m, res);
        for (std::size_t k = 0; k < m; ++k) scratch_[first + k].scan = res[k];
      });
    }
  } else {
    // Phase 1: optimistic parallel scan, every chunk entered at start state.
    std::vector<std::size_t> idx(ranges.size());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    std::vector<StateId> entries(ranges.size(), dfa_->start());
    scan_wave(idx, entries);
    // Phase 2: propagate true entry states and re-scan mispredicted chunks
    // in parallel waves until the propagation settles. Chunk 0's entry is
    // always correct, so the settled prefix grows every wave and the loop
    // terminates; motif automata synchronize fast enough that one wave
    // (usually empty) is the norm.
    std::vector<StateId> scanned_from(ranges.size(), dfa_->start());
    std::vector<std::size_t> redo;
    std::vector<StateId> redo_entries;
    while (true) {
      redo.clear();
      StateId entry = dfa_->start();
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        if (entry != scanned_from[i]) redo.push_back(i);
        entry = scratch_[i].scan.final_state;
      }
      if (redo.empty()) break;
      redo_entries.resize(redo.size());
      for (std::size_t j = 0; j < redo.size(); ++j) {
        const std::size_t i = redo[j];  // never 0
        redo_entries[j] = scratch_[i - 1].scan.final_state;
        scanned_from[i] = redo_entries[j];
      }
      stats.rescanned_chunks += redo.size();
      scan_wave(redo, redo_entries);
    }
  }

  for (std::size_t i = 0; i < ranges.size(); ++i) {
    stats.match_count += scratch_[i].scan.match_count;
  }
  if (want_matches && out != nullptr) {
    collect_sorted(ranges.size(), out);
  }
  return stats;
}

ParallelScanStats ParallelMatcher::run_engine(std::string_view text, std::size_t chunks,
                                              parallel::SchedulePolicy schedule,
                                              bool want_matches,
                                              std::vector<Match>* out) const {
  // Generic engines: warm-up chunking through the chunk-aware MatchEngine
  // interface. The engine reads its own warm-up lead before each chunk, so
  // every chunk scan is independent — exactly the kWarmup strategy, under
  // any schedule (pre-assigned groups or demand-driven pulls).
  if (want_matches && !engine_->supports_collect()) {
    throw std::logic_error("ParallelMatcher: engine '" + std::string(engine_->name()) +
                           "' does not support match collection");
  }
  ParallelScanStats stats;
  const auto ranges = layout_chunks(text.size(), chunks, pool_.thread_count(), schedule);
  stats.chunks = ranges.size();
  if (scratch_.size() < ranges.size()) scratch_.resize(ranges.size());

  const auto scan_chunk = [&](std::size_t i) {
    ChunkResult& cr = scratch_[i];
    cr.matches.clear();  // clear() keeps capacity — reused across runs
    cr.scan = ScanResult{};
    if (want_matches) {
      cr.scan.match_count =
          engine_->collect_chunk(text, ranges[i].begin, ranges[i].end, cr.matches);
    } else {
      cr.scan.match_count = engine_->count_chunk(text, ranges[i].begin, ranges[i].end);
    }
  };
  if (ranges.size() == 1) {
    // Same placement-honesty rule as the kernel path: scan on the calling
    // thread unless workers are pinned.
    if (pool_.has_worker_init()) {
      pool_.submit([&] { scan_chunk(0); }).get();
    } else {
      scan_chunk(0);
    }
  } else if (schedule != parallel::SchedulePolicy::kStatic) {
    parallel::ChunkQueue queue(ranges.size());
    pool_.parallel_pull([&](std::size_t) {
      while (const auto t = queue.take_front()) scan_chunk(*t);
    });
  } else {
    pool_.parallel_for(ranges.size(), [&](std::size_t i) { scan_chunk(i); });
  }

  for (std::size_t i = 0; i < ranges.size(); ++i) {
    stats.match_count += scratch_[i].scan.match_count;
  }
  if (want_matches && out != nullptr) {
    collect_sorted(ranges.size(), out);
  }
  return stats;
}

void ParallelMatcher::collect_sorted(std::size_t range_count, std::vector<Match>* out) const {
  std::size_t total = out->size();
  for (std::size_t i = 0; i < range_count; ++i) total += scratch_[i].matches.size();
  out->reserve(total);
  for (std::size_t i = 0; i < range_count; ++i) {
    out->insert(out->end(), scratch_[i].matches.begin(), scratch_[i].matches.end());
  }
  std::sort(out->begin(), out->end(),
            [](const Match& a, const Match& b) { return a.end < b.end; });
}

}  // namespace hetopt::automata
