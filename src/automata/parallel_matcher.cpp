#include "automata/parallel_matcher.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "automata/compiled_dfa.hpp"
#include "parallel/chunk_queue.hpp"

namespace hetopt::automata {

namespace {

[[nodiscard]] std::unique_ptr<const MatchEngine> validated_engine(const DenseDfa& dfa) {
  const std::string err = dfa.validate();
  if (!err.empty()) throw std::invalid_argument("ParallelMatcher: " + err);
  return std::make_unique<DenseDfaEngine>(EngineKind::kCompiledDfa, dfa);
}

}  // namespace

ParallelMatcher::ParallelMatcher(const DenseDfa& dfa, parallel::ThreadPool& pool)
    : owned_engine_(validated_engine(dfa)), engine_(owned_engine_.get()), pool_(pool) {}

ParallelMatcher::ParallelMatcher(const MatchEngine& engine, parallel::ThreadPool& pool)
    : engine_(&engine), pool_(pool) {
  if (engine.synchronization_bound() == 0 && engine.kernel() == nullptr) {
    throw std::invalid_argument("ParallelMatcher: engine '" + std::string(engine.name()) +
                                "' has no synchronization bound and no DFA; "
                                "chunked scanning would be inexact");
  }
}

ParallelScanStats ParallelMatcher::count(std::string_view text, std::size_t chunks,
                                         parallel::SchedulePolicy schedule) const {
  return run(text, chunks, schedule, nullptr);
}

ParallelScanStats ParallelMatcher::collect(std::string_view text, std::size_t chunks,
                                           std::vector<Match>& out,
                                           parallel::SchedulePolicy schedule) const {
  return run(text, chunks, schedule, &out);
}

ParallelScanStats ParallelMatcher::run(std::string_view text, std::size_t chunks,
                                       parallel::SchedulePolicy schedule,
                                       std::vector<Match>* out) const {
  ParallelScanStats stats;
  if (text.empty()) return stats;
  chunks = std::max<std::size_t>(1, std::min(chunks, text.size()));
  const bool bounded = engine_->synchronization_bound() > 0;
  // Guided cuts decreasing sizes, reading `chunks` as the tail-granularity
  // hint; every other layout is an equal split.
  const auto ranges =
      bounded && schedule == parallel::SchedulePolicy::kGuided
          ? parallel::make_chunks_guided(text.size(), pool_.thread_count(),
                                         parallel::guided_min_chunk(text.size(), chunks))
          : parallel::make_chunks(text.size(), chunks);
  stats.chunks = ranges.size();
  if (scratch_.size() < ranges.size()) scratch_.resize(ranges.size());
  if (bounded) {
    for_each_ticket(ranges.size(), schedule,
                    [&](std::size_t i) { scan_chunk(i, ranges[i], text, out != nullptr); });
  } else {
    stats.rescanned_chunks = run_speculative(text, ranges, out != nullptr);
  }
  stats.match_count = gather(ranges.size(), out);
  return stats;
}

std::size_t ParallelMatcher::run_speculative(std::string_view text,
                                             const std::vector<parallel::Chunk>& ranges,
                                             bool collect) const {
  const CompiledDfa& kernel = *engine_->kernel();
  const std::size_t n = ranges.size();
  // Counting interleaves the chunks one worker would scan serially anyway
  // into one count_multi ticket; collection scans one chunk per ticket, since
  // events append per chunk.
  const std::size_t workers = pool_.thread_count();
  const std::size_t width =
      collect ? 1 : std::min((n + workers - 1) / workers, CompiledDfa::kMaxStreams);
  const auto body = [&](std::size_t i) {
    return text.substr(ranges[i].begin, ranges[i].end - ranges[i].begin);
  };
  // Scans chunk idx[j] from entries[j] for every j, `width` chunks a ticket.
  const auto scan_wave = [&](const std::vector<std::size_t>& idx,
                             const std::vector<StateId>& entries) {
    const auto scan_ticket = [&](std::size_t g) {
      const std::size_t first = g * width;
      const std::size_t m = std::min(width, idx.size() - first);
      if (m == 1) {
        const std::size_t i = idx[first];
        ChunkResult& cr = scratch_[i];
        cr.matches.clear();  // clear() keeps capacity
        cr.scan = collect ? kernel.collect(body(i), entries[first], ranges[i].begin, cr.matches)
                          : kernel.count(body(i), entries[first]);
        return;
      }
      std::string_view views[CompiledDfa::kMaxStreams];
      ScanResult res[CompiledDfa::kMaxStreams];
      for (std::size_t k = 0; k < m; ++k) views[k] = body(idx[first + k]);
      kernel.count_multi(views, entries.data() + first, res, m);
      for (std::size_t k = 0; k < m; ++k) scratch_[idx[first + k]].scan = res[k];
    };
    for_each_ticket((idx.size() + width - 1) / width, parallel::SchedulePolicy::kStatic,
                    scan_ticket);
  };

  // Phase 1: optimistic parallel scan, every chunk entered at start state.
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::vector<StateId> entries(n, kernel.start());
  scan_wave(idx, entries);
  // Phase 2: propagate true entry states and re-scan mispredicted chunks in
  // parallel waves until the propagation settles. Chunk 0's entry is always
  // correct, so the settled prefix grows every wave and the loop terminates;
  // motif automata synchronize fast enough that one wave (usually empty) is
  // the norm.
  std::vector<StateId> scanned_from(n, kernel.start());
  std::size_t rescanned = 0;
  for (;;) {
    idx.clear();
    StateId entry = kernel.start();
    for (std::size_t i = 0; i < n; ++i) {
      if (entry != scanned_from[i]) idx.push_back(i);
      entry = scratch_[i].scan.final_state;
    }
    if (idx.empty()) return rescanned;
    entries.resize(idx.size());
    for (std::size_t j = 0; j < idx.size(); ++j) {
      entries[j] = scratch_[idx[j] - 1].scan.final_state;  // idx[j] is never 0
      scanned_from[idx[j]] = entries[j];
    }
    rescanned += idx.size();
    scan_wave(idx, entries);
  }
}

void ParallelMatcher::for_each_ticket(std::size_t n, parallel::SchedulePolicy schedule,
                                      const TicketScan& scan) const {
  if (n == 1 && !pool_.has_worker_init()) {
    scan(0);
  } else if (schedule == parallel::SchedulePolicy::kStatic) {
    pool_.parallel_chunks(n, pool_.thread_count(),
                          [&](std::size_t, std::size_t lo, std::size_t hi) {
                            for (std::size_t i = lo; i < hi; ++i) scan(i);
                          });
  } else {
    parallel::ChunkQueue queue(n);
    pool_.parallel_pull([&](std::size_t) {
      while (const auto t = queue.take_front()) scan(*t);
    });
  }
}

void ParallelMatcher::scan_chunk(std::size_t i, const parallel::Chunk& c, std::string_view text,
                                 bool collect) const {
  ChunkResult& cr = scratch_[i];
  cr.matches.clear();  // clear() keeps capacity — reused across runs
  cr.scan = ScanResult{};
  cr.scan.match_count = collect ? engine_->collect_chunk(text, c.begin, c.end, cr.matches)
                                : engine_->count_chunk(text, c.begin, c.end);
}

std::uint64_t ParallelMatcher::gather(std::size_t n, std::vector<Match>* out) const {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += scratch_[i].scan.match_count;
  if (out == nullptr) return count;
  std::size_t total = out->size();
  for (std::size_t i = 0; i < n; ++i) total += scratch_[i].matches.size();
  out->reserve(total);
  for (std::size_t i = 0; i < n; ++i) {
    out->insert(out->end(), scratch_[i].matches.begin(), scratch_[i].matches.end());
  }
  std::sort(out->begin(), out->end(),
            [](const Match& a, const Match& b) { return a.end < b.end; });
  return count;
}

}  // namespace hetopt::automata
