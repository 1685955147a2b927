#include "automata/parallel_matcher.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "parallel/chunk_queue.hpp"

namespace hetopt::automata {

namespace {

[[nodiscard]] std::unique_ptr<const MatchEngine> validated_engine(const DenseDfa& dfa) {
  const std::string err = dfa.validate();
  if (!err.empty()) throw std::invalid_argument("ParallelMatcher: " + err);
  return std::make_unique<DenseDfaEngine>(dfa);
}

}  // namespace

ParallelMatcher::ParallelMatcher(const DenseDfa& dfa, parallel::ThreadPool& pool)
    : owned_engine_(validated_engine(dfa)), engine_(owned_engine_.get()), pool_(pool) {}

ParallelMatcher::ParallelMatcher(const MatchEngine& engine, parallel::ThreadPool& pool)
    : engine_(&engine), pool_(pool) {
  if (engine.synchronization_bound() == 0) {
    throw std::invalid_argument("ParallelMatcher: engine '" + std::string(engine.name()) +
                                "' has no synchronization bound; "
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
  // Guided cuts decreasing sizes, reading `chunks` as the tail-granularity
  // hint; every other layout is an equal split.
  const auto ranges =
      schedule == parallel::SchedulePolicy::kGuided
          ? parallel::make_chunks_guided(text.size(), pool_.thread_count(),
                                         parallel::guided_min_chunk(text.size(), chunks))
          : parallel::make_chunks(text.size(), chunks);
  stats.chunks = ranges.size();
  if (scratch_.size() < ranges.size()) scratch_.resize(ranges.size());
  for_each_ticket(ranges.size(), schedule,
                  [&](std::size_t i) { scan_chunk(i, ranges[i], text, out != nullptr); });
  stats.match_count = gather(ranges.size(), out);
  return stats;
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
  cr.match_count = collect ? engine_->collect_chunk(text, c.begin, c.end, cr.matches)
                           : engine_->count_chunk(text, c.begin, c.end);
}

std::uint64_t ParallelMatcher::gather(std::size_t n, std::vector<Match>* out) const {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += scratch_[i].match_count;
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
