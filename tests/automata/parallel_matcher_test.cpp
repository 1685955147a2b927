// Property tests for the PaREM-style chunk-parallel matcher: for every
// schedule and chunk count, the warmed-up parallel result must be
// byte-identical to a sequential scan.
#include "automata/parallel_matcher.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "automata/aho_corasick.hpp"
#include "automata/match_engine.hpp"
#include "automata/regex.hpp"
#include "automata/subset.hpp"
#include "dna/generator.hpp"

namespace hetopt::automata {
namespace {

class ParallelMatcherFixture : public ::testing::Test {
 protected:
  parallel::ThreadPool pool_{8};
  dna::GenomeGenerator gen_;
};

TEST_F(ParallelMatcherFixture, WarmupMatchesSequentialCounts) {
  const DenseDfa dfa = build_aho_corasick({"GATTACA", "TTT"});
  const std::string text = gen_.generate(100000, 5);
  const std::uint64_t expected = count_matches(dfa, text);
  ParallelMatcher matcher(dfa, pool_);
  for (std::size_t chunks : {1u, 2u, 3u, 8u, 17u, 64u}) {
    const auto stats = matcher.count(text, chunks);
    EXPECT_EQ(stats.match_count, expected) << "chunks=" << chunks;
    EXPECT_EQ(stats.chunks, chunks);
  }
}

TEST_F(ParallelMatcherFixture, CollectReturnsSortedIdenticalEvents) {
  const DenseDfa dfa = build_aho_corasick({"ACG", "CGT", "TT"});
  const std::string text = gen_.generate(30000, 11);
  std::vector<Match> sequential;
  (void)scan_collect(dfa, text, dfa.start(), 0, sequential);

  ParallelMatcher matcher(dfa, pool_);
  std::vector<Match> par;
  (void)matcher.collect(text, 13, par);
  EXPECT_EQ(par, sequential);
}

TEST_F(ParallelMatcherFixture, MatchSpanningChunkBoundaryIsCounted) {
  // Construct a text whose only match straddles the cut between two chunks.
  const DenseDfa dfa = build_aho_corasick({"ACGTACGT"});
  std::string text(1000, 'T');
  text.replace(496, 8, "ACGTACGT");  // crosses the 500-byte midpoint
  ParallelMatcher matcher(dfa, pool_);
  EXPECT_EQ(matcher.count(text, 2).match_count, 1u);
}

TEST_F(ParallelMatcherFixture, EmptyTextYieldsNothing) {
  const DenseDfa dfa = build_aho_corasick({"AC"});
  ParallelMatcher matcher(dfa, pool_);
  const auto stats = matcher.count("", 8);
  EXPECT_EQ(stats.match_count, 0u);
  EXPECT_EQ(stats.chunks, 0u);
}

TEST_F(ParallelMatcherFixture, MoreChunksThanBytesClamps) {
  const DenseDfa dfa = build_aho_corasick({"A"});
  ParallelMatcher matcher(dfa, pool_);
  const auto stats = matcher.count("AAA", 100);
  EXPECT_EQ(stats.match_count, 3u);
  EXPECT_LE(stats.chunks, 3u);
}

TEST_F(ParallelMatcherFixture, EverySchedulePolicyMatchesSequentialCounts) {
  // Cross-policy parity: static, dynamic, guided and adaptive must count
  // byte-identically, including a motif planted across a chunk boundary.
  const auto compiled = compile_motifs({"TATAWAW", "GGGCGG", "ACGTACGT"});
  const DenseDfa dfa = determinize(compiled.nfa, compiled.synchronization_bound);
  std::string text = gen_.generate(80000, 21);
  text.replace(text.size() / 2 - 4, 8, "ACGTACGT");  // straddles the midpoint cut
  const std::uint64_t expected = count_matches(dfa, text);
  ParallelMatcher matcher(dfa, pool_);
  for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
    for (std::size_t chunks : {1u, 2u, 8u, 17u, 64u}) {
      const auto stats = matcher.count(text, chunks, policy);
      EXPECT_EQ(stats.match_count, expected)
          << "policy=" << parallel::to_string(policy) << " chunks=" << chunks;
    }
  }
}

TEST_F(ParallelMatcherFixture, EverySchedulePolicyCollectsIdenticalEvents) {
  const DenseDfa dfa = build_aho_corasick({"ACG", "CGT", "TT"});
  const std::string text = gen_.generate(30000, 13);
  std::vector<Match> sequential;
  (void)scan_collect(dfa, text, dfa.start(), 0, sequential);
  ParallelMatcher matcher(dfa, pool_);
  for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
    std::vector<Match> par;
    (void)matcher.collect(text, 13, par, policy);
    EXPECT_EQ(par, sequential) << "policy=" << parallel::to_string(policy);
  }
}

TEST_F(ParallelMatcherFixture, DemandDrivenMultiStreamCountsExactly) {
  // Many more tickets than workers under pull scheduling: every claim scans
  // one chunk, warmed up on its own lead.
  const DenseDfa dfa = build_aho_corasick({"GATTACA", "TTT"});
  const std::string text = gen_.generate(120000, 17);
  const std::uint64_t expected = count_matches(dfa, text);
  ParallelMatcher matcher(dfa, pool_);
  EXPECT_EQ(matcher.count(text, 64, parallel::SchedulePolicy::kDynamic).match_count,
            expected);
}

TEST_F(ParallelMatcherFixture, GuidedScheduleUsesDecreasingChunks) {
  const DenseDfa dfa = build_aho_corasick({"ACGT"});
  const std::string text = gen_.generate(50000, 29);
  ParallelMatcher matcher(dfa, pool_);
  const auto stats = matcher.count(text, 8, parallel::SchedulePolicy::kGuided);
  // Guided re-cuts the input (tail granularity ~ total/(4*chunks)), so it
  // produces more, finer chunks than the equal split would.
  EXPECT_GT(stats.chunks, 8u);
  EXPECT_EQ(stats.match_count, count_matches(dfa, text));
}

TEST_F(ParallelMatcherFixture, WarmupIsExactWhereEveryBoundaryIsMidPattern) {
  // Every chunk boundary sits mid-pattern: each chunk's warm-up over the
  // bytes before it must still enter at the true state, under every schedule.
  const DenseDfa dfa = build_aho_corasick({"AAAAAAAA"});
  const std::string text(64, 'A');
  ParallelMatcher matcher(dfa, pool_);
  for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
    for (const std::size_t chunks : {8u, 32u}) {
      EXPECT_EQ(matcher.count(text, chunks, policy).match_count, 64u - 8u + 1u)
          << parallel::to_string(policy) << " chunks=" << chunks;
    }
  }
}

TEST_F(ParallelMatcherFixture, AutomatonWithoutABoundIsRejected) {
  // The warm-up is the only way a scan enters a chunk, so the bound is a
  // construction invariant.
  DenseDfa dfa = build_aho_corasick({"GATTACA"});
  dfa.set_synchronization_bound(0);
  EXPECT_THROW(ParallelMatcher(dfa, pool_), std::invalid_argument);
  const auto compiled = compile_motifs({"TATAWAW"});
  EXPECT_THROW(ParallelMatcher(determinize(compiled.nfa), pool_), std::invalid_argument);
}

/// Runs `scan` and expects std::invalid_argument naming the bad base 'N'.
template <typename Scan>
void expect_invalid_base(const Scan& scan, const std::string& where) {
  try {
    scan();
    ADD_FAILURE() << where << ": no exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("invalid base 'N'"), std::string::npos)
        << where << ": " << e.what();
  }
}

TEST(ParallelMatcherErrors, InvalidByteThrowsOnEveryPath) {
  // One non-ACGT byte deep inside the text surfaces from every scan path —
  // count and collect, every engine and schedule — and leaves the matcher
  // usable. The paged paths are the executor's (PagedScanErrors).
  parallel::ThreadPool pool(4);
  const std::vector<std::string> motifs{"GATTACA", "CCGG"};
  std::string text = dna::GenomeGenerator{}.generate(40000, 41);
  text[25000] = 'N';
  const std::string_view clean_text = std::string_view(text).substr(0, 24000);
  for (const EngineKind kind : kAllEngineKinds) {
    const auto engine = lower(kind, motifs);
    const ParallelMatcher matcher(*engine, pool);
    const std::uint64_t clean = engine->count(clean_text);
    for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
      const std::string where =
          std::string(engine->name()) + " " + std::string(parallel::to_string(policy));
      std::vector<Match> out;
      expect_invalid_base([&] { (void)matcher.count(text, 8, policy); }, where + " count");
      expect_invalid_base([&] { (void)matcher.collect(text, 8, out, policy); },
                          where + " collect");
      EXPECT_EQ(matcher.count(clean_text, 8, policy).match_count, clean) << where;
    }
  }
}

/// A real engine that also records how many chunk scans ran on the thread
/// that constructed it.
class RecordingEngine final : public MatchEngine {
 public:
  explicit RecordingEngine(std::unique_ptr<const MatchEngine> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] EngineKind kind() const noexcept override { return inner_->kind(); }
  [[nodiscard]] std::size_t synchronization_bound() const noexcept override {
    return inner_->synchronization_bound();
  }
  [[nodiscard]] std::size_t pattern_count() const noexcept override {
    return inner_->pattern_count();
  }
  [[nodiscard]] std::uint64_t count_chunk(std::string_view text, std::size_t begin,
                                          std::size_t end) const override {
    record();
    return inner_->count_chunk(text, begin, end);
  }
  [[nodiscard]] std::uint64_t collect_chunk(std::string_view text, std::size_t begin,
                                            std::size_t end,
                                            std::vector<Match>& out) const override {
    record();
    return inner_->collect_chunk(text, begin, end, out);
  }

  [[nodiscard]] std::size_t scans() const noexcept { return scans_.load(); }
  [[nodiscard]] std::size_t caller_scans() const noexcept { return caller_scans_.load(); }

 private:
  void record() const noexcept {
    scans_.fetch_add(1, std::memory_order_relaxed);
    if (std::this_thread::get_id() == caller_) {
      caller_scans_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::unique_ptr<const MatchEngine> inner_;
  std::thread::id caller_ = std::this_thread::get_id();
  mutable std::atomic<std::size_t> scans_{0};
  mutable std::atomic<std::size_t> caller_scans_{0};
};

TEST(ParallelMatcherPlacement, PinnedWorkersScanEvenALoneTicket) {
  // A pool with a WorkerInit hook (pinned workers) runs every scan on its
  // workers, even a lone ticket; measurements price that placement. An
  // unpinned pool scans a lone ticket on the calling thread instead.
  const std::vector<std::string> motifs{"GATTACA", "TTT"};
  const std::string text = dna::GenomeGenerator{}.generate(4096, 43);
  const std::uint64_t expected = lower(EngineKind::kCompiledDfa, motifs)->count(text);

  parallel::ThreadPool pinned(2, [](std::size_t) {});
  const RecordingEngine engine(lower(EngineKind::kCompiledDfa, motifs));
  const ParallelMatcher matcher(engine, pinned);
  for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
    EXPECT_EQ(matcher.count(text, 1, policy).match_count, expected);
    std::vector<Match> out;
    EXPECT_EQ(matcher.collect(text, 1, out, policy).match_count, expected);
  }
  EXPECT_GT(engine.scans(), 0u);
  EXPECT_EQ(engine.caller_scans(), 0u);

  parallel::ThreadPool unpinned(2);
  const RecordingEngine free_engine(lower(EngineKind::kCompiledDfa, motifs));
  const ParallelMatcher free_matcher(free_engine, unpinned);
  const ParallelScanStats stats =
      free_matcher.count(text, 1, parallel::SchedulePolicy::kDynamic);
  EXPECT_EQ(stats.chunks, 1u);
  EXPECT_EQ(stats.match_count, expected);
  EXPECT_EQ(free_engine.caller_scans(), 1u);
}

/// Exhaustive sweep: chunk count x several seeds, mixed motif set with IUPAC
/// classes via subset construction.
struct SweepParam {
  std::uint64_t seed;
  std::size_t chunks;
};

class MatcherSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(MatcherSweep, ParallelEqualsSequential) {
  const auto [seed, chunks] = GetParam();
  parallel::ThreadPool pool(4);
  const auto compiled = compile_motifs({"TATAWAW", "GGN?CC", "ACGT"});
  const DenseDfa dfa = determinize(compiled.nfa, compiled.synchronization_bound);
  const dna::GenomeGenerator gen;
  const std::string text = gen.generate(20000 + 137 * seed, seed);
  const std::uint64_t expected = count_matches(dfa, text);
  ParallelMatcher matcher(dfa, pool);
  EXPECT_EQ(matcher.count(text, chunks).match_count, expected);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndChunks, MatcherSweep,
    ::testing::Values(SweepParam{1, 1}, SweepParam{1, 4}, SweepParam{2, 7},
                      SweepParam{3, 16}, SweepParam{4, 33}, SweepParam{5, 64},
                      SweepParam{6, 5}, SweepParam{7, 12}));

}  // namespace
}  // namespace hetopt::automata
