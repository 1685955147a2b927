// Page-seam parity property suite for the out-of-core scan path: every
// (page size x chunks-per-page x schedule x engine) combination must produce
// byte-identical counts and collected positions to the in-memory naive
// oracle over the same bytes — including motifs planted to straddle page
// boundaries exactly. Plus validation and telemetry behavior of the paged
// runtime. TSan-clean (runs under the `io` ctest label).
#include "automata/parallel_matcher.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "automata/aho_corasick.hpp"
#include "automata/match_engine.hpp"
#include "automata/regex.hpp"
#include "automata/scanner.hpp"
#include "automata/subset.hpp"
#include "dna/generator.hpp"

namespace hetopt::automata {
namespace {

constexpr const char* kMotif = "GATTACA";

/// Corpus with one planted motif copy straddling every multiple of
/// `seam_stride` (centered on the seam), plus background matches.
[[nodiscard]] std::string seam_text(std::size_t n, std::size_t seam_stride,
                                    std::uint64_t seed) {
  dna::GenomeGenerator gen;
  std::string text = gen.generate(n, seed);
  const std::size_t m = std::string_view(kMotif).size();
  for (std::size_t seam = seam_stride; seam + m / 2 < n; seam += seam_stride) {
    if (seam < m / 2 + 1) continue;
    text.replace(seam - m / 2 - 1, m, kMotif);  // crosses the seam off-center
  }
  return text;
}

[[nodiscard]] dna::PagedGenome paged(const std::string& text, std::size_t page_bytes,
                                     std::size_t resident, std::size_t halo = 63) {
  dna::PagedGenomeOptions options;
  options.page_bytes = page_bytes;
  options.resident_pages = resident;
  options.halo_bytes = halo;
  return dna::PagedGenome(std::make_unique<dna::BufferPageSource>(text), options);
}

class PagedScanFixture : public ::testing::Test {
 protected:
  parallel::ThreadPool pool_{4};
};

TEST_F(PagedScanFixture, SeamParityAcrossPageSizesChunksAndSchedules) {
  // Motifs planted across every page boundary of the *smallest* page size,
  // so every tested geometry has seam-straddling matches.
  const std::string text = seam_text(40000, 512, 3);
  const DenseDfa dfa = build_aho_corasick({kMotif, "TTT"});
  const std::uint64_t expected = count_matches(dfa, text);
  ASSERT_GT(expected, 70u);  // the planted seam copies are actually there
  ParallelMatcher matcher(dfa, pool_);

  for (const std::size_t page_bytes : {512u, 1024u, 4096u, 16384u}) {
    for (const std::size_t chunks_per_page : {0u, 1u, 3u}) {
      for (const parallel::SchedulePolicy schedule : parallel::kAllSchedulePolicies) {
        dna::PagedGenome genome = paged(text, page_bytes, /*resident=*/6);
        PagedScanOptions options;
        options.schedule = schedule;
        options.chunks_per_page = chunks_per_page;
        const PagedScanStats stats = matcher.count_paged(genome, options);
        EXPECT_EQ(stats.match_count, expected)
            << "page=" << page_bytes << " cpp=" << chunks_per_page
            << " sched=" << parallel::to_string(schedule);
        EXPECT_EQ(stats.bytes, text.size());
        EXPECT_EQ(stats.pages, genome.page_count());
      }
    }
  }
}

TEST_F(PagedScanFixture, CollectParityWithInMemoryOracle) {
  const std::string text = seam_text(20000, 1024, 7);
  const DenseDfa dfa = build_aho_corasick({kMotif, "ACG"});
  std::vector<Match> oracle;
  (void)scan_collect_naive(dfa, text, dfa.start(), 0, oracle);
  ParallelMatcher matcher(dfa, pool_);

  for (const std::size_t page_bytes : {1024u, 4096u}) {
    for (const parallel::SchedulePolicy schedule :
         {parallel::SchedulePolicy::kStatic, parallel::SchedulePolicy::kDynamic,
          parallel::SchedulePolicy::kGuided}) {
      dna::PagedGenome genome = paged(text, page_bytes, 5);
      PagedScanOptions options;
      options.schedule = schedule;
      std::vector<Match> collected;
      const PagedScanStats stats = matcher.collect_paged(genome, collected, options);
      EXPECT_EQ(stats.match_count, oracle.size());
      EXPECT_EQ(collected, oracle)
          << "page=" << page_bytes << " sched=" << parallel::to_string(schedule);
    }
  }
}

TEST_F(PagedScanFixture, EngineParityAcrossThePagedPath) {
  const std::string text = seam_text(30000, 2048, 11);
  const std::vector<std::string> motifs{kMotif, "TATAA"};
  const DenseDfa dfa = build_aho_corasick(motifs);
  const std::uint64_t expected = count_matches(dfa, text);

  for (const EngineKind kind : kAllEngineKinds) {
    const auto engine = try_lower(kind, motifs);
    ASSERT_NE(engine, nullptr) << to_string(kind);
    ParallelMatcher matcher(*engine, pool_);
    for (const parallel::SchedulePolicy schedule :
         {parallel::SchedulePolicy::kStatic, parallel::SchedulePolicy::kDynamic}) {
      dna::PagedGenome genome = paged(text, 2048, 6);
      PagedScanOptions options;
      options.schedule = schedule;
      const PagedScanStats stats = matcher.count_paged(genome, options);
      EXPECT_EQ(stats.match_count, expected)
          << to_string(kind) << "/" << parallel::to_string(schedule);
    }
  }
}

TEST_F(PagedScanFixture, MotifExactlyOnPageBoundary) {
  // The hardest seam: a motif whose first byte is the last byte of a page,
  // and one ending exactly on the boundary.
  const std::size_t page = 1024;
  std::string text(4 * page, 'T');
  const std::string_view m = kMotif;
  text.replace(page - 1, m.size(), m);            // starts on page 0's last byte
  text.replace(2 * page - m.size(), m.size(), m); // ends exactly at the seam
  text.replace(3 * page - m.size() / 2, m.size(), m);  // centered on the seam
  const DenseDfa dfa = build_aho_corasick({std::string(m)});
  ASSERT_EQ(count_matches(dfa, text), 3u);
  ParallelMatcher matcher(dfa, pool_);
  for (const parallel::SchedulePolicy schedule : parallel::kAllSchedulePolicies) {
    dna::PagedGenome genome = paged(text, page, 4);
    PagedScanOptions options;
    options.schedule = schedule;
    EXPECT_EQ(matcher.count_paged(genome, options).match_count, 3u)
        << parallel::to_string(schedule);
  }
}

TEST_F(PagedScanFixture, PrefetchDepthSweepKeepsParityAndReportsTelemetry) {
  const std::string text = seam_text(60000, 4096, 13);
  const DenseDfa dfa = build_aho_corasick({kMotif});
  const std::uint64_t expected = count_matches(dfa, text);
  ParallelMatcher matcher(dfa, pool_);
  for (const std::size_t depth : {0u, 1u, 2u, 4u}) {
    dna::PagedGenome genome = paged(text, 2048, /*resident=*/12);
    PagedScanOptions options;
    options.prefetch_depth = depth;
    const PagedScanStats stats = matcher.count_paged(genome, options);
    EXPECT_EQ(stats.match_count, expected) << "depth=" << depth;
    EXPECT_EQ(stats.prefetch_depth, depth);  // budget 12 - 4 workers - 2 >= 4
    // Roughly one load per page: the frontier-chasing reader must not
    // re-load the corpus behind fast consumers (that would double IO).
    EXPECT_GE(stats.cache.loads, genome.page_count());
    EXPECT_LT(stats.cache.loads, 2 * genome.page_count());
    // One cold stall per demand load at most: workers queued behind a load
    // already in flight are waiter stalls, not extra cold stalls.
    EXPECT_LE(stats.cache.cold_stalls, stats.cache.loads);
    if (depth == 0) {
      // No prefetch thread: every load is a cold consumer stall.
      EXPECT_EQ(stats.cache.cold_stalls, stats.cache.loads);
      EXPECT_EQ(stats.prefetch.pages_prefetched, 0u);
    }
    const double overlap = stats.overlap_efficiency();
    EXPECT_GE(overlap, 0.0);
    EXPECT_LE(overlap, 1.0);
  }
}

TEST_F(PagedScanFixture, PageRangeRestrictsTheScan) {
  const std::string text = seam_text(16384, 2048, 17);
  const DenseDfa dfa = build_aho_corasick({kMotif});
  ParallelMatcher matcher(dfa, pool_);
  dna::PagedGenome genome = paged(text, 2048, 6);
  PagedScanOptions options;
  options.first_page = 2;
  options.last_page = 5;
  const PagedScanStats stats = matcher.count_paged(genome, options);
  EXPECT_EQ(stats.pages, 3u);
  EXPECT_EQ(stats.bytes, 3u * 2048u);
  // Parity for the sub-range: matches with end positions in (begin, end].
  const std::uint64_t whole_to_5 =
      count_matches(dfa, text.substr(0, 5 * 2048));
  const std::uint64_t whole_to_2 = count_matches(dfa, text.substr(0, 2 * 2048));
  EXPECT_EQ(stats.match_count, whole_to_5 - whole_to_2);
}

TEST_F(PagedScanFixture, ValidatesHaloBudgetAndBound) {
  const std::string text = seam_text(8192, 2048, 19);
  const DenseDfa dfa = build_aho_corasick({kMotif});  // bound 7, needs halo >= 6
  ParallelMatcher matcher(dfa, pool_);
  {
    dna::PagedGenome thin = paged(text, 2048, 6, /*halo=*/3);
    EXPECT_THROW((void)matcher.count_paged(thin), std::invalid_argument);
  }
  {
    // Budget below the pool's worker count could deadlock on backpressure.
    dna::PagedGenome tight = paged(text, 2048, 2);
    EXPECT_THROW((void)matcher.count_paged(tight), std::invalid_argument);
  }
  {
    // A halo of exactly bound-1 is enough.
    dna::PagedGenome exact = paged(text, 2048, 6, /*halo=*/6);
    EXPECT_EQ(matcher.count_paged(exact).match_count, count_matches(dfa, text));
  }
  {
    // Unbounded operators have no synchronization bound: the per-chunk
    // warm-up out of the halo is impossible, so streaming must refuse.
    const auto compiled = compile_motifs({"GC(A)*GC"});
    const DenseDfa unbounded = determinize(compiled.nfa, compiled.synchronization_bound);
    ASSERT_EQ(unbounded.synchronization_bound(), 0u);
    ParallelMatcher streaming(unbounded, pool_);
    dna::PagedGenome genome = paged(text, 2048, 6);
    EXPECT_THROW((void)streaming.count_paged(genome), std::invalid_argument);
  }
}

TEST_F(PagedScanFixture, PinBudgetTightensTheResidentLimit) {
  const std::string text = seam_text(16384, 2048, 31);
  const DenseDfa dfa = build_aho_corasick({kMotif});
  ParallelMatcher matcher(dfa, pool_);
  dna::PagedGenome genome = paged(text, 2048, 8);
  PagedScanOptions options;
  options.pin_budget = 3;  // below the pool's 4 workers
  EXPECT_THROW((void)matcher.count_paged(genome, options), std::invalid_argument);
  options.pin_budget = 4;  // exactly the workers: legal, but no prefetch room
  options.prefetch_depth = 4;
  const PagedScanStats stats = matcher.count_paged(genome, options);
  EXPECT_EQ(stats.match_count, count_matches(dfa, text));
  EXPECT_EQ(stats.prefetch_depth, 0u);  // clamped: 4 - workers - 2 < 0
}

TEST_F(PagedScanFixture, EmptyRangeReturnsEmptyStats) {
  const std::string text = seam_text(8192, 2048, 23);
  const DenseDfa dfa = build_aho_corasick({kMotif});
  ParallelMatcher matcher(dfa, pool_);
  dna::PagedGenome genome = paged(text, 2048, 6);
  PagedScanOptions options;
  options.first_page = 3;
  options.last_page = 3;
  const PagedScanStats stats = matcher.count_paged(genome, options);
  EXPECT_EQ(stats.match_count, 0u);
  EXPECT_EQ(stats.pages, 0u);
  EXPECT_EQ(stats.chunks, 0u);
}

TEST_F(PagedScanFixture, RepeatedRunsReuseWarmPages) {
  const std::string text = seam_text(16384, 2048, 29);
  const DenseDfa dfa = build_aho_corasick({kMotif});
  ParallelMatcher matcher(dfa, pool_);
  // Budget covers the whole corpus: the second run must be all hits.
  dna::PagedGenome genome = paged(text, 2048, 8);
  const std::uint64_t expected = count_matches(dfa, text);
  PagedScanOptions options;
  options.prefetch_depth = 0;
  EXPECT_EQ(matcher.count_paged(genome, options).match_count, expected);
  const PagedScanStats warm = matcher.count_paged(genome, options);
  EXPECT_EQ(warm.match_count, expected);
  EXPECT_EQ(warm.cache.loads, 0u);
  EXPECT_EQ(warm.cache.cold_stalls, 0u);
  // Every acquire is a hit; several workers may re-acquire the same page.
  EXPECT_GE(warm.cache.hits, genome.page_count());
  EXPECT_DOUBLE_EQ(warm.overlap_efficiency(), 1.0);
}

}  // namespace
}  // namespace hetopt::automata
