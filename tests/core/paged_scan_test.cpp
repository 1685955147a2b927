// Page-seam parity property suite for the out-of-core fleet scan: every
// (page size x fleet shape x schedule x engine) combination must produce
// byte-identical counts and collected positions to the in-memory naive
// oracle over the same bytes — including motifs planted to straddle page
// boundaries exactly. Plus validation and telemetry behavior of the paged
// run. TSan-clean (runs under the `io` ctest label).
#include "core/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "automata/aho_corasick.hpp"
#include "automata/match_engine.hpp"
#include "automata/scanner.hpp"
#include "dna/generator.hpp"

namespace hetopt::core {
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

/// A fleet with the given worker count per pool and equal shares.
[[nodiscard]] std::vector<PoolSpec> fleet(const std::vector<std::size_t>& threads) {
  std::vector<PoolSpec> specs(threads.size());
  for (std::size_t i = 0; i < threads.size(); ++i) {
    specs[i].threads = threads[i];
    specs[i].share_percent = 100.0 / static_cast<double>(threads.size());
  }
  return specs;
}

[[nodiscard]] std::vector<double> shares_of(const HeterogeneousExecutor& exec) {
  std::vector<double> shares;
  for (const PoolSpec& spec : exec.pools()) shares.push_back(spec.share_percent);
  return shares;
}

[[nodiscard]] PagedFleetOptions with(parallel::SchedulePolicy schedule,
                                     std::size_t prefetch_depth = 2) {
  PagedFleetOptions options;
  options.schedule = schedule;
  options.prefetch_depth = prefetch_depth;
  return options;
}

/// One to three pools, with worker counts that cut each page differently.
const std::vector<std::vector<std::size_t>> kFleets{{4}, {1}, {3, 1}, {1, 2, 3}};

[[nodiscard]] std::string fleet_name(const std::vector<std::size_t>& threads) {
  std::string name;
  for (const std::size_t t : threads) name += (name.empty() ? "" : "+") + std::to_string(t);
  return name;
}

TEST(PagedScanFixture, SeamParityAcrossPageSizesFleetsAndSchedules) {
  // Motifs planted across every page boundary of the *smallest* page size,
  // so every tested geometry has seam-straddling matches.
  const std::string text = seam_text(40000, 512, 3);
  const automata::DenseDfa dfa = automata::build_aho_corasick({kMotif, "TTT"});
  const std::uint64_t expected = automata::count_matches(dfa, text);
  ASSERT_GT(expected, 70u);  // the planted seam copies are actually there

  for (const auto& threads : kFleets) {
    HeterogeneousExecutor exec(dfa, fleet(threads));
    for (const std::size_t page_bytes : {512u, 1024u, 4096u, 16384u}) {
      for (const parallel::SchedulePolicy schedule : parallel::kAllSchedulePolicies) {
        dna::PagedGenome genome = paged(text, page_bytes, /*resident=*/16);
        const ExecutionReport report = exec.run_fleet_paged(genome, with(schedule));
        EXPECT_EQ(report.total_matches(), expected)
            << "page=" << page_bytes << " fleet=" << fleet_name(threads)
            << " sched=" << parallel::to_string(schedule);
        std::size_t bytes = 0;
        for (const PoolReport& pool : report.pools) bytes += pool.bytes;
        EXPECT_EQ(bytes, text.size());
        EXPECT_EQ(report.schedule, schedule);
      }
    }
  }
}

TEST(PagedScanFixture, CollectParityWithInMemoryOracle) {
  const std::string text = seam_text(20000, 512, 7);
  const automata::DenseDfa dfa = automata::build_aho_corasick({kMotif, "ACG"});
  std::vector<automata::Match> oracle;
  (void)automata::scan_collect_naive(dfa, text, dfa.start(), 0, oracle);

  for (const auto& threads : kFleets) {
    HeterogeneousExecutor exec(dfa, fleet(threads));
    for (const std::size_t page_bytes : {512u, 1024u, 4096u}) {
      for (const parallel::SchedulePolicy schedule : parallel::kAllSchedulePolicies) {
        dna::PagedGenome genome = paged(text, page_bytes, 16);
        std::vector<automata::Match> collected;
        const ExecutionReport report =
            exec.collect_fleet(genome, shares_of(exec), with(schedule), collected);
        EXPECT_EQ(report.total_matches(), oracle.size());
        EXPECT_EQ(collected, oracle)
            << "page=" << page_bytes << " fleet=" << fleet_name(threads)
            << " sched=" << parallel::to_string(schedule);
      }
    }
  }
}

TEST(PagedScanFixture, EngineParityAcrossThePagedPath) {
  const std::string text = seam_text(30000, 2048, 11);
  const std::vector<std::string> motifs{kMotif, "TATAA"};
  const std::uint64_t expected =
      automata::count_matches(automata::build_aho_corasick(motifs), text);

  for (const automata::EngineKind kind : automata::kAllEngineKinds) {
    const auto engine = automata::try_lower(kind, motifs);
    ASSERT_NE(engine, nullptr) << automata::to_string(kind);
    HeterogeneousExecutor exec(*engine, fleet({2, 2}));
    for (const parallel::SchedulePolicy schedule : parallel::kAllSchedulePolicies) {
      dna::PagedGenome genome = paged(text, 2048, 16);
      EXPECT_EQ(exec.run_fleet_paged(genome, with(schedule)).total_matches(), expected)
          << automata::to_string(kind) << "/" << parallel::to_string(schedule);
    }
  }
}

TEST(PagedScanFixture, MotifExactlyOnPageBoundary) {
  // The hardest seam: a motif whose first byte is the last byte of a page,
  // and one ending exactly on the boundary.
  const std::size_t page = 1024;
  std::string text(4 * page, 'T');
  const std::string_view m = kMotif;
  text.replace(page - 1, m.size(), m);            // starts on page 0's last byte
  text.replace(2 * page - m.size(), m.size(), m); // ends exactly at the seam
  text.replace(3 * page - m.size() / 2, m.size(), m);  // centered on the seam
  const automata::DenseDfa dfa = automata::build_aho_corasick({std::string(m)});
  ASSERT_EQ(automata::count_matches(dfa, text), 3u);
  for (const auto& threads : kFleets) {
    HeterogeneousExecutor exec(dfa, fleet(threads));
    for (const parallel::SchedulePolicy schedule : parallel::kAllSchedulePolicies) {
      dna::PagedGenome genome = paged(text, page, 8);
      EXPECT_EQ(exec.run_fleet_paged(genome, with(schedule)).total_matches(), 3u)
          << fleet_name(threads) << " " << parallel::to_string(schedule);
    }
  }
}

TEST(PagedScanFixture, PrefetchDepthSweepKeepsParityAndReportsTelemetry) {
  const std::string text = seam_text(60000, 4096, 13);
  const automata::DenseDfa dfa = automata::build_aho_corasick({kMotif});
  const std::uint64_t expected = automata::count_matches(dfa, text);
  HeterogeneousExecutor exec(dfa, fleet({4}));
  for (const std::size_t depth : {0u, 1u, 2u, 4u}) {
    dna::PagedGenome genome = paged(text, 2048, /*resident=*/12);
    const ExecutionReport report =
        exec.run_fleet_paged(genome, with(parallel::SchedulePolicy::kStatic, depth));
    EXPECT_EQ(report.total_matches(), expected) << "depth=" << depth;
    EXPECT_EQ(report.prefetch_depth, depth);  // budget 12 - 4 workers - 2 >= 4
    const dna::CacheStats cache = genome.stats();
    // Roughly one load per page: the frontier-chasing reader must not
    // re-load the corpus behind fast consumers (that would double IO).
    EXPECT_GE(cache.loads, genome.page_count());
    EXPECT_LT(cache.loads, 2 * genome.page_count());
    // One cold stall per demand load at most: workers queued behind a load
    // already in flight are waiter stalls, not extra cold stalls.
    EXPECT_LE(cache.cold_stalls, cache.loads);
    if (depth == 0) {
      // No prefetch thread: every load is a cold consumer stall.
      EXPECT_EQ(cache.cold_stalls, cache.loads);
      EXPECT_EQ(report.prefetch.pages_prefetched, 0u);
    }
    const double overlap = cache.overlap_efficiency();
    EXPECT_GE(overlap, 0.0);
    EXPECT_LE(overlap, 1.0);
  }
  // In memory there is no reader to report.
  const ExecutionReport memory = exec.run_fleet(text);
  EXPECT_EQ(memory.prefetch_depth, 0u);
  EXPECT_EQ(memory.prefetch.pages_prefetched, 0u);
}

TEST(PagedScanFixture, ShareCutGivesEveryPoolItsOwnPages) {
  const std::size_t page = 2048;
  const std::string text = seam_text(8 * page, page, 17);
  const automata::DenseDfa dfa = automata::build_aho_corasick({kMotif});
  HeterogeneousExecutor exec(dfa, fleet({2, 1, 2}));
  dna::PagedGenome genome = paged(text, page, 12);
  // 25% and 62.5% cumulative of 8 pages: pages [0,2), [2,5) and [5,8).
  const ExecutionReport report = exec.run_fleet_paged(genome, {25.0, 37.5, 37.5});
  const std::size_t first_page[] = {0, 2, 5, 8};
  for (std::size_t i = 0; i < 3; ++i) {
    const std::size_t begin = first_page[i] * page;
    const std::size_t end = first_page[i + 1] * page;
    EXPECT_EQ(report.pools[i].bytes, end - begin) << "pool " << i;
    // The pool counts exactly the matches that end inside its pages.
    EXPECT_EQ(report.pools[i].matches,
              automata::count_matches(dfa, text.substr(0, end)) -
                  automata::count_matches(dfa, text.substr(0, begin)))
        << "pool " << i;
    EXPECT_EQ(report.pools[i].steals, 0u);
  }
}

TEST(PagedScanFixture, ValidatesHaloBudgetAndBound) {
  const std::string text = seam_text(8192, 2048, 19);
  const automata::DenseDfa dfa = automata::build_aho_corasick({kMotif});  // bound 7
  HeterogeneousExecutor exec(dfa, fleet({4}));
  {
    dna::PagedGenome thin = paged(text, 2048, 6, /*halo=*/3);
    EXPECT_THROW((void)exec.run_fleet_paged(thin), std::invalid_argument);
  }
  {
    // Budget below the fleet's worker count could deadlock on backpressure.
    dna::PagedGenome tight = paged(text, 2048, 2);
    EXPECT_THROW((void)exec.run_fleet_paged(tight), std::invalid_argument);
  }
  {
    // A halo of exactly bound-1 is enough.
    dna::PagedGenome exact = paged(text, 2048, 6, /*halo=*/6);
    EXPECT_EQ(exec.run_fleet_paged(exact).total_matches(), automata::count_matches(dfa, text));
  }
}

TEST(PagedScanFixture, ResidentEqualToFleetWorkersIsLegalAtDepthZero) {
  const std::string text = seam_text(16384, 2048, 31);
  const automata::DenseDfa dfa = automata::build_aho_corasick({kMotif});
  HeterogeneousExecutor exec(dfa, fleet({2, 2}));
  dna::PagedGenome short_budget = paged(text, 2048, 3);  // below the fleet's 4 workers
  EXPECT_THROW((void)exec.run_fleet_paged(short_budget), std::invalid_argument);
  dna::PagedGenome genome = paged(text, 2048, 4);  // exactly the workers: no prefetch room
  const ExecutionReport report =
      exec.run_fleet_paged(genome, with(parallel::SchedulePolicy::kStatic, 4));
  EXPECT_EQ(report.total_matches(), automata::count_matches(dfa, text));
  EXPECT_EQ(report.prefetch_depth, 0u);  // clamped: 4 - 4 workers - 2 < 0
  EXPECT_EQ(report.prefetch.pages_prefetched, 0u);
}

TEST(PagedScanFixture, EmptyGenomeReturnsAnEmptyReport) {
  const automata::DenseDfa dfa = automata::build_aho_corasick({kMotif});
  HeterogeneousExecutor exec(dfa, fleet({2, 2}));
  dna::PagedGenome genome = paged("", 2048, 6);
  for (const parallel::SchedulePolicy schedule : parallel::kAllSchedulePolicies) {
    const ExecutionReport report = exec.run_fleet_paged(genome, with(schedule));
    EXPECT_EQ(report.total_matches(), 0u);
    EXPECT_EQ(report.pools[0].bytes + report.pools[1].bytes, 0u);
    EXPECT_EQ(report.prefetch_depth, 0u);
  }
}

TEST(PagedScanFixture, RepeatedRunsReuseWarmPages) {
  const std::string text = seam_text(16384, 2048, 29);
  const automata::DenseDfa dfa = automata::build_aho_corasick({kMotif});
  HeterogeneousExecutor exec(dfa, fleet({4}));
  // Budget covers the whole corpus: the second run must be all hits.
  dna::PagedGenome genome = paged(text, 2048, 8);
  const std::uint64_t expected = automata::count_matches(dfa, text);
  const PagedFleetOptions options = with(parallel::SchedulePolicy::kStatic, 0);
  EXPECT_EQ(exec.run_fleet_paged(genome, options).total_matches(), expected);
  genome.reset_stats();
  EXPECT_EQ(exec.run_fleet_paged(genome, options).total_matches(), expected);
  const dna::CacheStats warm = genome.stats();
  EXPECT_EQ(warm.loads, 0u);
  EXPECT_EQ(warm.cold_stalls, 0u);
  // Every acquire is a hit; several workers may re-acquire the same page.
  EXPECT_GE(warm.hits, genome.page_count());
  EXPECT_DOUBLE_EQ(warm.overlap_efficiency(), 1.0);
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

TEST(PagedScanErrors, InvalidByteThrowsOnEveryPath) {
  // One non-ACGT byte deep inside the corpus surfaces from every paged run —
  // count and collect, every engine and schedule — and leaves the executor
  // usable with its prefetch readers joined.
  const std::vector<std::string> motifs{"GATTACA", "CCGG"};
  std::string text = dna::GenomeGenerator{}.generate(40000, 41);
  text[25000] = 'N';
  constexpr std::size_t kPage = 4096;
  const std::string clean_text = text.substr(0, 25000 / kPage * kPage);
  for (const automata::EngineKind kind : automata::kAllEngineKinds) {
    const auto engine = automata::lower(kind, motifs);
    HeterogeneousExecutor exec(*engine, fleet({4}));
    const std::uint64_t clean = engine->count(clean_text);
    for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
      const std::string where =
          std::string(engine->name()) + " " + std::string(parallel::to_string(policy));
      // 8 resident pages leave the 4 workers room for a ring of 2.
      dna::PagedGenome genome = paged(text, kPage, 8);
      std::vector<automata::Match> out;
      expect_invalid_base([&] { (void)exec.run_fleet_paged(genome, with(policy)); },
                          where + " run_fleet_paged");
      expect_invalid_base([&] { (void)exec.collect_fleet(genome, {100.0}, with(policy), out); },
                          where + " collect_fleet");
      dna::PagedGenome clean_genome = paged(clean_text, kPage, 8);
      const ExecutionReport report = exec.run_fleet_paged(clean_genome, with(policy));
      EXPECT_EQ(report.prefetch_depth, 2u) << where;
      EXPECT_EQ(report.total_matches(), clean) << where;
    }
  }
}

/// A real engine that also records how many chunk scans ran on the thread
/// that constructed it.
class RecordingEngine final : public automata::MatchEngine {
 public:
  explicit RecordingEngine(std::unique_ptr<const automata::MatchEngine> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] automata::EngineKind kind() const noexcept override { return inner_->kind(); }
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
                                            std::vector<automata::Match>& out) const override {
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

  std::unique_ptr<const automata::MatchEngine> inner_;
  std::thread::id caller_ = std::this_thread::get_id();
  mutable std::atomic<std::size_t> scans_{0};
  mutable std::atomic<std::size_t> caller_scans_{0};
};

TEST(PagedScanPlacement, EvenALoneTicketRunsOnThePoolWorkers) {
  // A one-page corpus cut into one chunk is a lone ticket; pinned or not, it
  // is scanned on the pool's workers, the placement measurements price.
  const std::vector<std::string> motifs{"GATTACA", "TTT"};
  const std::string text = dna::GenomeGenerator{}.generate(4096, 43);
  const std::uint64_t expected =
      automata::lower(automata::EngineKind::kCompiledDfa, motifs)->count(text);
  for (const bool pinned : {true, false}) {
    const RecordingEngine engine(automata::lower(automata::EngineKind::kCompiledDfa, motifs));
    std::vector<PoolSpec> specs = fleet({2});
    specs[0].chunks = 1;
    if (pinned) specs[0].host_affinity = parallel::HostAffinity::kNone;
    HeterogeneousExecutor exec(engine, specs);
    for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
      dna::PagedGenome genome = paged(text, 4096, 4);
      EXPECT_EQ(exec.run_fleet_paged(genome, with(policy)).total_matches(), expected);
    }
    EXPECT_GT(engine.scans(), 0u);
    EXPECT_EQ(engine.caller_scans(), 0u) << (pinned ? "pinned" : "unpinned");
  }
}

}  // namespace
}  // namespace hetopt::core
