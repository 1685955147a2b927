// Out-of-core fleet execution: run_fleet_paged must reproduce the in-memory
// fleet (and the sequential oracle) byte for byte while streaming the corpus
// through the bounded page cache.
#include "core/executor.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "automata/aho_corasick.hpp"
#include "automata/scanner.hpp"
#include "dna/generator.hpp"
#include "dna/paged_genome.hpp"
#include "util/fault.hpp"

namespace hetopt::core {
namespace {

[[nodiscard]] dna::PagedGenome paged_of(const std::string& text, std::size_t page_bytes,
                                        std::size_t resident) {
  dna::PagedGenomeOptions options;
  options.page_bytes = page_bytes;
  options.resident_pages = resident;
  return dna::PagedGenome(std::make_unique<dna::BufferPageSource>(text), options);
}

TEST(PagedFleet, CountsMatchTheInMemoryFleetAndTheOracle) {
  const automata::DenseDfa dfa = automata::build_aho_corasick({"GATTACA", "CCGG"});
  dna::GenomeGenerator gen;
  std::string text = gen.generate(300000, 41);
  text.replace(4096 - 3, 7, "GATTACA");  // straddles a page seam
  const std::uint64_t expected = automata::count_matches(dfa, text);

  std::vector<PoolSpec> specs(3);
  specs[0].threads = 2;
  specs[1].threads = 1;
  specs[2].threads = 3;
  specs[0].share_percent = 50.0;
  specs[1].share_percent = 20.0;
  specs[2].share_percent = 30.0;
  HeterogeneousExecutor exec(dfa, specs);
  const std::vector<double> shares{50.0, 20.0, 30.0};
  ASSERT_EQ(exec.run_fleet(text, shares, parallel::SchedulePolicy::kStatic).total_matches(),
            expected);

  for (const parallel::SchedulePolicy schedule : parallel::kAllSchedulePolicies) {
    dna::PagedGenome genome = paged_of(text, 4096, 24);
    PagedFleetOptions options;
    options.schedule = schedule;
    const ExecutionReport report = exec.run_fleet_paged(genome, shares, options);
    EXPECT_EQ(report.total_matches(), expected) << parallel::to_string(schedule);
    ASSERT_EQ(report.pools.size(), 3u);
    std::size_t bytes = 0;
    for (const PoolReport& p : report.pools) bytes += p.bytes;
    EXPECT_EQ(bytes, text.size());
    EXPECT_GT(report.total_seconds, 0.0);
  }
}

TEST(PagedFleet, ConstructedSharesOverloadAndAdaptiveSchedule) {
  const automata::DenseDfa dfa = automata::build_aho_corasick({"TTT"});
  dna::GenomeGenerator gen;
  const std::string text = gen.generate(100000, 43);
  const std::uint64_t expected = automata::count_matches(dfa, text);

  std::vector<PoolSpec> specs(2);
  specs[0].threads = 2;
  specs[1].threads = 2;
  specs[0].share_percent = 60.0;
  specs[1].share_percent = 40.0;
  HeterogeneousExecutor exec(dfa, specs);
  dna::PagedGenome genome = paged_of(text, 4096, 16);
  // No-shares overload uses the constructed share_percent values.
  EXPECT_EQ(exec.run_fleet_paged(genome).total_matches(), expected);
  // kAdaptive runs as it does in memory, steals included; the report
  // records it.
  PagedFleetOptions options;
  options.schedule = parallel::SchedulePolicy::kAdaptive;
  const ExecutionReport report = exec.run_fleet_paged(genome, {50.0, 50.0}, options);
  EXPECT_EQ(report.total_matches(), expected);
  EXPECT_EQ(report.schedule, parallel::SchedulePolicy::kAdaptive);
}

TEST(PagedFleet, PagesAreCutIntoTicketsOfAtLeast16KiB) {
  // A chunk-throw plan degrades a run only if its chunk exists, which makes
  // the ticket count observable. Four workers cut each page into four
  // tickets, or fewer where that would leave a ticket under 16 KiB; on a
  // two-page corpus, chunk 2t - 1 must exist and chunk 2t must not.
  const automata::DenseDfa dfa = automata::build_aho_corasick({"GATTACA", "CCGG"});
  dna::GenomeGenerator gen;
  const std::string corpus = gen.generate(2 * 65536, 43);
  std::vector<PoolSpec> specs(1);
  specs[0].threads = 4;
  specs[0].share_percent = 100.0;
  HeterogeneousExecutor exec(dfa, specs);
  exec.set_recovery({0.02});
  const std::vector<std::pair<std::size_t, std::size_t>> cuts{
      {65536, 4}, {49152, 3}, {32768, 2}, {32767, 1}, {4096, 1}};
  for (const auto& [page_bytes, tickets] : cuts) {
    const std::string text = corpus.substr(0, 2 * page_bytes);
    const std::uint64_t expected = automata::count_matches(dfa, text);
    for (const std::size_t chunk : {2 * tickets - 1, 2 * tickets}) {
      const util::FaultInjector injector(
          util::FaultPlan::parse("chunk-throw:chunk=" + std::to_string(chunk) + ",times=99"));
      dna::PagedGenome genome = paged_of(text, page_bytes, 8);
      const ExecutionReport report = exec.run_fleet_paged(genome);
      EXPECT_EQ(report.total_matches(), expected) << "page=" << page_bytes;
      EXPECT_EQ(report.degraded, chunk < 2 * tickets)
          << "page=" << page_bytes << " chunk=" << chunk;
    }
  }
}

TEST(PagedFleet, ZeroSharePoolsScanNothing) {
  const automata::DenseDfa dfa = automata::build_aho_corasick({"ACG"});
  dna::GenomeGenerator gen;
  const std::string text = gen.generate(60000, 47);
  std::vector<PoolSpec> specs(2);
  specs[0].threads = 2;
  specs[1].threads = 2;
  specs[0].share_percent = 100.0;
  HeterogeneousExecutor exec(dfa, specs);
  dna::PagedGenome genome = paged_of(text, 4096, 16);
  const ExecutionReport report = exec.run_fleet_paged(genome, {100.0, 0.0});
  EXPECT_EQ(report.total_matches(), automata::count_matches(dfa, text));
  ASSERT_EQ(report.pools.size(), 2u);
  EXPECT_EQ(report.pools[1].bytes, 0u);
  EXPECT_EQ(report.pools[1].matches, 0u);
}

TEST(PagedFleet, ThrowsWhenTheBudgetCannotCoverTheFleet) {
  const automata::DenseDfa dfa = automata::build_aho_corasick({"ACG"});
  dna::GenomeGenerator gen;
  const std::string text = gen.generate(60000, 53);
  std::vector<PoolSpec> specs(2);
  specs[0].threads = 3;
  specs[1].threads = 3;
  specs[0].share_percent = 50.0;
  specs[1].share_percent = 50.0;
  HeterogeneousExecutor exec(dfa, specs);
  // 6 fleet workers against a 3-page budget: concurrent backpressure could
  // deadlock, so the paged fleet must refuse up front.
  dna::PagedGenome genome = paged_of(text, 4096, 3);
  EXPECT_THROW((void)exec.run_fleet_paged(genome), std::invalid_argument);
}

}  // namespace
}  // namespace hetopt::core
