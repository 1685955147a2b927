// Out-of-core fleet execution: run_fleet_paged must reproduce the in-memory
// fleet (and the sequential oracle) byte for byte while streaming the corpus
// through the bounded page cache, and RealWorkload's out_of_core mode must
// materialize, measure and clean up its on-disk fixture transparently.
#include "core/executor.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "automata/aho_corasick.hpp"
#include "automata/scanner.hpp"
#include "core/real_workload.hpp"
#include "dna/generator.hpp"
#include "dna/paged_genome.hpp"

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

// --- RealWorkload out-of-core mode -----------------------------------------

RealWorkloadOptions out_of_core_options() {
  RealWorkloadOptions options;
  options.bytes_per_logical_mb = 54.0;  // cat (2430 logical MB) -> ~128 KB
  options.min_physical_bytes = 64 * 1024;
  options.deterministic_timing = true;
  options.out_of_core = true;
  options.paged.page_bytes = 16 * 1024;  // ~8 pages: genuinely paged
  options.paged.resident_pages = 16;     // covers every fleet the tests build
  return options;
}

Workload cat() { return Workload("cat", 2430.0); }

/// Bytes the pools of a measurement's reported run scanned, summed.
std::size_t scanned_bytes(const RealMeasurement& m) {
  std::size_t bytes = 0;
  for (const PoolReport& pool : m.report.pools) bytes += pool.bytes;
  return bytes;
}

TEST(RealWorkloadOutOfCore, FixtureFileIsMaterializedAndRemoved) {
  const dna::GenomeCatalog catalog;
  std::string path;
  {
    const RealWorkload rw(catalog, cat(), out_of_core_options());
    ASSERT_TRUE(rw.out_of_core());
    path = rw.paged_path();
    ASSERT_FALSE(path.empty());
    EXPECT_TRUE(std::filesystem::exists(path));
    // The paged view serves exactly the in-memory bytes.
    dna::PagedGenome& genome = rw.paged_genome();
    EXPECT_EQ(genome.size(), rw.physical_bytes());
    std::string reassembled;
    for (std::size_t p = 0; p < genome.page_count(); ++p) {
      reassembled.append(rw.paged_genome().acquire(p).payload());
    }
    EXPECT_EQ(reassembled, rw.text());
  }
  EXPECT_FALSE(std::filesystem::exists(path));  // dtor cleans up
}

TEST(RealWorkloadOutOfCore, DefaultModeHasNoFixture) {
  const dna::GenomeCatalog catalog;
  RealWorkloadOptions options = out_of_core_options();
  options.out_of_core = false;
  const RealWorkload rw(catalog, cat(), options);
  EXPECT_FALSE(rw.out_of_core());
  EXPECT_TRUE(rw.paged_path().empty());
  EXPECT_THROW((void)rw.paged_genome(), std::logic_error);
}

TEST(RealWorkloadOutOfCore, MeasurementsStreamWithExactMatchCounts) {
  const dna::GenomeCatalog catalog;
  const RealWorkloadEvaluator evaluator(catalog, out_of_core_options());
  const std::uint64_t expected = evaluator.real(cat()).sequential_matches();
  ASSERT_GT(expected, 0u);
  for (const int host_threads : {1, 4}) {
    for (const double fraction : {0.0, 40.0, 100.0}) {
      opt::SystemConfig c;
      c.host_threads = host_threads;
      c.device_threads = 2;
      c.host_percent = fraction;
      const RealMeasurement m = evaluator.measure(c, cat());
      EXPECT_TRUE(m.valid);
      EXPECT_EQ(m.matches, expected)
          << "host_threads=" << host_threads << " fraction=" << fraction;
      EXPECT_EQ(scanned_bytes(m), evaluator.real(cat()).physical_bytes());
    }
  }
}

TEST(RealWorkloadOutOfCore, AResidentBudgetBelowTheFleetIsAConfigurationError) {
  // A 2+2-worker fleet against a 2-page budget fails the same way on every
  // attempt, so measure() throws instead of retrying and pricing the
  // candidate out as an invalid measurement.
  const dna::GenomeCatalog catalog;
  RealWorkloadOptions options = out_of_core_options();
  options.paged.resident_pages = 2;
  const RealWorkloadEvaluator evaluator(catalog, options);
  opt::SystemConfig c;
  c.host_threads = 2;
  c.device_threads = 2;
  c.host_percent = 50.0;
  try {
    (void)evaluator.measure(c, cat());
    ADD_FAILURE() << "measure() accepted a resident budget below the fleet's workers";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("resident budget"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(evaluator.invalid_measurements(), 0u);
}

TEST(RealWorkloadOutOfCore, PagedAndInMemoryMeasurementsAgree) {
  const dna::GenomeCatalog catalog;
  RealWorkloadOptions in_memory = out_of_core_options();
  in_memory.out_of_core = false;
  const RealWorkloadEvaluator paged_eval(catalog, out_of_core_options());
  const RealWorkloadEvaluator memory_eval(catalog, in_memory);
  opt::SystemConfig c;
  c.host_threads = 2;
  c.device_threads = 2;
  c.host_percent = 50.0;
  const RealMeasurement paged = paged_eval.measure(c, cat());
  const RealMeasurement memory = memory_eval.measure(c, cat());
  EXPECT_EQ(paged.matches, memory.matches);
  EXPECT_EQ(scanned_bytes(paged), scanned_bytes(memory));
}

}  // namespace
}  // namespace hetopt::core
