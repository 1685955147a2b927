// Parity under faults — the headline invariant of the fault-tolerant
// execution runtime: for any armed fault plan short of total fleet loss
// (and including it: the coordinator's final sweep covers even that), match
// counts and collected positions must stay byte-identical to the sequential
// naive oracle, in memory and paged, while the failure telemetry records
// what the recovery machinery actually did. Plus the evaluator's self-healing measure():
// transient measurement faults are retried with backoff, hopeless ones come
// back marked invalid (infinite seconds) so a tuning session keeps searching.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "automata/aho_corasick.hpp"
#include "automata/scanner.hpp"
#include "core/executor.hpp"
#include "core/real_workload.hpp"
#include "core/tuning_session.hpp"
#include "dna/generator.hpp"
#include "dna/paged_genome.hpp"
#include "opt/config_space.hpp"
#include "util/fault.hpp"

namespace hetopt::core {
namespace {

std::vector<PoolSpec> fleet_specs(std::size_t pools) {
  std::vector<PoolSpec> specs(pools);
  for (std::size_t i = 0; i < pools; ++i) {
    specs[i].threads = 1 + (i % 3);
    specs[i].chunks = 4;  // every pool contributes several chunks to fault at
  }
  return specs;
}

std::vector<double> equal_shares(std::size_t pools) {
  return std::vector<double>(pools, 100.0 / static_cast<double>(pools));
}

class FaultRecoveryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dfa_ = std::make_unique<automata::DenseDfa>(
        automata::build_aho_corasick({"TATA", "GGCC", "ACGTACGT"}));
    dna::GenomeGenerator gen;
    text_ = gen.generate(30000, 17);
    text_.replace(text_.size() / 3 - 4, 8, "ACGTACGT");  // straddles chunk cuts
    text_.replace(text_.size() / 2 - 4, 8, "ACGTACGT");
    dna::PagedGenomeOptions paged;
    paged.page_bytes = 2048;    // ~15 pages, several per pool
    paged.resident_pages = 16;  // covers the largest fleet's 7 workers
    genome_ = std::make_unique<dna::PagedGenome>(std::make_unique<dna::BufferPageSource>(text_),
                                                 paged);
    expected_count_ =
        automata::scan_count_naive(*dfa_, text_, dfa_->start()).match_count;
    (void)automata::scan_collect_naive(*dfa_, text_, dfa_->start(), 0, expected_matches_);
    ASSERT_GT(expected_count_, 0u);
  }

  /// The fault plans a `pools`-sized fleet is exercised under: last pool
  /// dies, last pool stalls, chunk 0 throws forever (exhausts the retry
  /// budget and degrades), chunk 0 runs slow, and the no-fault probe.
  static std::vector<std::string> plans_for(std::size_t pools) {
    const std::string last = std::to_string(pools - 1);
    return {
        "pool-death:pool=" + last,
        "pool-stall:pool=" + last,
        "chunk-throw:chunk=0,times=99",
        "chunk-slow:chunk=0,factor=3",
        "probe",
    };
  }

  std::unique_ptr<automata::DenseDfa> dfa_;
  std::string text_;
  /// text_ behind a page cache: every parity case runs on both inputs.
  std::unique_ptr<dna::PagedGenome> genome_;
  std::uint64_t expected_count_ = 0;
  std::vector<automata::Match> expected_matches_;
};

PagedFleetOptions paged_with(parallel::SchedulePolicy policy) {
  PagedFleetOptions options;
  options.schedule = policy;
  return options;
}

TEST_F(FaultRecoveryFixture, CountParityHoldsForEveryPlanPoolCountAndPolicy) {
  for (std::size_t pools = 1; pools <= 4; ++pools) {
    HeterogeneousExecutor exec(*dfa_, fleet_specs(pools));
    exec.set_recovery({0.02, 3});  // fast watchdog keeps the stall runs short
    for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
      for (const std::string& spec : plans_for(pools)) {
        for (const bool paged : {false, true}) {
          const util::FaultInjector injector(util::FaultPlan::parse(spec));
          const ExecutionReport r =
              paged ? exec.run_fleet_paged(*genome_, equal_shares(pools), paged_with(policy))
                    : exec.run_fleet(text_, equal_shares(pools), policy);
          EXPECT_EQ(r.total_matches(), expected_count_)
              << "pools=" << pools << " policy=" << parallel::to_string(policy)
              << " plan=" << spec << " paged=" << paged;
          std::size_t bytes = 0;
          for (const PoolReport& pool : r.pools) bytes += pool.bytes;
          EXPECT_EQ(bytes, text_.size()) << "plan=" << spec << " paged=" << paged;
        }
      }
    }
  }
}

TEST_F(FaultRecoveryFixture, CollectedPositionsStayByteIdenticalUnderFaults) {
  for (std::size_t pools = 1; pools <= 4; ++pools) {
    HeterogeneousExecutor exec(*dfa_, fleet_specs(pools));
    exec.set_recovery({0.02, 3});
    for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
      for (const std::string& spec : plans_for(pools)) {
        for (const bool paged : {false, true}) {
          const util::FaultInjector injector(util::FaultPlan::parse(spec));
          std::vector<automata::Match> got;
          const ExecutionReport r =
              paged ? exec.collect_fleet(*genome_, equal_shares(pools), paged_with(policy), got)
                    : exec.collect_fleet(text_, equal_shares(pools), policy, got);
          EXPECT_EQ(r.total_matches(), expected_matches_.size()) << "plan=" << spec;
          ASSERT_EQ(got.size(), expected_matches_.size())
              << "pools=" << pools << " policy=" << parallel::to_string(policy)
              << " plan=" << spec << " paged=" << paged;
          EXPECT_TRUE(got == expected_matches_)
              << "pools=" << pools << " policy=" << parallel::to_string(policy)
              << " plan=" << spec << " paged=" << paged;
        }
      }
    }
  }
}

TEST_F(FaultRecoveryFixture, PoolDeathUnderStaticRequeuesToSurvivorsAndIsRecorded) {
  HeterogeneousExecutor exec(*dfa_, fleet_specs(3));
  const util::FaultInjector injector(util::FaultPlan::parse("pool-death:pool=2"));
  const ExecutionReport r =
      exec.run_fleet(text_, equal_shares(3), parallel::SchedulePolicy::kStatic);
  EXPECT_EQ(r.total_matches(), expected_count_);
  // Under static the dead pool's segment is untouched by live stealing, so
  // its chunks are provably requeued (survivor steals + final sweep).
  EXPECT_GT(r.requeued_chunks, 0u);
  ASSERT_EQ(std::count(r.failed_pools.begin(), r.failed_pools.end(), 2u), 1);
  EXPECT_TRUE(r.pools[2].failed);
  EXPECT_FALSE(r.pools[0].failed);
  const std::string line = r.to_string();
  EXPECT_NE(line.find("faults:"), std::string::npos) << line;
  EXPECT_NE(line.find("requeued"), std::string::npos) << line;
}

TEST_F(FaultRecoveryFixture, PoolStallIsReleasedByTheWatchdogAndRecorded) {
  HeterogeneousExecutor exec(*dfa_, fleet_specs(2));
  exec.set_recovery({0.02, 3});
  const util::FaultInjector injector(util::FaultPlan::parse("pool-stall:pool=1"));
  const ExecutionReport r =
      exec.run_fleet(text_, equal_shares(2), parallel::SchedulePolicy::kStatic);
  EXPECT_EQ(r.total_matches(), expected_count_);
  EXPECT_EQ(std::count(r.failed_pools.begin(), r.failed_pools.end(), 1u), 1);
  EXPECT_TRUE(r.pools[1].failed);
}

TEST_F(FaultRecoveryFixture, TransientChunkThrowIsRetriedWithoutDegrading) {
  HeterogeneousExecutor exec(*dfa_, fleet_specs(2));
  // times=2 < max_chunk_attempts=3: the third attempt on chunk 0 succeeds
  // on the real engine, so no degradation to the naive scanner is needed.
  const util::FaultInjector injector(
      util::FaultPlan::parse("chunk-throw:chunk=0,times=2"));
  const ExecutionReport r =
      exec.run_fleet(text_, equal_shares(2), parallel::SchedulePolicy::kStatic);
  EXPECT_EQ(r.total_matches(), expected_count_);
  EXPECT_EQ(r.chunk_retries, 2u);
  EXPECT_FALSE(r.degraded);
  EXPECT_TRUE(r.failed_pools.empty());
  EXPECT_EQ(injector.injected(), 2u);
}

TEST_F(FaultRecoveryFixture, ExhaustedChunkRetriesDegradeToTheNaiveScanner) {
  HeterogeneousExecutor exec(*dfa_, fleet_specs(2));
  const util::FaultInjector injector(
      util::FaultPlan::parse("chunk-throw:chunk=0,times=99"));
  const ExecutionReport r =
      exec.run_fleet(text_, equal_shares(2), parallel::SchedulePolicy::kStatic);
  EXPECT_EQ(r.total_matches(), expected_count_);  // the fallback is still exact
  EXPECT_TRUE(r.degraded);
  EXPECT_GE(r.chunk_retries, 3u);
}

TEST_F(FaultRecoveryFixture, DisarmRestoresTheCleanPathAndCleanTelemetry) {
  HeterogeneousExecutor exec(*dfa_, fleet_specs(3));
  {
    const util::FaultInjector injector(util::FaultPlan::parse("pool-death:pool=1"));
    const ExecutionReport faulted =
        exec.run_fleet(text_, equal_shares(3), parallel::SchedulePolicy::kStatic);
    EXPECT_FALSE(faulted.failed_pools.empty());
  }
  ASSERT_EQ(util::FaultInjector::current(), nullptr);
  const ExecutionReport clean =
      exec.run_fleet(text_, equal_shares(3), parallel::SchedulePolicy::kStatic);
  EXPECT_EQ(clean.total_matches(), expected_count_);
  EXPECT_TRUE(clean.failed_pools.empty());
  EXPECT_EQ(clean.requeued_chunks, 0u);
  EXPECT_EQ(clean.chunk_retries, 0u);
  EXPECT_FALSE(clean.degraded);
  EXPECT_EQ(clean.to_string().find("faults:"), std::string::npos);
}

// --- Evaluator self-healing -------------------------------------------------

RealWorkloadOptions tiny_options(bool deterministic) {
  RealWorkloadOptions options;
  options.bytes_per_logical_mb = 54.0;  // cat (2430 logical MB) -> ~128 KB
  options.min_physical_bytes = 64 * 1024;
  options.deterministic_timing = deterministic;
  return options;
}

Workload cat() { return Workload("cat", 2430.0); }

TEST(SelfHealingEvaluatorTest, TransientMeasureFailuresAreRetriedToSuccess) {
  const dna::GenomeCatalog catalog;
  const RealWorkloadEvaluator evaluator(catalog, tiny_options(true));
  const util::FaultInjector injector(
      util::FaultPlan::parse("measure-fail:after=0,times=2", 5));
  const RealMeasurement m = evaluator.measure(opt::SystemConfig{}, cat());
  EXPECT_TRUE(m.valid);
  EXPECT_EQ(m.measure_failures, 2u);  // both retries burned, third attempt ran
  EXPECT_GT(m.seconds, 0.0);
  EXPECT_EQ(m.matches, evaluator.real(cat()).sequential_matches());
  EXPECT_EQ(evaluator.invalid_measurements(), 0u);
}

TEST(SelfHealingEvaluatorTest, ExhaustedRetryBudgetYieldsInvalidInfiniteCost) {
  const dna::GenomeCatalog catalog;
  const RealWorkloadEvaluator evaluator(catalog, tiny_options(true));
  const util::FaultInjector injector(
      util::FaultPlan::parse("measure-fail:after=0,times=99", 5));
  const RealMeasurement m = evaluator.measure(opt::SystemConfig{}, cat());
  EXPECT_FALSE(m.valid);
  EXPECT_TRUE(std::isinf(m.seconds));
  EXPECT_EQ(m.measure_failures, 3u);  // repeats=1 + retry budget of 2
  EXPECT_EQ(m.matches, 0u);
  EXPECT_EQ(evaluator.invalid_measurements(), 1u);
  // score() must surface the infinite cost, not throw.
  EXPECT_TRUE(std::isinf(evaluator.score(opt::SystemConfig{}, cat())));
  EXPECT_EQ(evaluator.invalid_measurements(), 2u);
}

TEST(SelfHealingEvaluatorTest, NoiseSpikesAreRejectedByTheMedianFilter) {
  const dna::GenomeCatalog catalog;
  RealWorkloadOptions options = tiny_options(false);  // wall timing: noise is visible
  options.repeats = 3;
  const RealWorkloadEvaluator evaluator(catalog, options);
  const util::FaultInjector injector(
      util::FaultPlan::parse("measure-noise:repeat=1,factor=10000", 5));
  const RealMeasurement m = evaluator.measure(opt::SystemConfig{}, cat());
  EXPECT_TRUE(m.valid);
  EXPECT_EQ(m.rejected_outliers, 1u);
  EXPECT_EQ(m.measure_failures, 0u);
  EXPECT_GT(m.seconds, 0.0);
  EXPECT_EQ(m.matches, evaluator.real(cat()).sequential_matches());
}

TEST(SelfHealingEvaluatorTest, TuningSessionsCompleteThroughHardMeasureFaults) {
  // Two hard-failure windows, each long enough (repeats + retry budget = 3
  // attempts) to sink one whole measurement into invalid/infinite cost —
  // one during each strategy's search. The sessions must keep searching
  // past the infinite-cost candidates and report a finite winner.
  const dna::GenomeCatalog catalog;
  const auto evaluator =
      std::make_shared<RealWorkloadEvaluator>(catalog, tiny_options(true));
  const opt::ConfigSpace space = opt::ConfigSpace::real(2);
  const util::FaultInjector injector(util::FaultPlan::parse(
      "measure-fail:after=4,times=3; measure-fail:after=40,times=3", 5));
  for (const char* strategy : {"exhaustive", "annealing"}) {
    TuningSession session(space);
    session.with_strategy(strategy).with_evaluator(evaluator).with_budget(20).with_seed(7);
    const SessionReport report = session.run(cat());
    EXPECT_GT(report.evaluations, 0u) << strategy;
    EXPECT_TRUE(std::isfinite(report.measured_time)) << strategy;
    EXPECT_TRUE(space.contains(report.config)) << strategy;
  }
  EXPECT_GT(evaluator->invalid_measurements(), 0u);
}

}  // namespace
}  // namespace hetopt::core
