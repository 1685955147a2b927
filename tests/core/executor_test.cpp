#include "core/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "automata/aho_corasick.hpp"
#include "automata/hopcroft.hpp"
#include "automata/regex.hpp"
#include "automata/scanner.hpp"
#include "automata/subset.hpp"
#include "dna/generator.hpp"

namespace hetopt::core {
namespace {

/// The paper's host + device pair as a 2-pool fleet; `chunks` cuts each
/// pool's segment (0 = one chunk per worker).
std::vector<PoolSpec> pair_fleet(std::size_t host_threads, std::size_t device_threads,
                                 std::size_t chunks = 0) {
  std::vector<PoolSpec> specs(2);
  specs[0].threads = host_threads;
  specs[0].share_percent = 50.0;
  specs[0].chunks = chunks;
  specs[1].threads = device_threads;
  specs[1].share_percent = 50.0;
  specs[1].chunks = chunks;
  return specs;
}

/// Host share `pct`, the device the rest.
std::vector<double> split(double pct) { return {pct, 100.0 - pct}; }

constexpr parallel::SchedulePolicy kStatic = parallel::SchedulePolicy::kStatic;

class ExecutorFixture : public ::testing::Test {
 protected:
  dna::GenomeGenerator gen_;
};

TEST_F(ExecutorFixture, TotalMatchesEqualSequentialScan) {
  const automata::DenseDfa dfa = automata::build_aho_corasick({"GATTACA", "CCGG"});
  const std::string text = gen_.generate(200000, 1);
  const std::uint64_t expected = automata::count_matches(dfa, text);
  HeterogeneousExecutor exec(dfa, pair_fleet(4, 4));
  for (double pct : {0.0, 10.0, 37.5, 50.0, 90.0, 100.0}) {
    const ExecutionReport r = exec.run_fleet(text, split(pct), kStatic);
    EXPECT_EQ(r.total_matches(), expected) << "host% = " << pct;
    EXPECT_EQ(r.pools[0].bytes + r.pools[1].bytes, text.size());
  }
}

TEST_F(ExecutorFixture, MatchSpanningTheSplitIsCountedOnce) {
  const automata::DenseDfa dfa = automata::build_aho_corasick({"ACGTACGT"});
  std::string text(1000, 'T');
  text.replace(496, 8, "ACGTACGT");  // straddles the 50% cut
  HeterogeneousExecutor exec(dfa, pair_fleet(2, 2));
  const ExecutionReport r = exec.run_fleet(text, split(50.0), kStatic);
  EXPECT_EQ(r.total_matches(), 1u);
  // The match ends at position 504 > 500, so the device side owns it.
  EXPECT_EQ(r.pools[1].matches, 1u);
  EXPECT_EQ(r.pools[0].matches, 0u);
}

TEST_F(ExecutorFixture, AutomatonWithoutABoundIsRejected) {
  // Every chunk scan warms up over the bound - 1 bytes before its chunk, so
  // an automaton whose bound is not set cannot drive a fleet.
  const auto compiled = automata::compile_motifs({"GCAGC"});
  EXPECT_THROW(HeterogeneousExecutor(automata::determinize(compiled.nfa), pair_fleet(2, 2)),
               std::invalid_argument);
}

TEST_F(ExecutorFixture, EmptyTextProducesEmptyReport) {
  const automata::DenseDfa dfa = automata::build_aho_corasick({"AC"});
  HeterogeneousExecutor exec(dfa, pair_fleet(2, 2));
  const ExecutionReport r = exec.run_fleet("", split(50.0), kStatic);
  EXPECT_EQ(r.total_matches(), 0u);
  EXPECT_EQ(r.pools[0].bytes, 0u);
  EXPECT_EQ(r.pools[1].bytes, 0u);
}

TEST_F(ExecutorFixture, TimersArePopulated) {
  const automata::DenseDfa dfa = automata::build_aho_corasick({"ACG"});
  const std::string text = gen_.generate(500000, 3);
  HeterogeneousExecutor exec(dfa, pair_fleet(4, 4));
  const ExecutionReport r = exec.run_fleet(text, split(60.0), kStatic);
  EXPECT_GT(r.pools[0].seconds, 0.0);
  EXPECT_GT(r.pools[1].seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.total_seconds, std::max(r.pools[0].seconds, r.pools[1].seconds));
}

TEST_F(ExecutorFixture, FractionEndpointsRouteAllBytesToOneSide) {
  const automata::DenseDfa dfa = automata::build_aho_corasick({"TTT"});
  const std::string text = gen_.generate(10000, 9);
  HeterogeneousExecutor exec(dfa, pair_fleet(2, 2));
  const ExecutionReport host_all = exec.run_fleet(text, split(100.0), kStatic);
  EXPECT_EQ(host_all.pools[1].bytes, 0u);
  EXPECT_EQ(host_all.pools[1].matches, 0u);
  const ExecutionReport device_all = exec.run_fleet(text, split(0.0), kStatic);
  EXPECT_EQ(device_all.pools[0].bytes, 0u);
  EXPECT_EQ(device_all.pools[0].matches, 0u);
  EXPECT_EQ(host_all.total_matches(), device_all.total_matches());
}

TEST_F(ExecutorFixture, EmptySideIsSkippedWithExactZeroFields) {
  // 0%/100% fractions must not dispatch to the empty side at all; the
  // zero side's matches/bytes/seconds stay exactly zero.
  const automata::DenseDfa dfa = automata::build_aho_corasick({"TTT"});
  const std::string text = gen_.generate(20000, 9);
  HeterogeneousExecutor exec(dfa, pair_fleet(2, 2));
  const ExecutionReport host_all = exec.run_fleet(text, split(100.0), kStatic);
  EXPECT_EQ(host_all.pools[1].bytes, 0u);
  EXPECT_EQ(host_all.pools[1].matches, 0u);
  EXPECT_EQ(host_all.pools[1].seconds, 0.0);
  EXPECT_DOUBLE_EQ(host_all.pools[0].realized_percent, 100.0);
  EXPECT_EQ(host_all.imbalance, 0.0);
  const ExecutionReport device_all = exec.run_fleet(text, split(0.0), kStatic);
  EXPECT_EQ(device_all.pools[0].bytes, 0u);
  EXPECT_EQ(device_all.pools[0].matches, 0u);
  EXPECT_EQ(device_all.pools[0].seconds, 0.0);
  EXPECT_DOUBLE_EQ(device_all.pools[0].realized_percent, 0.0);
  EXPECT_EQ(host_all.total_matches(), device_all.total_matches());
}

TEST_F(ExecutorFixture, EverySchedulePolicyMatchesSequentialScan) {
  // Cross-policy parity across fractions and chunk counts, with a motif
  // planted across the configured split boundary.
  const auto compiled = automata::compile_motifs({"TATAWAW", "GGGCGG", "ACGTACGT"});
  const automata::DenseDfa dfa =
      automata::minimize(automata::determinize(compiled.nfa,
                                               compiled.synchronization_bound));
  std::string text = gen_.generate(150000, 31);
  text.replace(text.size() / 2 - 4, 8, "ACGTACGT");  // straddles the 50% cut
  const std::uint64_t expected = automata::count_matches(dfa, text);
  for (const std::size_t chunks : {std::size_t{0}, std::size_t{9}}) {
    HeterogeneousExecutor exec(dfa, pair_fleet(3, 4, chunks));
    for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
      for (const double pct : {0.0, 25.0, 50.0, 87.5, 100.0}) {
        const ExecutionReport r = exec.run_fleet(text, split(pct), policy);
        EXPECT_EQ(r.total_matches(), expected)
            << "policy=" << parallel::to_string(policy) << " pct=" << pct
            << " chunks=" << chunks;
        EXPECT_EQ(r.pools[0].bytes + r.pools[1].bytes, text.size());
        EXPECT_EQ(r.schedule, policy);
        EXPECT_DOUBLE_EQ(r.pools[0].configured_percent, pct);
        EXPECT_GE(r.pools[0].realized_percent, 0.0);
        EXPECT_LE(r.pools[0].realized_percent, 100.0);
        EXPECT_GE(r.imbalance, 0.0);
        EXPECT_LE(r.imbalance, 1.0);
        if (policy == parallel::SchedulePolicy::kStatic) {
          EXPECT_EQ(r.pools[0].steals, 0u);
          EXPECT_EQ(r.pools[1].steals, 0u);
        }
      }
    }
  }
}

TEST_F(ExecutorFixture, RandomMotifSetsAgreeAcrossPoliciesAndFractions) {
  // Random motif sets x random genomes x fractions x chunk counts: every
  // policy must reproduce the static path's match count exactly.
  const std::vector<std::vector<std::string>> motif_sets = {
      {"GATTACA", "CCGG"},
      {"TATAWAW", "GGNCC", "TTSAA"},
      {"AAAA", "ACGT", "TGCA", "GGGG"},
  };
  std::uint64_t seed = 101;
  for (const auto& motifs : motif_sets) {
    const auto compiled = automata::compile_motifs(motifs);
    const automata::DenseDfa dfa =
        automata::determinize(compiled.nfa, compiled.synchronization_bound);
    const std::string text = gen_.generate(40000 + 977 * seed, seed);
    ++seed;
    const std::uint64_t expected = automata::count_matches(dfa, text);
    for (const std::size_t chunks : {std::size_t{2}, std::size_t{7}}) {
      HeterogeneousExecutor exec(dfa, pair_fleet(2, 3, chunks));
      for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
        for (const double pct : {12.5, 50.0, 75.0}) {
          EXPECT_EQ(exec.run_fleet(text, split(pct), policy).total_matches(), expected)
              << "policy=" << parallel::to_string(policy) << " pct=" << pct
              << " chunks=" << chunks;
        }
      }
    }
  }
}

TEST_F(ExecutorFixture, AdaptiveStealAccountingIsConsistent) {
  const automata::DenseDfa dfa = automata::build_aho_corasick({"TATA", "GGCC"});
  const std::string text = gen_.generate(200000, 17);
  const std::uint64_t expected = automata::count_matches(dfa, text);
  HeterogeneousExecutor exec(dfa, pair_fleet(2, 2, 8));
  // All bytes configured to the host: anything the device did is a steal,
  // and everything it scanned came across the boundary.
  const ExecutionReport r =
      exec.run_fleet(text, split(100.0), parallel::SchedulePolicy::kAdaptive);
  EXPECT_EQ(r.total_matches(), expected);
  EXPECT_EQ(r.pools[0].steals, 0u);  // the host owns every chunk
  if (r.pools[1].bytes > 0) {
    EXPECT_GT(r.pools[1].steals, 0u);
    EXPECT_LT(r.pools[0].realized_percent, 100.0);
  } else {
    EXPECT_EQ(r.pools[1].steals, 0u);
    EXPECT_DOUBLE_EQ(r.pools[0].realized_percent, 100.0);
  }
}

TEST_F(ExecutorFixture, ReportToStringMentionsTheEssentials) {
  const automata::DenseDfa dfa = automata::build_aho_corasick({"ACG"});
  const std::string text = gen_.generate(50000, 3);
  HeterogeneousExecutor exec(dfa, pair_fleet(2, 2, 4));
  const ExecutionReport r =
      exec.run_fleet(text, split(75.0), parallel::SchedulePolicy::kDynamic);
  const std::string line = r.to_string();
  EXPECT_NE(line.find("[dynamic]"), std::string::npos) << line;
  EXPECT_NE(line.find(std::to_string(r.total_matches()) + " matches"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("configured 75%"), std::string::npos) << line;
  EXPECT_NE(line.find("imbalance"), std::string::npos) << line;
  EXPECT_NE(line.find("steals"), std::string::npos) << line;
}

class SplitSweep : public ::testing::TestWithParam<double> {};

TEST_P(SplitSweep, CountsInvariantUnderSplit) {
  const double pct = GetParam();
  const dna::GenomeGenerator gen;
  const automata::DenseDfa dfa =
      automata::build_aho_corasick({"TATA", "GGCC", "AAAAA"});
  const std::string text = gen.generate(60000, 42);
  const std::uint64_t expected = automata::count_matches(dfa, text);
  HeterogeneousExecutor exec(dfa, pair_fleet(3, 5));
  EXPECT_EQ(exec.run_fleet(text, split(pct), kStatic).total_matches(), expected);
}

INSTANTIATE_TEST_SUITE_P(Fractions, SplitSweep,
                         ::testing::Values(0.0, 2.5, 25.0, 49.9, 50.0, 50.1, 75.0,
                                           97.5, 100.0));

}  // namespace
}  // namespace hetopt::core
