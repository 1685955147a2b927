// The N-way invariant layer for the fleet executor: whatever the pool count,
// the share vector (degenerate 0%/100% pools included), the schedule policy,
// or the engine, a fleet run must reproduce the naive sequential oracle —
// match counts exactly, and collected match positions byte for byte.
#include "core/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "automata/aho_corasick.hpp"
#include "automata/hopcroft.hpp"
#include "automata/match_engine.hpp"
#include "automata/regex.hpp"
#include "automata/scanner.hpp"
#include "automata/subset.hpp"
#include "dna/generator.hpp"
#include "parallel/partitioner.hpp"
#include "util/rng.hpp"

namespace hetopt::core {
namespace {

/// A random share vector of `pools` entries: integer percents >= 0 summing
/// to exactly 100 (cut points drawn from the seeded generator), so
/// validate_shares accepts it without fp slack and degenerate zero-share
/// pools occur naturally.
std::vector<double> random_shares(std::size_t pools, util::Xoshiro256& rng) {
  std::vector<std::uint64_t> cuts{0, 100};
  for (std::size_t i = 0; i + 1 < pools; ++i) cuts.push_back(rng.bounded(101));
  std::sort(cuts.begin(), cuts.end());
  std::vector<double> shares;
  shares.reserve(pools);
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    shares.push_back(static_cast<double>(cuts[i + 1] - cuts[i]));
  }
  return shares;
}

/// One PoolSpec per pool with small varied thread counts.
std::vector<PoolSpec> fleet_specs(std::size_t pools) {
  std::vector<PoolSpec> specs(pools);
  for (std::size_t i = 0; i < pools; ++i) {
    specs[i].threads = 1 + (i % 3);
    specs[i].share_percent = i == 0 ? 100.0 : 0.0;  // overridden per run
  }
  return specs;
}

/// Under kStatic every pool scans exactly its configured segment and never
/// steals — counts alone would stay exact even if static stole.
void expect_static_segments(const ExecutionReport& r, std::size_t total,
                            const std::vector<double>& shares) {
  const std::vector<std::size_t> bounds = parallel::share_bounds(total, shares);
  ASSERT_EQ(r.pools.size(), shares.size());
  for (std::size_t i = 0; i < shares.size(); ++i) {
    EXPECT_EQ(r.pools[i].bytes, bounds[i + 1] - bounds[i]) << "pool " << i;
    EXPECT_EQ(r.pools[i].steals, 0u) << "pool " << i;
  }
}

class MultiPoolFixture : public ::testing::Test {
 protected:
  dna::GenomeGenerator gen_;
};

TEST_F(MultiPoolFixture, FleetCountsMatchNaiveOracleAcrossPoolCountsSharesAndPolicies) {
  // The core N-way property: random motif sets x genomes x pool counts
  // (1..4) x random share vectors x every schedule policy, all against the
  // per-byte naive oracle.
  const std::vector<std::vector<std::string>> motif_sets = {
      {"GATTACA", "CCGG"},
      {"TATAWAW", "GGNCC", "TTSAA"},
      {"AAAA", "ACGT", "TGCA"},
  };
  util::Xoshiro256 rng(20260808);
  std::uint64_t seed = 3;
  for (const auto& motifs : motif_sets) {
    const auto compiled = automata::compile_motifs(motifs);
    const automata::DenseDfa dfa =
        automata::determinize(compiled.nfa, compiled.synchronization_bound);
    const std::string text = gen_.generate(30000 + 1013 * seed, seed);
    ++seed;
    const std::uint64_t expected =
        automata::scan_count_naive(dfa, text, dfa.start()).match_count;
    for (std::size_t pools = 1; pools <= 4; ++pools) {
      HeterogeneousExecutor exec(dfa, fleet_specs(pools));
      ASSERT_EQ(exec.pool_count(), pools);
      for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
        for (int round = 0; round < 2; ++round) {
          const std::vector<double> shares = random_shares(pools, rng);
          const ExecutionReport r = exec.run_fleet(text, shares, policy);
          EXPECT_EQ(r.total_matches(), expected)
              << "pools=" << pools << " policy=" << parallel::to_string(policy)
              << " round=" << round;
          std::size_t bytes = 0;
          double realized = 0.0;
          for (const PoolReport& pool : r.pools) {
            bytes += pool.bytes;
            realized += pool.realized_percent;
          }
          EXPECT_EQ(bytes, text.size());
          EXPECT_NEAR(realized, 100.0, 1e-9);
          if (policy == parallel::SchedulePolicy::kStatic) {
            expect_static_segments(r, text.size(), shares);
          }
        }
      }
    }
  }
}

TEST_F(MultiPoolFixture, CollectedPositionsAreByteIdenticalToNaiveOracle) {
  // Position parity, not just count parity: collect_fleet must emit exactly
  // the event stream of a sequential naive scan — same ends, same pattern
  // masks, same (ascending) order — for every pool count and policy.
  const automata::DenseDfa dfa =
      automata::build_aho_corasick({"TATA", "GGCC", "ACGTACGT"});
  std::string text = gen_.generate(40000, 11);
  text.replace(text.size() / 4 - 4, 8, "ACGTACGT");   // straddles a 25% cut
  text.replace(text.size() / 2 - 4, 8, "ACGTACGT");   // straddles the 50% cut
  std::vector<automata::Match> expected;
  (void)automata::scan_collect_naive(dfa, text, dfa.start(), 0, expected);
  ASSERT_FALSE(expected.empty());
  util::Xoshiro256 rng(77);
  for (std::size_t pools = 1; pools <= 4; ++pools) {
    HeterogeneousExecutor exec(dfa, fleet_specs(pools));
    for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
      for (int round = 0; round < 2; ++round) {
        const std::vector<double> shares =
            round == 0 ? random_shares(pools, rng)
                       : std::vector<double>(pools, 100.0 / static_cast<double>(pools));
        std::vector<automata::Match> got;
        const ExecutionReport r = exec.collect_fleet(text, shares, policy, got);
        EXPECT_EQ(r.total_matches(), expected.size());
        ASSERT_EQ(got.size(), expected.size())
            << "pools=" << pools << " policy=" << parallel::to_string(policy);
        EXPECT_TRUE(got == expected)
            << "pools=" << pools << " policy=" << parallel::to_string(policy)
            << " round=" << round;
        if (policy == parallel::SchedulePolicy::kStatic) {
          expect_static_segments(r, text.size(), shares);
        }
      }
    }
  }
}

TEST_F(MultiPoolFixture, DegenerateSharesSkipPoolLaunchEntirely) {
  // A pool configured to 0% must not be dispatched at all under the static
  // schedule — its report fields stay exactly zero, generalizing the 2-pool
  // 0%/100% convention.
  const automata::DenseDfa dfa = automata::build_aho_corasick({"TTT"});
  const std::string text = gen_.generate(20000, 9);
  const std::uint64_t expected =
      automata::scan_count_naive(dfa, text, dfa.start()).match_count;
  HeterogeneousExecutor exec(dfa, fleet_specs(4));
  const std::vector<std::vector<double>> degenerate = {
      {100.0, 0.0, 0.0, 0.0},
      {0.0, 0.0, 100.0, 0.0},
      {0.0, 50.0, 0.0, 50.0},
  };
  for (const auto& shares : degenerate) {
    const ExecutionReport r =
        exec.run_fleet(text, shares, parallel::SchedulePolicy::kStatic);
    EXPECT_EQ(r.total_matches(), expected);
    for (std::size_t i = 0; i < shares.size(); ++i) {
      if (shares[i] == 0.0) {
        EXPECT_EQ(r.pools[i].bytes, 0u) << i;
        EXPECT_EQ(r.pools[i].matches, 0u) << i;
        EXPECT_EQ(r.pools[i].seconds, 0.0) << i;
        EXPECT_DOUBLE_EQ(r.pools[i].realized_percent, 0.0) << i;
      } else {
        EXPECT_GT(r.pools[i].bytes, 0u) << i;
      }
      EXPECT_EQ(r.pools[i].steals, 0u) << i;
    }
  }
  // Same degenerate shares under collect: zero pools stay silent and the
  // position stream is still the oracle's.
  std::vector<automata::Match> expected_pos;
  (void)automata::scan_collect_naive(dfa, text, dfa.start(), 0, expected_pos);
  std::vector<automata::Match> got;
  const ExecutionReport rc = exec.collect_fleet(text, {0.0, 100.0, 0.0, 0.0},
                                                parallel::SchedulePolicy::kStatic, got);
  EXPECT_EQ(rc.pools[0].seconds, 0.0);
  EXPECT_EQ(rc.pools[2].seconds, 0.0);
  EXPECT_TRUE(got == expected_pos);
}

TEST_F(MultiPoolFixture, EveryEngineKindRunsTheFleetExactly) {
  // Engine-generic fleets: each available engine (compiled DFA, AC, bitap)
  // drives a 3-pool fleet to the same oracle count.
  const std::vector<std::string> motifs = {"GATTACA", "CCGG", "TTTT"};
  const auto compiled = automata::compile_motifs(motifs);
  const automata::DenseDfa dfa =
      automata::determinize(compiled.nfa, compiled.synchronization_bound);
  const std::string text = gen_.generate(30000, 13);
  const std::uint64_t expected =
      automata::scan_count_naive(dfa, text, dfa.start()).match_count;
  // One non-ACGT byte inside pool 1's segment (bytes 15000..24000).
  std::string bad = text;
  bad[20000] = 'N';
  const std::vector<double> shares = {50.0, 30.0, 20.0};
  // DFA engines prefix the message with "scan:", bitap engines with
  // "BitapMatcher:"; both name the byte.
  const auto expect_invalid_base = [](const auto& run, const std::string& what) {
    try {
      run();
      ADD_FAILURE() << what << ": no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("invalid base 'N'"), std::string::npos)
          << what << ": " << e.what();
    }
  };
  for (const automata::EngineKind kind : automata::kAllEngineKinds) {
    std::string gap;
    const auto engine = automata::try_lower(kind, motifs, &gap);
    ASSERT_NE(engine, nullptr) << gap;
    HeterogeneousExecutor exec(*engine, fleet_specs(3));
    for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
      const std::string what =
          std::string(automata::to_string(kind)) + " " + std::string(parallel::to_string(policy));
      const ExecutionReport r = exec.run_fleet(text, shares, policy);
      EXPECT_EQ(r.total_matches(), expected) << what;
      // A scan error is the caller's to see, not a pool fault: it propagates
      // unchanged with no fault plan armed...
      expect_invalid_base([&] { (void)exec.run_fleet(bad, shares, policy); }, what);
      expect_invalid_base(
          [&] {
            std::vector<automata::Match> got;
            (void)exec.collect_fleet(bad, shares, policy, got);
          },
          what + " collect");
      // ...and leaves the executor intact: the next clean run is exact and
      // marks no pool failed.
      const ExecutionReport after = exec.run_fleet(text, shares, policy);
      EXPECT_EQ(after.total_matches(), expected) << what;
      EXPECT_TRUE(after.failed_pools.empty()) << what;
      for (const PoolReport& pool : after.pools) EXPECT_FALSE(pool.failed) << what;
    }
  }
}

TEST_F(MultiPoolFixture, FleetReportToStringListsEveryPool) {
  const automata::DenseDfa dfa = automata::build_aho_corasick({"ACG"});
  const std::string text = gen_.generate(20000, 3);
  HeterogeneousExecutor exec(dfa, fleet_specs(3));
  const ExecutionReport r =
      exec.run_fleet(text, {50.0, 25.0, 25.0}, parallel::SchedulePolicy::kDynamic);
  const std::string line = r.to_string();
  EXPECT_NE(line.find("[dynamic]"), std::string::npos) << line;
  EXPECT_NE(line.find("host"), std::string::npos) << line;
  EXPECT_NE(line.find("dev1"), std::string::npos) << line;
  EXPECT_NE(line.find("dev2"), std::string::npos) << line;
  EXPECT_NE(line.find("steals"), std::string::npos) << line;
}

/// An engine with no synchronization bound.
class UnboundedEngine final : public automata::MatchEngine {
 public:
  [[nodiscard]] automata::EngineKind kind() const noexcept override {
    return automata::EngineKind::kBitapSimd;
  }
  [[nodiscard]] std::size_t synchronization_bound() const noexcept override { return 0; }
  [[nodiscard]] std::size_t pattern_count() const noexcept override { return 1; }
  [[nodiscard]] std::uint64_t count_chunk(std::string_view, std::size_t,
                                          std::size_t) const override {
    return 0;
  }
  [[nodiscard]] std::uint64_t collect_chunk(std::string_view, std::size_t, std::size_t,
                                            std::vector<automata::Match>&) const override {
    return 0;
  }
};

TEST_F(MultiPoolFixture, InvalidFleetsAndSharesAreRejected) {
  const automata::DenseDfa dfa = automata::build_aho_corasick({"ACG"});
  EXPECT_THROW(HeterogeneousExecutor(dfa, std::vector<PoolSpec>{}),
               std::invalid_argument);
  std::vector<PoolSpec> both(1);
  both[0].share_percent = 100.0;
  both[0].host_affinity = parallel::HostAffinity::kScatter;
  both[0].device_affinity = parallel::DeviceAffinity::kCompact;
  EXPECT_THROW(HeterogeneousExecutor(dfa, both), std::invalid_argument);
  // An engine with no synchronization bound cannot enter a chunk exactly.
  EXPECT_THROW(HeterogeneousExecutor(UnboundedEngine{}, fleet_specs(2)), std::invalid_argument);
  HeterogeneousExecutor exec(dfa, fleet_specs(3));
  const std::string text = gen_.generate(1000, 1);
  EXPECT_THROW((void)exec.run_fleet(text, {50.0, 50.0},
                                    parallel::SchedulePolicy::kStatic),
               std::invalid_argument);  // wrong arity
  EXPECT_THROW((void)exec.run_fleet(text, {60.0, 30.0, 20.0},
                                    parallel::SchedulePolicy::kStatic),
               std::invalid_argument);  // sums to 110
}

}  // namespace
}  // namespace hetopt::core
