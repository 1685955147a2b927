// Randomized cross-validation of the whole automata stack: generate random
// motif expressions, compile through every engine, and check that all
// engines agree with each other and with the NFA oracle on random texts.
#include <gtest/gtest.h>

#include "automata/aho_corasick.hpp"
#include "core/executor.hpp"
#include "automata/hopcroft.hpp"
#include "automata/parallel_matcher.hpp"
#include "automata/regex.hpp"
#include "automata/scanner.hpp"
#include "automata/subset.hpp"
#include "dna/generator.hpp"
#include "util/rng.hpp"

namespace hetopt::automata {
namespace {

/// Generates a random motif expression from the grammar (depth-bounded).
/// Returns expressions that cannot match the empty string.
std::string random_motif(util::Xoshiro256& rng, int depth) {
  static constexpr const char* kAtoms = "ACGTRYSWKMN";
  const auto atom = [&rng]() {
    return std::string(1, kAtoms[rng.bounded(11)]);
  };
  if (depth <= 0) return atom();
  switch (rng.bounded(6)) {
    case 0:  // concatenation
      return random_motif(rng, depth - 1) + random_motif(rng, depth - 1);
    case 1:  // alternation
      return "(" + random_motif(rng, depth - 1) + "|" + random_motif(rng, depth - 1) + ")";
    case 2:  // optional suffix after a required atom (stays non-empty)
      return atom() + "(" + random_motif(rng, depth - 1) + ")?";
    case 3:  // plus
      return "(" + random_motif(rng, depth - 1) + ")+";
    case 4:  // star after a required atom (stays non-empty)
      return atom() + "(" + random_motif(rng, depth - 1) + ")*";
    default:
      return atom();
  }
}

class RegexFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RegexFuzz, DfaMinimizedDfaAndNfaAgree) {
  const std::uint64_t seed = GetParam();
  util::Xoshiro256 rng(seed * 2654435761ULL + 17);
  const dna::GenomeGenerator gen;

  std::vector<std::string> patterns;
  const auto n = static_cast<std::size_t>(rng.range(1, 3));
  for (std::size_t i = 0; i < n; ++i) patterns.push_back(random_motif(rng, 3));

  const auto compiled = compile_motifs(patterns);
  const DenseDfa dfa = determinize(compiled.nfa, compiled.synchronization_bound);
  ASSERT_TRUE(dfa.validate().empty()) << "patterns: " << patterns[0];
  const DenseDfa min = minimize(dfa);
  ASSERT_TRUE(min.validate().empty());
  EXPECT_LE(min.state_count(), dfa.state_count());

  for (int round = 0; round < 4; ++round) {
    const std::string text = gen.generate(800, seed * 31 + round);
    // Full engines agree on counts.
    const auto dfa_count = count_matches(dfa, text);
    EXPECT_EQ(count_matches(min, text), dfa_count);
    // NFA oracle agrees on *which* patterns matched.
    std::vector<Match> events;
    (void)scan_collect(dfa, text, dfa.start(), 0, events);
    std::uint64_t mask = 0;
    for (const Match& m : events) mask |= m.pattern_mask;
    EXPECT_EQ(mask, compiled.nfa.simulate(text))
        << "patterns:" << [&] {
             std::string all;
             for (const auto& p : patterns) all += " " + p;
             return all;
           }();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexFuzz, ::testing::Range<std::uint64_t>(0, 25));

class ParallelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelFuzz, ChunkedEqualsSequentialOnRandomRegexes) {
  const std::uint64_t seed = GetParam();
  util::Xoshiro256 rng(seed * 40503 + 7);
  const dna::GenomeGenerator gen;
  const std::string pattern = random_motif(rng, 3);
  const auto compiled = compile_motifs({pattern});
  const DenseDfa dfa = determinize(compiled.nfa, compiled.synchronization_bound);

  parallel::ThreadPool pool(4);
  const ParallelMatcher matcher(dfa, pool);
  const std::string text = gen.generate(12000, seed + 99);
  const std::uint64_t expected = count_matches(dfa, text);
  const auto chunks = static_cast<std::size_t>(rng.range(2, 31));
  EXPECT_EQ(matcher.count(text, chunks).match_count, expected)
      << "pattern " << pattern << " chunks " << chunks;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelFuzz, ::testing::Range<std::uint64_t>(0, 15));

TEST(DfaRandomWalk, MinimizedBehavesIdenticallyAlongRandomWalks) {
  // Walk both automata with the same random input and compare accept
  // signatures at every step — a stronger check than count equality.
  const auto compiled = compile_motifs({"GGATCC", "GANTC", "TTYAA"});
  const DenseDfa dfa = determinize(compiled.nfa, compiled.synchronization_bound);
  const DenseDfa min = minimize(dfa);
  util::Xoshiro256 rng(1234);
  StateId a = dfa.start();
  StateId b = min.start();
  for (int step = 0; step < 20000; ++step) {
    const auto base = static_cast<dna::Base>(rng.bounded(4));
    a = dfa.step(a, base);
    b = min.step(b, base);
    ASSERT_EQ(dfa.accept_mask(a), min.accept_mask(b)) << "step " << step;
    ASSERT_EQ(dfa.accept_count(a), min.accept_count(b)) << "step " << step;
  }
}

TEST(ExecutorFuzz, RandomSplitsNeverLoseMatches) {
  const dna::GenomeGenerator gen;
  const auto compiled = compile_motifs({"GATNNACA", "TTTT"});
  const DenseDfa dfa = determinize(compiled.nfa, compiled.synchronization_bound);
  const std::string text = gen.generate(40000, 77);
  const std::uint64_t expected = count_matches(dfa, text);
  util::Xoshiro256 rng(42);
  std::vector<core::PoolSpec> pair(2);
  pair[0].threads = 3;
  pair[1].threads = 3;
  core::HeterogeneousExecutor exec(dfa, pair);
  for (int round = 0; round < 12; ++round) {
    const double pct = rng.uniform(0.0, 100.0);
    EXPECT_EQ(exec.run_fleet(text, {pct, 100.0 - pct}, parallel::SchedulePolicy::kStatic)
                  .total_matches(),
              expected)
        << "pct " << pct;
  }
}

}  // namespace
}  // namespace hetopt::automata
