// Cross-engine parity property tests: every MatchEngine applicable to a
// motif set — compiled DFA, bitap-simd — must produce identical
// match counts (and identical collect output) on identical input, for whole
// texts, for chunk-aware scans at every chunk count, and for matches
// spanning chunk boundaries. The oracle is the seed per-byte scanner over
// the subset-construction automaton, which is independent of every engine's
// fast path.
#include "automata/match_engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "automata/hopcroft.hpp"
#include "automata/parallel_matcher.hpp"
#include "automata/regex.hpp"
#include "automata/scanner.hpp"
#include "automata/subset.hpp"
#include "dna/generator.hpp"
#include "parallel/thread_pool.hpp"

namespace hetopt::automata {
namespace {

/// Seed-loop oracle over the subset-construction automaton (independent of
/// every engine's fast path).
std::uint64_t oracle_count(const std::vector<std::string>& motifs, std::string_view text) {
  const CompiledMotifs compiled = compile_motifs(motifs);
  const DenseDfa dfa = minimize(determinize(compiled.nfa, compiled.synchronization_bound));
  return scan_count_naive(dfa, text, dfa.start()).match_count;
}

std::vector<Match> oracle_collect(const std::vector<std::string>& motifs,
                                  std::string_view text) {
  const CompiledMotifs compiled = compile_motifs(motifs);
  const DenseDfa dfa = minimize(determinize(compiled.nfa, compiled.synchronization_bound));
  std::vector<Match> out;
  (void)scan_collect_naive(dfa, text, dfa.start(), 0, out);
  return out;
}

/// All engines applicable to `motifs` (at least the compiled DFA).
std::vector<std::unique_ptr<const MatchEngine>> applicable_engines(
    const std::vector<std::string>& motifs) {
  std::vector<std::unique_ptr<const MatchEngine>> engines;
  for (const EngineKind kind : kAllEngineKinds) {
    auto engine = try_lower(kind, motifs);
    if (engine != nullptr) engines.push_back(std::move(engine));
  }
  return engines;
}

/// A random literal pattern of length in [2, 8].
std::string random_literal(std::mt19937_64& rng) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  std::string p(2 + rng() % 7, 'A');
  for (char& c : p) c = kBases[rng() % 4];
  return p;
}

/// A random IUPAC pattern (classes, no operators) of length in [3, 7].
std::string random_iupac(std::mt19937_64& rng) {
  static constexpr char kIupac[] = {'A', 'C', 'G', 'T', 'W', 'S', 'R', 'Y', 'N'};
  std::string p(3 + rng() % 5, 'A');
  for (char& c : p) c = kIupac[rng() % 9];
  return p;
}

TEST(MatchEngine, LowerBuildsTheRightBackends) {
  const std::vector<std::string> literal{"GATTACA", "CCGG"};
  EXPECT_EQ(lower(EngineKind::kCompiledDfa, literal)->kind(), EngineKind::kCompiledDfa);
  EXPECT_EQ(lower(EngineKind::kBitapSimd, literal)->kind(), EngineKind::kBitapSimd);
  EXPECT_EQ(lower(EngineKind::kBitapSimd, literal)->name(), "bitap-simd");

  // IUPAC classes are fine for the bitap.
  const std::vector<std::string> iupac{"TATAWAW"};
  EXPECT_NE(try_lower(EngineKind::kBitapSimd, iupac), nullptr);

  // Regex operators: compiled DFA only.
  const std::vector<std::string> regex{"GC(N|NN)?GC"};
  EXPECT_NE(try_lower(EngineKind::kCompiledDfa, regex), nullptr);
  EXPECT_EQ(try_lower(EngineKind::kBitapSimd, regex), nullptr);
  // No engine scans an unbounded motif: the grammar rejects '*' and '+'.
  EXPECT_THROW((void)lower(EngineKind::kCompiledDfa, {"GC(N)*GC"}), std::invalid_argument);

  // > 64 summed bits: no bitap, and the gap says why.
  const std::vector<std::string> wide{std::string(40, 'A'), std::string(30, 'C')};
  std::string why;
  EXPECT_EQ(try_lower(EngineKind::kBitapSimd, wide, &why), nullptr);
  EXPECT_NE(why.find("64"), std::string::npos);
  EXPECT_EQ(engine_gap(EngineKind::kBitapSimd, wide), why);
  EXPECT_THROW((void)lower(EngineKind::kBitapSimd, wide), std::invalid_argument);
}

TEST(MatchEngine, CountParityOnRandomLiteralSets) {
  std::mt19937_64 rng(11);
  const dna::GenomeGenerator gen;
  for (std::uint64_t round = 0; round < 12; ++round) {
    std::vector<std::string> motifs;
    const std::size_t n = 1 + rng() % 5;
    for (std::size_t i = 0; i < n; ++i) motifs.push_back(random_literal(rng));
    const std::string text = gen.generate(4000 + rng() % 30000, round);
    const std::uint64_t expected = oracle_count(motifs, text);

    const auto engines = applicable_engines(motifs);
    ASSERT_EQ(engines.size(), kEngineKindCount);  // literal sets qualify for every engine
    for (const auto& engine : engines) {
      EXPECT_EQ(engine->count(text), expected)
          << engine->name() << " round " << round;
    }
  }
}

TEST(MatchEngine, CountParityOnRandomIupacSets) {
  std::mt19937_64 rng(23);
  const dna::GenomeGenerator gen;
  for (std::uint64_t round = 0; round < 12; ++round) {
    std::vector<std::string> motifs;
    const std::size_t n = 1 + rng() % 4;
    for (std::size_t i = 0; i < n; ++i) motifs.push_back(random_iupac(rng));
    const std::string text = gen.generate(3000 + rng() % 20000, 100 + round);
    const std::uint64_t expected = oracle_count(motifs, text);

    const auto engines = applicable_engines(motifs);
    ASSERT_EQ(engines.size(), kEngineKindCount);  // short IUPAC sets fit the bitap too
    for (const auto& engine : engines) {
      EXPECT_EQ(engine->count(text), expected)
          << engine->name() << " round " << round;
    }
  }
}

TEST(MatchEngine, ChunkedCountsAreExactAtEveryChunkCount) {
  std::mt19937_64 rng(37);
  const dna::GenomeGenerator gen;
  parallel::ThreadPool pool(4);
  for (std::uint64_t round = 0; round < 6; ++round) {
    std::vector<std::string> motifs;
    const std::size_t n = 1 + rng() % 4;
    for (std::size_t i = 0; i < n; ++i) motifs.push_back(random_literal(rng));
    std::string text = gen.generate(20000, 200 + round);
    // Plant a motif across every boundary the 7-chunk split will produce, so
    // cross-chunk matches are guaranteed to exist at several chunk counts.
    for (std::size_t boundary = text.size() / 7; boundary < text.size();
         boundary += text.size() / 7) {
      const std::string& m = motifs[boundary % motifs.size()];
      const std::size_t at = boundary - std::min(boundary, m.size() / 2);
      if (at + m.size() <= text.size()) text.replace(at, m.size(), m);
    }
    const std::uint64_t expected = oracle_count(motifs, text);

    for (const auto& engine : applicable_engines(motifs)) {
      // The raw chunk interface must tile exactly...
      for (const std::size_t chunks : {1u, 2u, 3u, 7u, 16u}) {
        std::uint64_t sum = 0;
        const std::size_t step = text.size() / chunks;
        std::size_t begin = 0;
        for (std::size_t c = 0; c < chunks; ++c) {
          const std::size_t end = (c + 1 == chunks) ? text.size() : begin + step;
          sum += engine->count_chunk(text, begin, end);
          begin = end;
        }
        EXPECT_EQ(sum, expected) << engine->name() << " chunks=" << chunks;
      }
      // ...and so must the pool-driven matcher built on the engine.
      const ParallelMatcher matcher(*engine, pool);
      for (const std::size_t chunks : {1u, 2u, 3u, 7u, 16u, 61u}) {
        EXPECT_EQ(matcher.count(text, chunks).match_count, expected)
            << engine->name() << " chunks=" << chunks;
      }
    }
  }
}

TEST(MatchEngine, CollectParityIncludingChunkedRuns) {
  std::mt19937_64 rng(53);
  const dna::GenomeGenerator gen;
  parallel::ThreadPool pool(4);
  for (std::uint64_t round = 0; round < 6; ++round) {
    std::vector<std::string> motifs;
    const std::size_t n = 1 + rng() % 3;
    for (std::size_t i = 0; i < n; ++i) motifs.push_back(random_literal(rng));
    std::string text = gen.generate(8000, 300 + round);
    const std::string& m0 = motifs.front();
    text.replace(text.size() / 2 - m0.size() / 2, m0.size(), m0);  // spans 2-chunk cut
    const std::vector<Match> expected = oracle_collect(motifs, text);

    for (const auto& engine : applicable_engines(motifs)) {
      std::vector<Match> whole;
      (void)engine->collect(text, whole);
      EXPECT_EQ(whole, expected) << engine->name();

      const ParallelMatcher matcher(*engine, pool);
      for (const std::size_t chunks : {1u, 2u, 5u, 13u}) {
        std::vector<Match> chunked;
        (void)matcher.collect(text, chunks, chunked);
        EXPECT_EQ(chunked, expected) << engine->name() << " chunks=" << chunks;
      }
    }
  }
}

TEST(MatchEngine, InvalidBytesThrowFromEveryEngine) {
  const std::vector<std::string> motifs{"ACGT", "TTT"};
  const std::string text = "ACGTACGXTACGT";  // 'X' is not a base
  for (const auto& engine : applicable_engines(motifs)) {
    EXPECT_THROW((void)engine->count(text), std::invalid_argument) << engine->name();
    std::vector<Match> out;
    EXPECT_THROW((void)engine->collect(text, out), std::invalid_argument)
        << engine->name();
  }
}

TEST(MatchEngine, LowercaseInputIsDecodedByEveryEngine) {
  const std::vector<std::string> motifs{"GATTACA"};
  const std::string text = "ttgattacagattacatt";
  for (const auto& engine : applicable_engines(motifs)) {
    EXPECT_EQ(engine->count(text), 2u) << engine->name();
  }
}

/// A DFA-backed engine that reports no synchronization bound.
class BoundlessEngine final : public MatchEngine {
 public:
  [[nodiscard]] EngineKind kind() const noexcept override { return inner_->kind(); }
  [[nodiscard]] std::size_t synchronization_bound() const noexcept override { return 0; }
  [[nodiscard]] std::size_t pattern_count() const noexcept override {
    return inner_->pattern_count();
  }
  [[nodiscard]] std::uint64_t count_chunk(std::string_view text, std::size_t begin,
                                          std::size_t end) const override {
    return inner_->count_chunk(text, begin, end);
  }
  [[nodiscard]] std::uint64_t collect_chunk(std::string_view text, std::size_t begin,
                                            std::size_t end,
                                            std::vector<Match>& out) const override {
    return inner_->collect_chunk(text, begin, end, out);
  }
  [[nodiscard]] const DenseDfa* dfa() const noexcept override { return inner_->dfa(); }
  [[nodiscard]] const CompiledDfa* kernel() const noexcept override {
    return inner_->kernel();
  }

 private:
  std::unique_ptr<const MatchEngine> inner_ = lower(EngineKind::kCompiledDfa, {"ACGT"});
};

TEST(MatchEngine, EnginesWithoutABoundAreRejected) {
  // Every engine lowered from motifs has a bound, so construction through
  // the engine path succeeds.
  parallel::ThreadPool pool(2);
  for (const EngineKind kind : kAllEngineKinds) {
    const auto engine = lower(kind, {"ACGT", "GGWWCC"});
    EXPECT_EQ(engine->synchronization_bound(), 6u) << engine->name();
    EXPECT_NO_THROW(ParallelMatcher(*engine, pool)) << engine->name();
  }
  // An engine without one is rejected, a DFA behind it or not, and so is an
  // automaton whose bound is not set.
  EXPECT_THROW(ParallelMatcher(BoundlessEngine{}, pool), std::invalid_argument);
  DenseDfa dfa = *lower(EngineKind::kCompiledDfa, {"ACGT"})->dfa();
  dfa.set_synchronization_bound(0);
  EXPECT_THROW(DenseDfaEngine{dfa}, std::invalid_argument);
}

}  // namespace
}  // namespace hetopt::automata
