#include "automata/regex.hpp"

#include <gtest/gtest.h>

#include <array>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>

#include "dna/alphabet.hpp"
#include "util/rng.hpp"

namespace hetopt::automata {
namespace {

TEST(RegexCompile, LiteralPattern) {
  const auto compiled = compile_motifs({"ACGT"});
  EXPECT_EQ(compiled.synchronization_bound, 4u);
  EXPECT_EQ(compiled.nfa.simulate("TTACGTTT"), 1u);
  EXPECT_EQ(compiled.nfa.simulate("ACG"), 0u);
}

TEST(RegexCompile, IupacClasses) {
  // W = A or T.
  const auto compiled = compile_motifs({"AWA"});
  EXPECT_EQ(compiled.nfa.simulate("AAA"), 1u);
  EXPECT_EQ(compiled.nfa.simulate("ATA"), 1u);
  EXPECT_EQ(compiled.nfa.simulate("AGA"), 0u);
}

TEST(RegexCompile, Alternation) {
  const auto compiled = compile_motifs({"CCC|GGG"});
  EXPECT_EQ(compiled.nfa.simulate("ACCCA"), 1u);
  EXPECT_EQ(compiled.nfa.simulate("AGGGA"), 1u);
  EXPECT_EQ(compiled.nfa.simulate("ACGCA"), 0u);
  EXPECT_EQ(compiled.synchronization_bound, 3u);
}

TEST(RegexCompile, OptionalAndGroups) {
  const auto compiled = compile_motifs({"GG(AC)?TT"});
  EXPECT_EQ(compiled.nfa.simulate("GGTT"), 1u);
  EXPECT_EQ(compiled.nfa.simulate("GGACTT"), 1u);
  EXPECT_EQ(compiled.nfa.simulate("GGATT"), 0u);
  EXPECT_EQ(compiled.synchronization_bound, 6u);
}

/// The message compile_motifs throws for `motifs`, or "" when it compiles.
std::string compile_error(const std::vector<std::string>& motifs) {
  try {
    (void)compile_motifs(motifs);
    return "";
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

TEST(RegexCompile, UnboundedRepetitionIsRejectedWithItsPosition) {
  // '*' and '+' have no longest match, so no warm-up could enter a chunk:
  // the grammar has no unbounded operator.
  EXPECT_EQ(compile_error({"GC(A)*GC"}),
            "motif 'GC(A)*GC': unbounded repetition '*' is not supported at position 5");
  EXPECT_EQ(compile_error({"GA+T"}),
            "motif 'GA+T': unbounded repetition '+' is not supported at position 2");
  // In any pattern of a set, after any atom, including after a valid '?'.
  EXPECT_EQ(compile_error({"ACGT", "TT(A?)+"}),
            "motif 'TT(A?)+': unbounded repetition '+' is not supported at position 6");
  EXPECT_EQ(compile_error({"A*"}),
            "motif 'A*': unbounded repetition '*' is not supported at position 1");
  // With no atom before it the operator is a plain syntax error.
  EXPECT_EQ(compile_error({"*AC"}), "motif '*AC': unexpected operator '*' at position 0");
}

TEST(RegexCompile, NestingDeeperThanTheCapIsRejected) {
  // A recursive-descent parser recurses once per open group: without the cap
  // a long enough motif overflows the stack.
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '(') + "A" + std::string(depth, ')');
  };
  EXPECT_EQ(compile_motifs({nested(kMaxMotifNesting)}).synchronization_bound, 1u);
  EXPECT_EQ(compile_error({nested(kMaxMotifNesting + 1)}),
            "motif '" + nested(kMaxMotifNesting + 1) + "': groups nested deeper than " +
                std::to_string(kMaxMotifNesting) + " at position " +
                std::to_string(kMaxMotifNesting));
  EXPECT_THROW((void)compile_motifs({nested(100000)}), std::invalid_argument);
  // Depth counts open groups, not groups in all: siblings never add up.
  std::string siblings;
  for (int i = 0; i < 1000; ++i) siblings += "(A)";
  EXPECT_EQ(compile_motifs({siblings}).synchronization_bound, 1000u);
}

TEST(RegexCompile, MultiplePatternsGetDistinctIds) {
  const auto compiled = compile_motifs({"AAA", "CCC"});
  EXPECT_EQ(compiled.nfa.simulate("AAA"), 1ULL << 0);
  EXPECT_EQ(compiled.nfa.simulate("CCC"), 1ULL << 1);
  EXPECT_EQ(compiled.nfa.simulate("AAACCC"), 3u);
  EXPECT_EQ(compiled.synchronization_bound, 3u);
}

TEST(RegexCompile, SyntaxErrorsCarryPosition) {
  EXPECT_THROW((void)compile_motifs({"AC(GT"}), std::invalid_argument);
  EXPECT_THROW((void)compile_motifs({"AC)GT"}), std::invalid_argument);
  EXPECT_THROW((void)compile_motifs({"*AC"}), std::invalid_argument);
  EXPECT_THROW((void)compile_motifs({"ACZT"}), std::invalid_argument);
  EXPECT_THROW((void)compile_motifs({""}), std::invalid_argument);
}

TEST(RegexCompile, EmptyMatchingPatternsRejected) {
  EXPECT_THROW((void)compile_motifs({"A?"}), std::invalid_argument);
  EXPECT_THROW((void)compile_motifs({"(A?)"}), std::invalid_argument);
  EXPECT_THROW((void)compile_motifs({"(|A)"}), std::invalid_argument);
}

TEST(RegexCompile, NoPatternsRejected) {
  EXPECT_THROW((void)compile_motifs({}), std::invalid_argument);
}

TEST(RegexCompile, TooManyPatternsRejected) {
  std::vector<std::string> many(kMaxPatterns + 1, "ACGT");
  EXPECT_THROW((void)compile_motifs(many), std::invalid_argument);
}

TEST(RegexCompile, NestedGroupsAndAlternation) {
  const auto compiled = compile_motifs({"A(C|G(T|A))C"});
  EXPECT_EQ(compiled.nfa.simulate("ACC"), 1u);
  EXPECT_EQ(compiled.nfa.simulate("AGTC"), 1u);
  EXPECT_EQ(compiled.nfa.simulate("AGAC"), 1u);
  EXPECT_EQ(compiled.nfa.simulate("AGC"), 0u);
}

// --- Seeded property test of the compile stage ------------------------------

/// Bytes the generators favour: IUPAC letters in both cases and the
/// grammar's operators, unbounded ones included.
constexpr std::string_view kMotifBytes = "ACGTRYSWKMBDHVNacgtryswkmbdhvn()|?*+";

constexpr std::array<std::string_view, 8> kValidMotifs = {
    "TATAWAW", "GGG(ACG)?TTT", "GC(N|NN)GC",  "CCWGG|GGWCC",
    "GGN?CC",  "A(C|G(T|A))C", "RYACGT",      "GGGNNNNNNNNNNNNCCC",
};

/// IUPAC letters in `motifs`: an upper bound on any pattern's longest match.
std::size_t iupac_letters(const std::vector<std::string>& motifs) {
  std::size_t n = 0;
  for (const std::string& m : motifs) {
    for (const char c : m) n += dna::iupac_from_char(c).has_value() ? 1 : 0;
  }
  return n;
}

/// "" when `motifs` compiles to a set whose bound lies in [1, IUPAC
/// letters], "invalid_argument" when it threw that, and the exception or
/// broken invariant otherwise. Compiles only: no determinize, no minimize,
/// so every case costs time linear in its length.
std::string compile_outcome(const std::vector<std::string>& motifs) {
  try {
    const CompiledMotifs compiled = compile_motifs(motifs);
    const std::size_t bound = compiled.synchronization_bound;
    if (bound < 1 || bound > iupac_letters(motifs)) {
      return "bound " + std::to_string(bound) + " out of range";
    }
    return "";
  } catch (const std::invalid_argument&) {
    return "invalid_argument";
  } catch (const std::exception& e) {
    return std::string("other exception: ") + e.what();
  }
}

/// A byte for a generated motif: mostly grammar bytes, sometimes any byte.
char motif_byte(util::Xoshiro256& rng) {
  return rng.bernoulli(0.8) ? kMotifBytes[rng.bounded(kMotifBytes.size())]
                            : static_cast<char>(rng.bounded(256));
}

TEST(RegexCompile, RandomStringsCompileOrThrowInvalidArgument) {
  util::Xoshiro256 rng(0x5E0F1ULL);
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string motif(rng.bounded(25), '\0');
    for (char& c : motif) c = motif_byte(rng);
    const std::string outcome = compile_outcome({motif});
    ASSERT_TRUE(outcome.empty() || outcome == "invalid_argument")
        << outcome << " for '" << motif << "'";
    accepted += outcome.empty() ? 1 : 0;
  }
  EXPECT_GT(accepted, 1000);  // the accept path is exercised too
}

TEST(RegexCompile, MutatedMotifsCompileOrThrowInvalidArgument) {
  util::Xoshiro256 rng(0x3D17EULL);
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    std::vector<std::string> motifs(1 + rng.bounded(3));
    for (std::string& m : motifs) m = kValidMotifs[rng.bounded(kValidMotifs.size())];
    std::string& motif = motifs[rng.bounded(motifs.size())];
    const auto edits = 1 + rng.bounded(4);
    for (std::uint64_t e = 0; e < edits; ++e) {
      const std::size_t at = rng.bounded(motif.size() + 1);
      const char byte = motif_byte(rng);
      switch (rng.bounded(4)) {
        case 0:  // insert
          motif.insert(at, 1, byte);
          break;
        case 1:  // delete
          if (at < motif.size()) motif.erase(at, 1);
          break;
        case 2:  // overwrite
          if (at < motif.size()) motif[at] = byte;
          break;
        default:  // duplicate a slice
          motif.insert(at, motif.substr(rng.bounded(motif.size() + 1), rng.bounded(12)));
          break;
      }
    }
    const std::string outcome = compile_outcome(motifs);
    ASSERT_TRUE(outcome.empty() || outcome == "invalid_argument")
        << outcome << " for '" << motif << "'";
    accepted += outcome.empty() ? 1 : 0;
  }
  EXPECT_GT(accepted, 1000);  // the accept path is exercised too
}

}  // namespace
}  // namespace hetopt::automata
