// Cross-ISA parity for the SIMD engine tier: every vector variant the host
// can run (and the forced-scalar path) must produce counts, collected match
// events, and error behavior byte-identical to BitapMatcher — the one-stream
// Shift-And recurrence, scanned from offset 0 — across random motif sets,
// chunk counts, and every schedule policy. Every level's quad pack (the
// feed of CompiledDfa's stride-4 split count) must equal a plain per-byte
// reference. Suite names matter: the `simd_parity` ctest entry runs exactly
// SimdEngine* and SimdDispatch*.
#include "automata/simd_engine.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "automata/compiled_dfa.hpp"
#include "automata/hopcroft.hpp"
#include "automata/parallel_matcher.hpp"
#include "automata/regex.hpp"
#include "automata/scanner.hpp"
#include "automata/simd/simd_kernels.hpp"
#include "automata/subset.hpp"
#include "dna/generator.hpp"
#include "parallel/thread_pool.hpp"

namespace hetopt::automata {
namespace {

/// Saves and restores HETOPT_FORCE_ISA around a test (the CI forced-scalar
/// job sets it process-wide; tests must not clobber it for later tests).
class ForceIsaGuard {
 public:
  ForceIsaGuard() {
    const char* value = std::getenv("HETOPT_FORCE_ISA");
    if (value != nullptr) {
      had_value_ = true;
      value_ = value;
    }
  }
  ~ForceIsaGuard() {
    if (had_value_) {
      ::setenv("HETOPT_FORCE_ISA", value_.c_str(), 1);
    } else {
      ::unsetenv("HETOPT_FORCE_ISA");
    }
  }

 private:
  bool had_value_ = false;
  std::string value_;
};

std::string random_literal(std::mt19937_64& rng) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  std::string p(2 + rng() % 7, 'A');
  for (char& c : p) c = kBases[rng() % 4];
  return p;
}

std::string random_iupac(std::mt19937_64& rng) {
  static constexpr char kIupac[] = {'A', 'C', 'G', 'T', 'W', 'S', 'R', 'Y', 'N'};
  std::string p(3 + rng() % 5, 'A');
  for (char& c : p) c = kIupac[rng() % 9];
  return p;
}

/// Random genome with some positions folded to lowercase, so the kernels'
/// case-folded byte tables see mixed-case input.
std::string random_text(std::mt19937_64& rng, std::size_t size, std::uint64_t seed) {
  const dna::GenomeGenerator gen;
  std::string text = gen.generate(size, seed);
  for (std::size_t i = 0; i < text.size() / 10; ++i) {
    char& c = text[rng() % text.size()];
    c = static_cast<char>(c | 0x20);
  }
  return text;
}

TEST(SimdEngine, BitapCountParityAcrossIsasOnRandomMotifSets) {
  std::mt19937_64 rng(71);
  const std::vector<util::IsaLevel> isas = simd::available_isas();
  ASSERT_FALSE(isas.empty());
  for (std::uint64_t round = 0; round < 8; ++round) {
    std::vector<std::string> motifs;
    const std::size_t n = 1 + rng() % 5;
    for (std::size_t i = 0; i < n; ++i) {
      motifs.push_back(round % 2 == 0 ? random_literal(rng) : random_iupac(rng));
    }
    if (!BitapMatcher::supports(motifs)) continue;
    const std::string text = random_text(rng, 30000 + rng() % 50000, round);
    const BitapMatcher scalar(motifs);
    const std::uint64_t expected = scalar.count(text);
    for (const util::IsaLevel isa : isas) {
      const BitapSimdEngine simd(motifs, isa);
      EXPECT_EQ(simd.isa(), isa);
      EXPECT_EQ(simd.count(text), expected)
          << util::to_string(isa) << " round " << round;
    }
  }
}

TEST(SimdEngine, BitapChunkedCountParityAcrossIsasChunksAndSchedules) {
  std::mt19937_64 rng(73);
  parallel::ThreadPool pool(4);
  const std::vector<util::IsaLevel> isas = simd::available_isas();
  for (std::uint64_t round = 0; round < 3; ++round) {
    std::vector<std::string> motifs;
    const std::size_t n = 1 + rng() % 4;
    for (std::size_t i = 0; i < n; ++i) motifs.push_back(random_literal(rng));
    std::string text = random_text(rng, 60000, 100 + round);
    // Plant a motif across chunk boundaries so cross-chunk warm-up matters.
    for (std::size_t boundary = text.size() / 7; boundary < text.size();
         boundary += text.size() / 7) {
      const std::string& m = motifs[boundary % motifs.size()];
      if (boundary >= m.size()) text.replace(boundary - m.size() / 2, m.size(), m);
    }
    const BitapMatcher scalar(motifs);
    const std::uint64_t expected = scalar.count(text);
    for (const util::IsaLevel isa : isas) {
      const BitapSimdEngine simd(motifs, isa);
      const ParallelMatcher matcher(simd, pool);
      for (const std::size_t chunks : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
        for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
          EXPECT_EQ(matcher.count(text, chunks, policy).match_count, expected)
              << util::to_string(isa) << " chunks " << chunks << " schedule "
              << to_string(policy);
        }
      }
    }
  }
}

TEST(SimdEngine, BitapCollectParityAcrossIsas) {
  std::mt19937_64 rng(79);
  parallel::ThreadPool pool(4);
  const std::vector<std::string> motifs{"GATTACA", "CCGG", "TTT"};
  const std::string text = random_text(rng, 40000, 7);
  const BitapMatcher scalar(motifs);
  std::vector<Match> expected;
  (void)scalar.collect(text, 0, expected);
  ASSERT_FALSE(expected.empty());
  for (const util::IsaLevel isa : simd::available_isas()) {
    const BitapSimdEngine simd(motifs, isa);
    std::vector<Match> got;
    EXPECT_EQ(simd.collect(text, got), expected.size());
    EXPECT_EQ(got, expected) << util::to_string(isa);
    // And through the chunked matcher across schedules.
    const ParallelMatcher matcher(simd, pool);
    for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
      std::vector<Match> chunked;
      EXPECT_EQ(matcher.collect(text, 9, chunked, policy).match_count,
                expected.size());
      EXPECT_EQ(chunked, expected)
          << util::to_string(isa) << " schedule " << to_string(policy);
    }
  }
}

TEST(SimdEngine, InvalidByteErrorsMatchTheScalarEnginesExactly) {
  const std::vector<std::string> motifs{"GATTACA", "CCGG"};
  const dna::GenomeGenerator gen;
  std::string text = gen.generate(50000, 17);
  text[text.size() / 2] = 'X';

  const auto message_of = [&](const auto& scan) -> std::string {
    try {
      scan();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };

  const BitapMatcher scalar(motifs);
  const std::string scalar_message = message_of([&] { (void)scalar.count(text); });
  ASSERT_NE(scalar_message.find('X'), std::string::npos);

  for (const util::IsaLevel isa : simd::available_isas()) {
    const BitapSimdEngine simd(motifs, isa);
    EXPECT_EQ(message_of([&] { (void)simd.count_chunk(text, 0, text.size()); }),
              scalar_message)
        << util::to_string(isa);
  }
}

TEST(SimdEngine, PartialCollectOnInvalidInputMatchesTheScalarEvents) {
  // On invalid input, whatever events a collect appended before throwing
  // must equal the scalar matcher's pre-throw event set — recovery code
  // replays chunks and must not see ISA-dependent partial output.
  const std::vector<std::string> motifs{"GAT", "CCG"};
  const dna::GenomeGenerator gen;
  std::string text = gen.generate(30000, 19);
  text.replace(100, 3, "GAT");
  text[text.size() - 5000] = '?';

  std::string scalar_message;
  const BitapMatcher scalar(motifs);
  std::vector<Match> scalar_events;
  try {
    (void)scalar.collect(text, 0, scalar_events);
  } catch (const std::invalid_argument& e) {
    scalar_message = e.what();
  }
  ASSERT_FALSE(scalar_message.empty());
  ASSERT_FALSE(scalar_events.empty());

  for (const util::IsaLevel isa : simd::available_isas()) {
    const BitapSimdEngine simd(motifs, isa);
    std::string message;
    std::vector<Match> events;
    try {
      (void)simd.collect_chunk(text, 0, text.size(), events);
    } catch (const std::invalid_argument& e) {
      message = e.what();
    }
    EXPECT_EQ(events, scalar_events) << util::to_string(isa);
    EXPECT_EQ(message, scalar_message);
  }
}

TEST(SimdEngine, LaneCountMatchesTheIsa) {
  const std::vector<std::string> motifs{"ACGT"};
  for (const util::IsaLevel isa : simd::available_isas()) {
    const BitapSimdEngine engine(motifs, isa);
    switch (isa) {
      case util::IsaLevel::kScalar:
        EXPECT_EQ(engine.lanes(), 1u);
        break;
      case util::IsaLevel::kAvx2:
        EXPECT_EQ(engine.lanes(), 4u);
        break;
    }
  }
}

TEST(SimdDispatch, AvailableIsasStartScalarAndAscend) {
  const std::vector<util::IsaLevel> isas = simd::available_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), util::IsaLevel::kScalar);
  for (std::size_t i = 1; i < isas.size(); ++i) {
    EXPECT_LT(static_cast<int>(isas[i - 1]), static_cast<int>(isas[i]));
  }
}

TEST(SimdDispatch, ResolvePrecedenceIsRequestThenEnvThenWidest) {
  const ForceIsaGuard guard;
  ::unsetenv("HETOPT_FORCE_ISA");
  const std::vector<util::IsaLevel> isas = simd::available_isas();
  // No request, no env: the widest available level.
  EXPECT_EQ(simd::resolve_isa(std::nullopt), isas.back());
  // An explicit request wins even against the env override.
  ::setenv("HETOPT_FORCE_ISA", "scalar", 1);
  EXPECT_EQ(simd::resolve_isa(isas.back()), isas.back());
  // The env override applies when no request is made.
  EXPECT_EQ(simd::resolve_isa(std::nullopt), util::IsaLevel::kScalar);
}

TEST(SimdDispatch, ForcedScalarEnvironmentGovernsEngineConstruction) {
  const ForceIsaGuard guard;
  const std::vector<std::string> motifs{"GATTACA"};
  ::setenv("HETOPT_FORCE_ISA", "scalar", 1);
  const BitapSimdEngine forced(motifs);
  EXPECT_EQ(forced.isa(), util::IsaLevel::kScalar);
  EXPECT_EQ(forced.lanes(), 1u);
  ::unsetenv("HETOPT_FORCE_ISA");
  const BitapSimdEngine widest(motifs);
  EXPECT_EQ(widest.isa(), simd::available_isas().back());
}

TEST(SimdDispatch, UnknownOrUnavailableForcedIsaIsAHardError) {
  const ForceIsaGuard guard;
  const std::vector<std::string> motifs{"GATTACA"};
  ::setenv("HETOPT_FORCE_ISA", "turbo", 1);
  EXPECT_THROW((void)BitapSimdEngine(motifs), std::runtime_error);
  ::unsetenv("HETOPT_FORCE_ISA");
  // A level the host cannot run (or that was not compiled in) must throw,
  // never silently fall back. Only checkable when some level is unavailable.
  bool all_available = true;
  for (const util::IsaLevel level : {util::IsaLevel::kScalar, util::IsaLevel::kAvx2}) {
    bool found = false;
    for (const util::IsaLevel a : simd::available_isas()) found |= a == level;
    if (!found) {
      all_available = false;
      EXPECT_THROW((void)BitapSimdEngine(motifs, level), std::runtime_error);
      EXPECT_THROW((void)simd::bitap_kernel(level), std::runtime_error);
      EXPECT_THROW((void)simd::quad_pack(level), std::runtime_error);
    }
  }
  if (all_available) {
    GTEST_SKIP() << "every ISA level is runnable on this host";
  }
}

// --- The quad pack -----------------------------------------------------------

/// The quad pack's contract, one byte at a time: a base's code is its index
/// in "ACGT" (either case); any other byte b codes as ((b >> 1) ^ (b >> 2)) & 3.
std::uint8_t reference_code(unsigned char b) {
  static constexpr char kBases[] = "ACGT";
  for (std::uint8_t code = 0; code < 4; ++code) {
    if (b == kBases[code] || b == (kBases[code] | 0x20)) return code;
  }
  return static_cast<std::uint8_t>(((b >> 1) ^ (b >> 2)) & 3);
}

bool reference_valid(unsigned char b) {
  return std::string_view("ACGTacgt").find(static_cast<char>(b)) != std::string_view::npos;
}

/// Packs `text` (4 bytes per quad) one byte at a time.
std::vector<std::uint8_t> reference_pack(const std::vector<char>& text, bool* valid) {
  std::vector<std::uint8_t> quads(text.size() / 4, 0);
  *valid = true;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto b = static_cast<unsigned char>(text[i]);
    quads[i / 4] = static_cast<std::uint8_t>(quads[i / 4] << 2 | reference_code(b));
    *valid = *valid && reference_valid(b);
  }
  return quads;
}

TEST(SimdDispatchQuadPack, EveryIsaEqualsThePlainReferenceOnEveryByteValue) {
  std::mt19937_64 rng(79);
  static constexpr char kValid[] = {'A', 'C', 'G', 'T', 'a', 'c', 'g', 't'};
  // 1-72 quads leave every tail of 0-31 quads after zero or one 32-quad
  // block, and 0-8 after two.
  for (std::size_t quads = 1; quads <= 72; ++quads) {
    std::vector<char> clean(4 * quads);
    for (char& c : clean) c = kValid[rng() % 8];
    for (unsigned value = 0; value < 256; ++value) {
      for (std::size_t offset = 0; offset < 4; ++offset) {
        // The byte goes into the first, a middle or the last quad.
        for (const std::size_t quad : {std::size_t{0}, quads / 2, quads - 1}) {
          // Exactly 4 * quads bytes: a pack reading past its last quad
          // reads past the allocation.
          std::vector<char> text = clean;
          text[4 * quad + offset] = static_cast<char>(value);
          bool expect_valid = false;
          const std::vector<std::uint8_t> expect = reference_pack(text, &expect_valid);
          for (const util::IsaLevel isa : simd::available_isas()) {
            std::vector<std::uint8_t> got(quads, 0);
            const bool valid = simd::quad_pack(isa)(text.data(), quads, got.data());
            ASSERT_EQ(valid, expect_valid) << util::to_string(isa) << " quads=" << quads
                                           << " byte=" << value << " at " << 4 * quad + offset;
            ASSERT_EQ(got, expect) << util::to_string(isa) << " quads=" << quads
                                   << " byte=" << value << " at " << 4 * quad + offset;
          }
        }
      }
    }
  }
}

TEST(SimdDispatchQuadPack, SplitCountsAgreeUnderEveryForcedIsa) {
  // CompiledDfa resolves its pack at construction, so forcing the ISA there
  // switches the stride-4 split count's feed; counts and errors must not
  // move.
  const ForceIsaGuard guard;
  std::mt19937_64 rng(83);
  const auto motifs = compile_motifs({"TATAWAW", "GGGCGG", "GGN?CC"});
  const DenseDfa dfa = minimize(determinize(motifs.nfa, motifs.synchronization_bound));
  const std::string text = random_text(rng, 100003, 5);
  const ScanResult expect = scan_count_naive(dfa, text, dfa.start());
  std::string bad = text;
  bad[60001] = 'N';
  for (const util::IsaLevel isa : simd::available_isas()) {
    ::setenv("HETOPT_FORCE_ISA", util::to_string(isa), 1);
    const CompiledDfa compiled(dfa);
    ASSERT_GT(compiled.split_streams(text.size()), 1u);
    const ScanResult got = compiled.count(text, dfa.start());
    EXPECT_EQ(got.final_state, expect.final_state) << util::to_string(isa);
    EXPECT_EQ(got.match_count, expect.match_count) << util::to_string(isa);
    try {
      (void)compiled.count(bad, dfa.start());
      ADD_FAILURE() << util::to_string(isa) << " accepted an invalid byte";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), "scan: invalid base 'N'") << util::to_string(isa);
    }
  }
}

}  // namespace
}  // namespace hetopt::automata
