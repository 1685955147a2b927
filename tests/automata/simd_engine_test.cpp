// Cross-ISA parity for the SIMD engine tier: every vector variant the host
// can run (and the forced-scalar path) must produce counts, collected match
// events, and error behavior byte-identical to the scalar engines, across
// random motif sets, chunk counts, and every schedule policy. Suite names
// matter: the `simd_parity` ctest entry runs exactly SimdEngine* and
// SimdDispatch*.
#include "automata/simd_engine.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "automata/match_engine.hpp"
#include "automata/parallel_matcher.hpp"
#include "automata/simd/simd_kernels.hpp"
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

/// Random genome with some positions folded to lowercase, so the prefilter's
/// case-folding vector compare sees mixed-case input.
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
    const BitapEngine scalar(motifs);
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
    const BitapEngine scalar(motifs);
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
  const BitapEngine scalar(motifs);
  std::vector<Match> expected;
  (void)scalar.collect(text, expected);
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

TEST(SimdEngine, PrefilterCountAndCollectParityAcrossIsas) {
  std::mt19937_64 rng(83);
  parallel::ThreadPool pool(4);
  // "CCGT" leaves A/G/T quiet at the start state; a text that is mostly 'A'
  // exercises long vector skips, the random tail exercises dense stepping.
  const std::vector<std::string> motifs{"CCGT", "GWCC"};
  std::string text(20000, 'A');
  text += random_text(rng, 40000, 11);
  text.replace(500, 4, "CCGT");
  text.replace(text.size() - 777, 4, "CCGT");
  const auto oracle = lower(EngineKind::kCompiledDfa, motifs);
  const std::uint64_t expected = oracle->count(text);
  std::vector<Match> expected_matches;
  (void)oracle->collect(text, expected_matches);
  ASSERT_FALSE(expected_matches.empty());
  for (const util::IsaLevel isa : simd::available_isas()) {
    const PrefilterDfaEngine prefilter(motifs, isa);
    EXPECT_TRUE(prefilter.skip_enabled());
    EXPECT_EQ(prefilter.quiet_base_count(), 2u);  // A and T; C/G/W open motifs
    EXPECT_EQ(prefilter.count(text), expected) << util::to_string(isa);
    std::vector<Match> got;
    EXPECT_EQ(prefilter.collect(text, got), expected);
    EXPECT_EQ(got, expected_matches) << util::to_string(isa);
    // The chunked path drives this engine through the generic chunk-aware
    // interface (it exposes no DFA kernel on purpose).
    EXPECT_EQ(prefilter.kernel(), nullptr);
    const ParallelMatcher matcher(prefilter, pool);
    for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
      EXPECT_EQ(matcher.count(text, 11, policy).match_count, expected)
          << util::to_string(isa) << " schedule " << to_string(policy);
      std::vector<Match> chunked;
      (void)matcher.collect(text, 11, chunked, policy);
      EXPECT_EQ(chunked, expected_matches)
          << util::to_string(isa) << " schedule " << to_string(policy);
    }
  }
}

TEST(SimdEngine, PrefilterDisabledSetsStillCountExactly) {
  // Motifs opening with every base leave no byte quiet: the skip degenerates
  // to the plain fused scan and stays exact.
  const std::vector<std::string> motifs{"AAC", "CCG", "GGT", "TTA"};
  const dna::GenomeGenerator gen;
  const std::string text = gen.generate(20000, 3);
  const auto oracle = lower(EngineKind::kCompiledDfa, motifs);
  for (const util::IsaLevel isa : simd::available_isas()) {
    const PrefilterDfaEngine prefilter(motifs, isa);
    EXPECT_FALSE(prefilter.skip_enabled());
    EXPECT_EQ(prefilter.quiet_base_count(), 0u);
    EXPECT_EQ(prefilter.count(text), oracle->count(text)) << util::to_string(isa);
  }
}

TEST(SimdEngine, InvalidByteErrorsMatchTheScalarEnginesExactly) {
  const std::vector<std::string> motifs{"GATTACA", "CCGG"};
  const dna::GenomeGenerator gen;
  std::string text = gen.generate(50000, 17);
  text[text.size() / 2] = 'X';

  const auto message_of = [&](const MatchEngine& engine) -> std::string {
    try {
      (void)engine.count_chunk(text, 0, text.size());
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };

  const BitapEngine scalar_bitap(motifs);
  const std::string bitap_message = message_of(scalar_bitap);
  ASSERT_NE(bitap_message.find('X'), std::string::npos);
  const auto dfa = lower(EngineKind::kCompiledDfa, motifs);
  const std::string dfa_message = message_of(*dfa);
  ASSERT_NE(dfa_message.find('X'), std::string::npos);

  for (const util::IsaLevel isa : simd::available_isas()) {
    const BitapSimdEngine simd(motifs, isa);
    EXPECT_EQ(message_of(simd), bitap_message) << util::to_string(isa);
    const PrefilterDfaEngine prefilter(motifs, isa);
    EXPECT_EQ(message_of(prefilter), dfa_message) << util::to_string(isa);
  }
}

TEST(SimdEngine, PartialCollectOnInvalidInputMatchesTheScalarEvents) {
  // On invalid input, whatever events a collect appended before throwing
  // must equal the scalar engine's pre-throw event set — recovery code
  // replays chunks and must not see ISA-dependent partial output.
  const std::vector<std::string> motifs{"GAT", "CCG"};
  const dna::GenomeGenerator gen;
  std::string text = gen.generate(30000, 19);
  text.replace(100, 3, "GAT");
  text[text.size() - 5000] = '?';

  const auto events_of = [&](const MatchEngine& engine, std::string* message) {
    std::vector<Match> out;
    try {
      (void)engine.collect_chunk(text, 0, text.size(), out);
    } catch (const std::invalid_argument& e) {
      *message = e.what();
    }
    return out;
  };

  std::string scalar_message;
  const BitapEngine scalar_bitap(motifs);
  const std::vector<Match> bitap_events = events_of(scalar_bitap, &scalar_message);
  ASSERT_FALSE(scalar_message.empty());
  ASSERT_FALSE(bitap_events.empty());

  std::string dfa_message;
  const auto dfa = lower(EngineKind::kCompiledDfa, motifs);
  const std::vector<Match> dfa_events = events_of(*dfa, &dfa_message);
  ASSERT_FALSE(dfa_message.empty());

  for (const util::IsaLevel isa : simd::available_isas()) {
    std::string message;
    const BitapSimdEngine simd(motifs, isa);
    EXPECT_EQ(events_of(simd, &message), bitap_events) << util::to_string(isa);
    EXPECT_EQ(message, scalar_message);
    message.clear();
    const PrefilterDfaEngine prefilter(motifs, isa);
    EXPECT_EQ(events_of(prefilter, &message), dfa_events) << util::to_string(isa);
    EXPECT_EQ(message, dfa_message);
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
      case util::IsaLevel::kSse2:
        EXPECT_EQ(engine.lanes(), 2u);
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
  const PrefilterDfaEngine prefilter(motifs);
  EXPECT_EQ(prefilter.isa(), util::IsaLevel::kScalar);
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
  for (const util::IsaLevel level :
       {util::IsaLevel::kScalar, util::IsaLevel::kSse2, util::IsaLevel::kAvx2}) {
    bool found = false;
    for (const util::IsaLevel a : simd::available_isas()) found |= a == level;
    if (!found) {
      all_available = false;
      EXPECT_THROW((void)BitapSimdEngine(motifs, level), std::runtime_error);
      EXPECT_THROW((void)simd::bitap_kernel(level), std::runtime_error);
    }
  }
  if (all_available) {
    GTEST_SKIP() << "every ISA level is runnable on this host";
  }
}

// --- Density-aware prefilter cutoff ----------------------------------------

TEST(SimdEngine, DenseSampleDisablesTheSkipButStaysExact) {
  // "CCGT"/"GWCC" leave A and T quiet. A sample with no quiet byte at all
  // (pure CG alternation) measures a mean quiet run of zero: the vector
  // probe would fire on every byte, so the skip self-disables and the
  // engine degenerates to the plain fused scan — still exact.
  const std::vector<std::string> motifs{"CCGT", "GWCC"};
  const std::string dense_sample(4096, 'C');
  std::mt19937_64 rng(91);
  std::string text = random_text(rng, 30000, 7);
  text.replace(100, 4, "CCGT");
  const auto oracle = lower(EngineKind::kCompiledDfa, motifs);
  for (const util::IsaLevel isa : simd::available_isas()) {
    const PrefilterDfaEngine probed(motifs, isa, dense_sample);
    EXPECT_FALSE(probed.skip_enabled()) << util::to_string(isa);
    EXPECT_EQ(probed.sampled_quiet_run(), 0.0);
    EXPECT_GT(probed.density_cutoff(), 0.0);
    EXPECT_EQ(probed.count(text), oracle->count(text)) << util::to_string(isa);
    std::vector<Match> got;
    std::vector<Match> want;
    (void)probed.collect(text, got);
    (void)oracle->collect(text, want);
    EXPECT_EQ(got, want) << util::to_string(isa);
  }
}

TEST(SimdEngine, SparseSampleKeepsTheSkipEnabled) {
  // Long quiet runs (mostly-'A' corpus) are exactly what the skip is for.
  const std::vector<std::string> motifs{"CCGT", "GWCC"};
  std::string sparse_sample(4096, 'A');
  sparse_sample.replace(1000, 4, "CCGT");
  std::string text(30000, 'A');
  text.replace(500, 4, "CCGT");
  text.replace(20000, 4, "CCGT");
  const auto oracle = lower(EngineKind::kCompiledDfa, motifs);
  for (const util::IsaLevel isa : simd::available_isas()) {
    const PrefilterDfaEngine probed(motifs, isa, sparse_sample);
    EXPECT_TRUE(probed.skip_enabled()) << util::to_string(isa);
    EXPECT_GE(probed.sampled_quiet_run(), probed.density_cutoff());
    EXPECT_EQ(probed.count(text), oracle->count(text)) << util::to_string(isa);
  }
}

TEST(SimdEngine, EmptySampleKeepsTheStaticRule) {
  // No sample means no probe: the pre-probe behavior (skip whenever the
  // byte classes allow it) is preserved, so existing callers see no change.
  const std::vector<std::string> motifs{"CCGT", "GWCC"};
  const PrefilterDfaEngine unprobed(motifs, std::nullopt, std::string_view{});
  EXPECT_TRUE(unprobed.skip_enabled());
  EXPECT_EQ(unprobed.sampled_quiet_run(), 0.0);
  EXPECT_EQ(unprobed.density_cutoff(), 0.0);  // probe never ran
}

TEST(SimdEngine, DensityCutoffIsIsaAdaptive) {
  // Mean quiet run of exactly 3: "AAA" quiet islands between candidate 'C's.
  // The scalar probe (cutoff 2) keeps the skip; a vector probe (cutoff 4)
  // must clear more bytes per step to pay for itself and disables it.
  const std::vector<std::string> motifs{"CCGT", "GWCC"};
  std::string sample;
  for (int i = 0; i < 512; ++i) sample += "AAAC";
  const PrefilterDfaEngine scalar(motifs, util::IsaLevel::kScalar, sample);
  EXPECT_DOUBLE_EQ(scalar.sampled_quiet_run(), 3.0);
  EXPECT_DOUBLE_EQ(scalar.density_cutoff(), 2.0);
  EXPECT_TRUE(scalar.skip_enabled());
  for (const util::IsaLevel isa : simd::available_isas()) {
    if (isa == util::IsaLevel::kScalar) continue;
    const PrefilterDfaEngine vector(motifs, isa, sample);
    EXPECT_DOUBLE_EQ(vector.sampled_quiet_run(), 3.0);
    EXPECT_DOUBLE_EQ(vector.density_cutoff(), 4.0);
    EXPECT_FALSE(vector.skip_enabled()) << util::to_string(isa);
  }
}

TEST(SimdEngine, TryLowerThreadsTheDensitySampleThrough) {
  const std::vector<std::string> motifs{"CCGT"};
  const std::string dense(1024, 'C');
  const auto probed = try_lower(EngineKind::kPrefilterDfa, motifs, nullptr, dense);
  ASSERT_NE(probed, nullptr);
  const auto* engine = dynamic_cast<const PrefilterDfaEngine*>(probed.get());
  ASSERT_NE(engine, nullptr);
  EXPECT_FALSE(engine->skip_enabled());
  // Other engine kinds ignore the sample (it is advisory, not semantic).
  const auto bitap = try_lower(EngineKind::kBitap, motifs, nullptr, dense);
  ASSERT_NE(bitap, nullptr);
  EXPECT_EQ(bitap->kind(), EngineKind::kBitap);
}

}  // namespace
}  // namespace hetopt::automata
