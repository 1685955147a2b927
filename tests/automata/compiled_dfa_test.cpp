// Property tests for the compiled scan kernels: every fast path — byte-fused,
// paired 2-bases-per-step, and the kernel-backed ParallelMatcher — must be
// byte-identical to the seed per-byte scanner loops (scan_count_naive /
// scan_collect_naive): counts, collected matches, final states, and
// invalid-byte errors. That includes count()'s split path, which scans long
// inputs on bounded automata as warmed sub-streams interleaved in one loop.
#include "automata/compiled_dfa.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "automata/aho_corasick.hpp"
#include "automata/hopcroft.hpp"
#include "automata/parallel_matcher.hpp"
#include "automata/regex.hpp"
#include "automata/scanner.hpp"
#include "automata/subset.hpp"
#include "dna/generator.hpp"

namespace hetopt::automata {
namespace {

/// A random (valid) automaton: arbitrary transitions, sparse accepts, random
/// start. Its synchronization bound is not set: CompiledDfa scans it without
/// splitting, and the match engines reject it.
DenseDfa random_dfa(std::mt19937_64& rng, std::uint32_t states) {
  DenseDfa dfa(states);
  std::uniform_int_distribution<std::uint32_t> pick_state(0, states - 1);
  for (StateId s = 0; s < states; ++s) {
    for (unsigned b = 0; b < dna::kAlphabetSize; ++b) {
      dfa.set_transition(s, static_cast<dna::Base>(b), pick_state(rng));
    }
    if (rng() % 4 == 0) {
      const std::uint64_t mask = 1 + rng() % 7;
      std::uint32_t count = 0;
      for (std::uint64_t m = mask; m != 0; m >>= 1) count += m & 1;
      dfa.set_accept(s, mask, count);
    }
  }
  dfa.set_start(pick_state(rng));
  EXPECT_TRUE(dfa.validate().empty());
  return dfa;
}

/// Random ACGT text with a sprinkle of lowercase (valid) characters.
std::string random_text(std::mt19937_64& rng, std::size_t size) {
  static constexpr char kChars[] = {'A', 'C', 'G', 'T', 'a', 'c', 'g', 't'};
  std::string text(size, 'A');
  for (char& c : text) c = kChars[rng() % 8];
  return text;
}

TEST(CompiledDfa, CountKernelsMatchNaiveOnRandomAutomata) {
  std::mt19937_64 rng(7);
  for (const std::uint32_t states : {1u, 2u, 5u, 17u, 47u}) {
    const DenseDfa dfa = random_dfa(rng, states);
    const CompiledDfa compiled(dfa);
    for (const std::size_t size : {0u, 1u, 2u, 3u, 7u, 255u, 256u, 4097u, 20000u}) {
      const std::string text = random_text(rng, size);
      const StateId entry = static_cast<StateId>(rng() % states);
      const ScanResult expect = scan_count_naive(dfa, text, entry);
      for (const ScanResult got :
           {compiled.count(text, entry), compiled.count_fused(text, entry),
            compiled.count_paired(text, entry), scan_count(dfa, text, entry)}) {
        EXPECT_EQ(got.final_state, expect.final_state)
            << "states=" << states << " size=" << size;
        EXPECT_EQ(got.match_count, expect.match_count)
            << "states=" << states << " size=" << size;
      }
    }
  }
}

TEST(CompiledDfa, CollectMatchesNaiveEventsAndOffsets) {
  std::mt19937_64 rng(13);
  const DenseDfa dfa = build_aho_corasick({"ACG", "CGT", "TT", "acgtacgt"});
  const CompiledDfa compiled(dfa);
  const std::string text = random_text(rng, 30000);
  std::vector<Match> expect;
  const ScanResult er = scan_collect_naive(dfa, text, dfa.start(), 1000, expect);
  std::vector<Match> got;
  const ScanResult gr = compiled.collect(text, dfa.start(), 1000, got);
  EXPECT_EQ(gr.final_state, er.final_state);
  EXPECT_EQ(gr.match_count, er.match_count);
  EXPECT_EQ(got, expect);
  // The dispatching wrapper too.
  std::vector<Match> wrapped;
  (void)scan_collect(dfa, text, dfa.start(), 1000, wrapped);
  EXPECT_EQ(wrapped, expect);
}

TEST(CompiledDfa, InvalidBytesThrowTheSeedScannerError) {
  std::mt19937_64 rng(17);
  const DenseDfa dfa = build_aho_corasick({"GATTACA", "TTT"});
  const CompiledDfa compiled(dfa);
  for (const std::size_t bad_pos : {0u, 1u, 5000u, 9998u, 9999u}) {
    std::string text = random_text(rng, 10000);
    text[bad_pos] = 'X';
    std::string expect_message;
    try {
      (void)scan_count_naive(dfa, text, dfa.start());
      FAIL() << "naive scanner accepted invalid input";
    } catch (const std::invalid_argument& e) {
      expect_message = e.what();
    }
    const auto expect_throw = [&](const std::function<void()>& fn) {
      try {
        fn();
        FAIL() << "kernel accepted invalid byte at " << bad_pos;
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()), expect_message) << "bad_pos=" << bad_pos;
      }
    };
    expect_throw([&] { (void)compiled.count(text, dfa.start()); });
    expect_throw([&] { (void)compiled.count_fused(text, dfa.start()); });
    expect_throw([&] { (void)compiled.count_paired(text, dfa.start()); });
    expect_throw([&] { (void)scan_count(dfa, text, dfa.start()); });
    // Collect must leave exactly the seed scanner's partial output behind.
    std::vector<Match> expect_partial;
    EXPECT_THROW(
        (void)scan_collect_naive(dfa, text, dfa.start(), 0, expect_partial),
        std::invalid_argument);
    std::vector<Match> got_partial;
    expect_throw([&] { (void)compiled.collect(text, dfa.start(), 0, got_partial); });
    EXPECT_EQ(got_partial, expect_partial) << "bad_pos=" << bad_pos;
  }
}

TEST(CompiledDfa, RejectsBadEntryStatesAndCorruptAutomata) {
  const DenseDfa dfa = build_aho_corasick({"AC"});
  const CompiledDfa compiled(dfa);
  EXPECT_THROW((void)compiled.count("AC", 999), std::out_of_range);
  EXPECT_THROW((void)compiled.count_paired(std::string(1000, 'A'), 999),
               std::out_of_range);
  DenseDfa broken(1);
  broken.set_accept(0, 5, 0);  // mask without count
  EXPECT_THROW(CompiledDfa{broken}, std::invalid_argument);
}

TEST(CompiledDfa, ExposesAutomatonMetadata) {
  const DenseDfa dfa = build_aho_corasick({"GATTACA"});
  const CompiledDfa compiled(dfa);
  EXPECT_EQ(compiled.state_count(), dfa.state_count());
  EXPECT_EQ(compiled.start(), dfa.start());
  EXPECT_EQ(compiled.sink(), dfa.state_count());
  EXPECT_EQ(compiled.synchronization_bound(), dfa.synchronization_bound());
  EXPECT_EQ(compiled.accept_count(compiled.sink()), 0u);
  for (StateId s = 0; s < dfa.state_count(); ++s) {
    EXPECT_EQ(compiled.accept_count(s), dfa.accept_count(s));
    EXPECT_EQ(compiled.accept_mask(s), dfa.accept_mask(s));
  }
}

// --- count()'s split path ---------------------------------------------------

/// A hand-built bounded automaton: the state is the last three bases read (a
/// shift register over 4^3 states), so the bound is 3 — two warm-up bytes
/// plus the first counted byte fix the state. Accepts and start are random.
DenseDfa shift_register_dfa(std::mt19937_64& rng) {
  constexpr std::uint32_t kStates = 64;
  DenseDfa dfa(kStates);
  for (StateId s = 0; s < kStates; ++s) {
    for (unsigned b = 0; b < dna::kAlphabetSize; ++b) {
      dfa.set_transition(s, static_cast<dna::Base>(b), (s * 4 + b) % kStates);
    }
    if (rng() % 3 == 0) dfa.set_accept(s, 1, 1 + static_cast<std::uint32_t>(rng() % 3));
  }
  dfa.set_start(static_cast<StateId>(rng() % kStates));
  dfa.set_synchronization_bound(3);
  EXPECT_TRUE(dfa.validate().empty());
  return dfa;
}

/// A hand-built bounded automaton whose accepts are too heavy for the quad
/// table: the state is the last two bases read (bound 2), and every state
/// accepts 64-127 times, so any four-step accept sum exceeds the table's
/// 8-bit count and the split path keeps every body on the byte loop.
DenseDfa heavy_accept_dfa(std::mt19937_64& rng) {
  constexpr std::uint32_t kStates = 16;
  DenseDfa dfa(kStates);
  for (StateId s = 0; s < kStates; ++s) {
    for (unsigned b = 0; b < dna::kAlphabetSize; ++b) {
      dfa.set_transition(s, static_cast<dna::Base>(b), (s * 4 + b) % kStates);
    }
    dfa.set_accept(s, 1, 64 + static_cast<std::uint32_t>(rng() % 64));
  }
  dfa.set_start(static_cast<StateId>(rng() % kStates));
  dfa.set_synchronization_bound(2);
  EXPECT_TRUE(dfa.validate().empty());
  return dfa;
}

/// A bounded automaton plus a bound-length occurrence to plant so it ends on
/// the first byte after a cut: only a full bound - 1 warm-up lead counts it.
struct BoundedCase {
  DenseDfa dfa;
  std::string plant;  // empty: the automaton needs no planting
};

/// The bounded automata the split path must stay exact on: Aho-Corasick
/// (one set with a motif long enough that 8x its lead outgrows the
/// kSplitMinBytes sub-stream floor), regex/IUPAC motifs determinized with and without
/// minimization, the hand-built shift register, and the heavy-accept
/// automaton that has no quad table.
std::vector<BoundedCase> bounded_automata(std::mt19937_64& rng) {
  std::vector<BoundedCase> out;
  out.push_back({build_aho_corasick({"GATTACA", "TTT", "ACGTACGTAC"}), "ACGTACGTAC"});
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  std::string long_motif(2500, 'A');
  for (char& c : long_motif) c = kBases[rng() % 4];
  out.push_back({build_aho_corasick({long_motif, "CCGG"}), long_motif});
  const auto iupac = compile_motifs({"TATAWAW", "GGN?CC", "RYACGT"});
  out.push_back({minimize(determinize(iupac.nfa, iupac.synchronization_bound)), "TATAAAT"});
  out.push_back({determinize(iupac.nfa, iupac.synchronization_bound), "TATATAA"});
  out.push_back({shift_register_dfa(rng), ""});
  out.push_back({heavy_accept_dfa(rng), ""});
  for (const BoundedCase& c : out) {
    EXPECT_GT(c.dfa.synchronization_bound(), 0u);
    EXPECT_TRUE(c.plant.empty() || c.plant.size() == c.dfa.synchronization_bound());
  }
  return out;
}

/// Smallest input count() splits on `kernel` (two sub-streams).
std::size_t split_threshold(const CompiledDfa& kernel) {
  return 2 * std::max(CompiledDfa::kSplitMinBytes, 8 * kernel.synchronization_bound());
}

/// Random text of `size` bytes with `plant` ending on the first byte of every
/// sub-stream count() cuts it into.
std::string split_text(std::mt19937_64& rng, const CompiledDfa& kernel, std::size_t size,
                       const std::string& plant) {
  std::string text = random_text(rng, size);
  const std::size_t streams = kernel.split_streams(size);
  for (std::size_t k = 1; k < streams && !plant.empty(); ++k) {
    const std::size_t cut = k * (size / streams);
    text.replace(cut + 1 - plant.size(), plant.size(), plant);
  }
  return text;
}

TEST(CompiledDfaSplit, StreamCountFollowsThresholdAndBound) {
  std::mt19937_64 rng(19);
  for (const BoundedCase& c : bounded_automata(rng)) {
    const CompiledDfa compiled(c.dfa);
    const std::size_t t = split_threshold(compiled);
    EXPECT_EQ(compiled.split_streams(0), 1u);
    EXPECT_EQ(compiled.split_streams(t - 1), 1u);
    EXPECT_EQ(compiled.split_streams(t), 2u);
    EXPECT_EQ(compiled.split_streams(3 * t / 2), 3u);
    EXPECT_EQ(compiled.split_streams(4 * t), CompiledDfa::kMaxStreams);
    EXPECT_EQ(compiled.split_streams(100 * t), CompiledDfa::kMaxStreams);
  }
  // An automaton whose bound is not set never splits.
  const CompiledDfa unbounded(random_dfa(rng, 9));
  EXPECT_EQ(unbounded.split_streams(std::size_t{1} << 30), 1u);
}

TEST(CompiledDfaSplit, CountMatchesNaiveAroundTheThreshold) {
  std::mt19937_64 rng(23);
  for (const auto& [dfa, plant] : bounded_automata(rng)) {
    const CompiledDfa compiled(dfa);
    const std::size_t t = split_threshold(compiled);
    // Below/at/above the threshold, 8x it, and lengths the stream count does
    // not divide (3, 5 and 7 sub-streams with odd remainders). t is a
    // multiple of 4, so the last six put every body 1, 2 or 3 bytes past its
    // last quad (8 and 3 sub-streams; the 3-stream ones also leave the last
    // body a 2-byte remainder).
    for (const std::size_t size :
         {t - 1, t, t + 1, 8 * t, 3 * t / 2 + 1, 5 * t / 2 + 3, 7 * t / 2 + 5,
          8 * (t + 1), 8 * (t + 2), 8 * (t + 3), 3 * (t / 2 + 1) + 2, 3 * (t / 2 + 2) + 2,
          3 * (t / 2 + 3) + 2}) {
      const std::string text = split_text(rng, compiled, size, plant);
      for (int trial = 0; trial < 3; ++trial) {
        const StateId entry =
            trial == 0 ? dfa.start() : static_cast<StateId>(rng() % dfa.state_count());
        const ScanResult expect = scan_count_naive(dfa, text, entry);
        const ScanResult got = compiled.count(text, entry);
        EXPECT_EQ(got.final_state, expect.final_state)
            << "bound=" << dfa.synchronization_bound() << " size=" << size
            << " entry=" << entry;
        EXPECT_EQ(got.match_count, expect.match_count)
            << "bound=" << dfa.synchronization_bound() << " size=" << size
            << " entry=" << entry;
      }
    }
  }
}

TEST(CompiledDfaSplit, InvalidBytesThrowTheSeedErrorForTheWholeText) {
  std::mt19937_64 rng(29);
  for (const auto& [dfa, plant] : bounded_automata(rng)) {
    const CompiledDfa compiled(dfa);
    const std::size_t n = 4 * split_threshold(compiled) + 7;  // 8 sub-streams
    ASSERT_EQ(compiled.split_streams(n), CompiledDfa::kMaxStreams);
    const std::size_t len = n / CompiledDfa::kMaxStreams;
    const std::size_t lead = compiled.synchronization_bound() - 1;
    // First and last byte, the middle of every sub-stream body, every cut,
    // and the first and last byte of every warm-up lead.
    std::vector<std::size_t> positions = {0, n - 1};
    for (std::size_t k = 0; k < CompiledDfa::kMaxStreams; ++k) {
      positions.push_back(k * len + len / 2);
      if (k == 0) continue;
      positions.push_back(k * len);
      positions.push_back(k * len - 1);
      positions.push_back(k * len - std::max<std::size_t>(lead, 1));
    }
    const std::string clean = split_text(rng, compiled, n, plant);
    std::vector<std::string> texts;
    for (const std::size_t pos : positions) {
      texts.push_back(clean);
      texts.back()[pos] = 'X';
      // A second, later bad byte in the last sub-stream must not win.
      if (pos + 2 < n) {
        texts.push_back(texts.back());
        texts.back()[n - 2] = '#';
      }
    }

    for (const std::string& text : texts) {
      const StateId entry = static_cast<StateId>(rng() % dfa.state_count());
      std::string expect_message;
      try {
        (void)scan_count_naive(dfa, text, entry);
        FAIL() << "naive scanner accepted invalid input";
      } catch (const std::invalid_argument& e) {
        expect_message = e.what();
      }
      for (const auto& scan : std::vector<std::function<ScanResult()>>{
               [&] { return compiled.count(text, entry); },
               [&] { return scan_count(dfa, text, entry); }}) {
        try {
          (void)scan();
          FAIL() << "kernel accepted invalid input (" << expect_message << ")";
        } catch (const std::invalid_argument& e) {
          EXPECT_EQ(std::string(e.what()), expect_message);
        }
      }
    }
    // Every non-ACGT byte value at each of the four offsets inside a quad of
    // a body (bodies start at multiples of len, and len is a multiple of 4),
    // spread over the sub-streams. The byte is the text's only bad one, so
    // the seed scanner's error is the one it raises for that byte alone.
    ASSERT_EQ(len % 4, 0u);
    std::string text = clean;
    for (unsigned value = 0; value < 256; ++value) {
      const char bad = static_cast<char>(value);
      if (std::string_view("ACGTacgt").find(bad) != std::string_view::npos) continue;
      std::string expect_message;
      try {
        (void)scan_count_naive(dfa, std::string(1, bad), dfa.start());
        FAIL() << "naive scanner accepted byte " << value;
      } catch (const std::invalid_argument& e) {
        expect_message = e.what();
      }
      for (std::size_t offset = 0; offset < 4; ++offset) {
        const std::size_t body = (value + offset) % CompiledDfa::kMaxStreams;
        const std::size_t pos = body * len + len / 2 + offset;
        text[pos] = bad;
        try {
          (void)compiled.count(text, dfa.start());
          FAIL() << "kernel accepted byte " << value << " at " << pos;
        } catch (const std::invalid_argument& e) {
          EXPECT_EQ(std::string(e.what()), expect_message) << "at " << pos;
        }
        text[pos] = clean[pos];
      }
    }
  }
}

TEST(CompiledDfaSplit, BadEntryStateStillThrowsOutOfRange) {
  const DenseDfa dfa = build_aho_corasick({"ACGT"});
  const CompiledDfa compiled(dfa);
  const std::string text(split_threshold(compiled), 'A');
  ASSERT_GT(compiled.split_streams(text.size()), 1u);
  EXPECT_THROW((void)compiled.count(text, dfa.state_count()), std::out_of_range);
}

TEST(CompiledDfaSplit, OneChunkPerWorkerMatcherStaysExact) {
  // The matcher's one-chunk-per-worker shapes hand count() chunks long
  // enough to split; every schedule must still agree with the sequential
  // oracle.
  parallel::ThreadPool pool(3);
  std::mt19937_64 rng(31);
  for (const BoundedCase& c : bounded_automata(rng)) {
    const DenseDfa& dfa = c.dfa;
    const CompiledDfa compiled(dfa);
    const std::string text = random_text(rng, 3 * 4 * split_threshold(compiled) + 11);
    const std::uint64_t expect = scan_count_naive(dfa, text, dfa.start()).match_count;
    ParallelMatcher matcher(dfa, pool);
    for (const std::size_t chunks : {1u, 3u}) {
      for (const parallel::SchedulePolicy schedule : parallel::kAllSchedulePolicies) {
        EXPECT_EQ(matcher.count(text, chunks, schedule).match_count, expect)
            << "chunks=" << chunks << " schedule=" << parallel::to_string(schedule);
      }
    }
  }
}

/// ParallelMatcher sweep: motif + hand-built automata x chunk counts, counts
/// and collected events vs sequential.
struct KernelSweepParam {
  std::uint64_t seed;
  std::size_t chunks;
};

class KernelMatcherSweep : public ::testing::TestWithParam<KernelSweepParam> {};

TEST_P(KernelMatcherSweep, ParallelPathsEqualSequential) {
  const auto [seed, chunks] = GetParam();
  std::mt19937_64 rng(seed);
  parallel::ThreadPool pool(3);

  // A motif automaton and the hand-built shift register (random accepts and
  // start state), both entered by the warm-up.
  const auto compiled_motifs = compile_motifs({"TATAWAW", "GGN?CC", "ACGT"});
  const DenseDfa motif_dfa =
      determinize(compiled_motifs.nfa, compiled_motifs.synchronization_bound);
  const DenseDfa shift_dfa = shift_register_dfa(rng);

  for (const DenseDfa* dfa : {&motif_dfa, &shift_dfa}) {
    const std::string text = random_text(rng, 20000 + 137 * seed);
    const ScanResult expect = scan_count_naive(*dfa, text, dfa->start());
    std::vector<Match> expect_events;
    (void)scan_collect_naive(*dfa, text, dfa->start(), 0, expect_events);

    ParallelMatcher matcher(*dfa, pool);
    const auto stats = matcher.count(text, chunks);
    EXPECT_EQ(stats.match_count, expect.match_count) << "chunks=" << chunks;
    std::vector<Match> events;
    (void)matcher.collect(text, chunks, events);
    EXPECT_EQ(events, expect_events) << "chunks=" << chunks;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndChunks, KernelMatcherSweep,
    ::testing::Values(KernelSweepParam{1, 1},  // single-chunk fast path
                      KernelSweepParam{2, 4}, KernelSweepParam{3, 7},
                      KernelSweepParam{4, 16}, KernelSweepParam{5, 33},
                      KernelSweepParam{6, 64}, KernelSweepParam{7, 12}));

TEST(KernelMatcher, ScratchReuseAcrossRunsIsInvisible) {
  // Back-to-back runs of different shapes on one matcher must not leak state
  // through the reused per-chunk scratch buffers.
  parallel::ThreadPool pool(2);
  const DenseDfa dfa = build_aho_corasick({"ACG", "TT"});
  const dna::GenomeGenerator gen;
  const std::string big = gen.generate(50000, 3);
  const std::string small = gen.generate(500, 4);
  ParallelMatcher matcher(dfa, pool);

  const std::uint64_t expect_big = scan_count_naive(dfa, big, dfa.start()).match_count;
  const std::uint64_t expect_small =
      scan_count_naive(dfa, small, dfa.start()).match_count;
  std::vector<Match> expect_events;
  (void)scan_collect_naive(dfa, small, dfa.start(), 0, expect_events);

  EXPECT_EQ(matcher.count(big, 16).match_count, expect_big);
  std::vector<Match> events;
  (void)matcher.collect(small, 3, events);
  EXPECT_EQ(events, expect_events);
  EXPECT_EQ(matcher.count(small, 7).match_count, expect_small);
  events.clear();
  (void)matcher.collect(big, 16, events);
  EXPECT_EQ(matcher.count(big, 2).match_count, expect_big);
}

}  // namespace
}  // namespace hetopt::automata
