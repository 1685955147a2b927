// MatchEngine: the scan engine as a first-class, swappable component.
//
// The repo owns three independent ways to execute a motif search — the
// compiled dense-DFA kernels (regex subset construction + minimization), the
// Aho–Corasick multi-pattern automaton, and the bit-parallel Shift-And
// matcher. Everything above the automata layer used to be hard-wired to the
// dense-DFA path; this interface lifts the engine into an axis the tuner can
// move through (opt::SystemConfig carries an EngineKind next to the
// thread/affinity knobs).
//
// The contract is chunk-aware: count_chunk(text, begin, end) counts the
// occurrences whose end positions lie in (begin, end], and the engine may
// read up to synchronization_bound()-1 bytes *before* begin to warm up —
// exactly the PaREM warm-up protocol, so chunked scans stay exact for motifs
// spanning chunk boundaries. Engines without a DFA behind them must declare a
// positive synchronization bound; DFA-backed engines additionally expose the
// automaton + lowered kernel, which ParallelMatcher's speculative waves scan
// on when the automaton has no bound.
//
// lower()/try_lower() build the right engine for a motif set; engine_gap()
// reports applicability (AC needs literal ACGT patterns, Bitap needs <= 64
// summed pattern bits and no regex operators) without constructing anything.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "automata/bitap.hpp"
#include "automata/compiled_dfa.hpp"
#include "automata/dense_dfa.hpp"
#include "automata/engine_kind.hpp"

namespace hetopt::automata {

class MatchEngine {
 public:
  virtual ~MatchEngine() = default;

  [[nodiscard]] virtual EngineKind kind() const noexcept = 0;
  [[nodiscard]] std::string_view name() const noexcept { return to_string(kind()); }

  /// Longest motif the engine matches: any scan state is fully determined by
  /// the previous synchronization_bound()-1 input bytes. 0 = unknown
  /// (unbounded patterns), allowed only for DFA-backed engines.
  [[nodiscard]] virtual std::size_t synchronization_bound() const noexcept = 0;
  [[nodiscard]] virtual std::size_t pattern_count() const noexcept = 0;

  /// Counts the occurrences whose end positions lie in (begin, end]. The
  /// engine may read text[begin - lead, begin) as warm-up context, where
  /// lead = min(synchronization_bound() - 1, begin). Throws
  /// std::invalid_argument on non-ACGT bytes in the scanned range.
  [[nodiscard]] virtual std::uint64_t count_chunk(std::string_view text, std::size_t begin,
                                                  std::size_t end) const = 0;

  /// Chunk-aware match collection: appends the events of (begin, end] to
  /// `out` (end offsets are offsets into `text`) and returns their
  /// occurrence count.
  [[nodiscard]] virtual std::uint64_t collect_chunk(std::string_view text, std::size_t begin,
                                                    std::size_t end,
                                                    std::vector<Match>& out) const = 0;

  /// Whole-text sequential count/collect (chunk = everything).
  [[nodiscard]] std::uint64_t count(std::string_view text) const {
    return count_chunk(text, 0, text.size());
  }
  [[nodiscard]] std::uint64_t collect(std::string_view text, std::vector<Match>& out) const {
    return collect_chunk(text, 0, text.size(), out);
  }

  /// DFA-backed engines expose their automaton and lowered kernel (the
  /// chunk-parallel matcher's speculative waves scan on it when the
  /// automaton has no bound); generic engines return nullptr. Every chunked
  /// scan of a bounded engine goes through the chunk-aware interface above.
  [[nodiscard]] virtual const DenseDfa* dfa() const noexcept { return nullptr; }
  [[nodiscard]] virtual const CompiledDfa* kernel() const noexcept { return nullptr; }
};

/// A DenseDfa (either the regex subset-construction product or the
/// Aho–Corasick table) owned by the engine and lowered into the compiled
/// kernels once at construction.
class DenseDfaEngine final : public MatchEngine {
 public:
  /// Takes ownership of `dfa`; `kind` records which construction produced it
  /// (kCompiledDfa or kAhoCorasick). Validates and lowers once.
  DenseDfaEngine(EngineKind kind, DenseDfa dfa);

  [[nodiscard]] EngineKind kind() const noexcept override { return kind_; }
  [[nodiscard]] std::size_t synchronization_bound() const noexcept override {
    return dfa_.synchronization_bound();
  }
  [[nodiscard]] std::size_t pattern_count() const noexcept override {
    return dfa_.pattern_count();
  }

  [[nodiscard]] std::uint64_t count_chunk(std::string_view text, std::size_t begin,
                                          std::size_t end) const override;
  [[nodiscard]] std::uint64_t collect_chunk(std::string_view text, std::size_t begin,
                                            std::size_t end,
                                            std::vector<Match>& out) const override;

  [[nodiscard]] const DenseDfa* dfa() const noexcept override { return &dfa_; }
  [[nodiscard]] const CompiledDfa* kernel() const noexcept override { return &kernel_; }

 private:
  /// The entry state for a chunk starting at `begin` (warm-up scan).
  [[nodiscard]] StateId entry_state(std::string_view text, std::size_t begin) const;

  EngineKind kind_;
  DenseDfa dfa_;
  CompiledDfa kernel_;
};

/// The bit-parallel Shift-And matcher as an engine. No tables, no DFA: the
/// whole pattern-set state is one 64-bit register, advanced with a shift,
/// two ANDs and a popcount per byte.
class BitapEngine final : public MatchEngine {
 public:
  /// Throws std::invalid_argument when BitapMatcher::supports() is false.
  explicit BitapEngine(const std::vector<std::string>& patterns);

  [[nodiscard]] EngineKind kind() const noexcept override { return EngineKind::kBitap; }
  [[nodiscard]] std::size_t synchronization_bound() const noexcept override {
    return matcher_.synchronization_bound();
  }
  [[nodiscard]] std::size_t pattern_count() const noexcept override {
    return matcher_.pattern_count();
  }

  [[nodiscard]] std::uint64_t count_chunk(std::string_view text, std::size_t begin,
                                          std::size_t end) const override;
  [[nodiscard]] std::uint64_t collect_chunk(std::string_view text, std::size_t begin,
                                            std::size_t end,
                                            std::vector<Match>& out) const override;

  [[nodiscard]] const BitapMatcher& matcher() const noexcept { return matcher_; }

 private:
  BitapMatcher matcher_;
};

/// Why `kind` cannot execute `motifs`, or the empty string when it can.
/// Purely syntactic (no automaton is built): AC requires literal ACGT
/// patterns, Bitap requires IUPAC-only patterns with <= 64 summed bits;
/// the compiled DFA accepts the full motif language.
[[nodiscard]] std::string engine_gap(EngineKind kind, const std::vector<std::string>& motifs);

/// Builds the engine of `kind` for `motifs`, or returns nullptr with the gap
/// reason in *why (when given) if the kind does not support the set.
/// `density_sample` — a representative slice of the corpus the engine will
/// scan (callers typically pass the first page) — feeds engines that tune
/// themselves to the input at lowering time; today only the prefiltered DFA
/// uses it (the density-aware skip cutoff). An empty sample keeps every
/// engine's static behavior.
[[nodiscard]] std::unique_ptr<const MatchEngine> try_lower(
    EngineKind kind, const std::vector<std::string>& motifs, std::string* why = nullptr,
    std::string_view density_sample = {});

/// Builds the engine of `kind` for `motifs`; throws std::invalid_argument
/// with the gap reason when the kind does not support the set.
[[nodiscard]] std::unique_ptr<const MatchEngine> lower(
    EngineKind kind, const std::vector<std::string>& motifs,
    std::string_view density_sample = {});

}  // namespace hetopt::automata
