// Dense table-driven deterministic finite automaton over {A,C,G,T}.
// This is the runtime representation every matcher executes: a flat
// `next[state * 4 + base]` transition table plus per-state accept metadata.
//
// For pattern-matching automata (built over an implicit leading "Σ*"), a
// state is accepting when at least one motif *ends* at the current input
// position; `accept_count(s)` says how many motifs end there so occurrence
// counting is exact even when several motifs end at the same offset.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dna/alphabet.hpp"
#include "automata/nfa.hpp"

namespace hetopt::automata {

class DenseDfa {
 public:
  DenseDfa() = default;

  /// Builds an empty automaton with `num_states` states, all transitions to
  /// state 0, nothing accepting.
  explicit DenseDfa(std::uint32_t num_states);

  [[nodiscard]] std::uint32_t state_count() const noexcept {
    return static_cast<std::uint32_t>(accept_mask_.size());
  }
  [[nodiscard]] StateId start() const noexcept { return start_; }
  void set_start(StateId s);

  void set_transition(StateId from, dna::Base on, StateId to);
  [[nodiscard]] StateId step(StateId from, dna::Base on) const noexcept {
    return next_[from * dna::kAlphabetSize + static_cast<std::size_t>(on)];
  }

  void set_accept(StateId s, std::uint64_t mask, std::uint32_t count);
  /// Hot accessors are unchecked (scanners read one per input byte); callers
  /// validate the automaton once up front — ParallelMatcher and the
  /// CompiledDfa lowering both run validate() at construction.
  [[nodiscard]] std::uint64_t accept_mask(StateId s) const noexcept {
    assert(s < state_count());
    return accept_mask_[s];
  }
  [[nodiscard]] std::uint32_t accept_count(StateId s) const noexcept {
    assert(s < state_count());
    return accept_count_[s];
  }

  /// Longest motif this automaton matches (0 = unknown, e.g. for automata
  /// with unbounded patterns). A scan warmed up from start() over the
  /// previous `synchronization_bound() - 1` input bytes counts every later
  /// position exactly — the PaREM warm-up every chunked path uses (see
  /// match_engine.hpp).
  void set_synchronization_bound(std::size_t n) noexcept { sync_bound_ = n; }
  [[nodiscard]] std::size_t synchronization_bound() const noexcept { return sync_bound_; }

  /// Number of distinct patterns (for reporting); optional metadata.
  void set_pattern_count(std::size_t n) noexcept { pattern_count_ = n; }
  [[nodiscard]] std::size_t pattern_count() const noexcept { return pattern_count_; }

  /// Raw transition table (state-major). Exposed for benchmarks.
  [[nodiscard]] const std::vector<StateId>& table() const noexcept { return next_; }

  /// Runs the automaton over `text` starting at `state`; returns the final
  /// state. Throws on non-ACGT characters.
  [[nodiscard]] StateId run(StateId state, std::string_view text) const;

  /// Checks structural invariants (all transitions in range, start valid).
  /// Returns an error description, or empty when consistent.
  [[nodiscard]] std::string validate() const;

 private:
  std::vector<StateId> next_;            // state_count * 4
  std::vector<std::uint64_t> accept_mask_;
  std::vector<std::uint32_t> accept_count_;
  StateId start_ = 0;
  std::size_t sync_bound_ = 0;
  std::size_t pattern_count_ = 0;
};

/// A single match event: `end` is the offset one past the last matched byte;
/// `pattern_mask` has a bit set for every pattern ending there.
struct Match {
  std::size_t end = 0;
  std::uint64_t pattern_mask = 0;
  friend bool operator==(const Match&, const Match&) = default;
};

}  // namespace hetopt::automata
