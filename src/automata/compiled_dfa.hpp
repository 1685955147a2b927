// Compiled scan kernels: a DenseDfa lowered into branch-free hot-loop form.
//
// The seed scanner decodes every byte through std::optional<Base> (a branch
// and a throw per byte) and reads accept metadata through bounds-checked
// .at(); that prices the paper's "expensive" DNA kernel an order of magnitude
// below what the hardware allows. CompiledDfa removes all per-byte control
// flow by *fusing it into the tables* at build time:
//
//  byte table    next[state * 256 + byte]. The ACGT decode (upper and lower
//                case) is folded into the indices; every non-base byte leads
//                to an absorbing SINK state with no accepts. A chunk is thus
//                scanned with two dependent L1 loads per byte and zero
//                branches; invalid input is detected once per chunk (final
//                state == sink) instead of once per byte, then reported with
//                the seed scanner's exact exception.
//
//  paired table  next2[state * 16 + (code0 << 2 | code1)] consumes two bases
//                per step, halving the dependent-load chain that limits a
//                single scan stream; pair_count holds the sum of the two
//                intermediate accept counts so per-position occurrence sums
//                stay exact. Input bytes are translated to 2-bit codes block
//                by block (validating each block up front).
//
//  multi-stream  count_multi() interleaves up to kMaxStreams independent
//                scans in one loop. Each stream's next-state load depends
//                only on its own chain, so K streams hide the L1/L2 load
//                latency a single chain must eat serially — this is how one
//                worker scans K chunks at far more than 1x speed.
//
//  split count   count() applies the same interleave *inside* one long input:
//                on a bounded automaton (synchronization_bound() > 0) it cuts
//                the text into up to kMaxStreams contiguous sub-streams and
//                scans them through the multi-stream loop. Sub-stream 0 enters
//                at the caller's state; every later one warms up from start()
//                over the bound - 1 bytes before its cut (the PaREM warm-up,
//                exact because those bytes lie inside the text). So a caller
//                handing count() one big chunk per worker still gets K load
//                chains in flight, with no stream bookkeeping of its own.
//
// Accept metadata lives in flat arrays indexed without bounds checks; the
// constructor validates the automaton once (and throws std::invalid_argument
// on corruption) so the hot loops never have to.
//
// Every kernel returns byte-identical results to the seed scanner loops
// (scan_count_naive / scan_collect_naive), including the exception type and
// message on non-ACGT input. This is property-tested.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "automata/dense_dfa.hpp"
#include "automata/scanner.hpp"
#include "util/aligned_buffer.hpp"

namespace hetopt::automata {

class CompiledDfa {
 public:
  /// Streams one interleaved count_multi() loop carries at once; callers may
  /// pass any stream count, which is processed in batches of this width.
  static constexpr std::size_t kMaxStreams = 8;

  /// An empty, unusable kernel (every scan throws); exists so owners can
  /// default-construct and assign once the automaton is built.
  CompiledDfa() = default;

  /// Lowers `dfa` into the fused tables. Validates the automaton once and
  /// throws std::invalid_argument("CompiledDfa: ...") if it is corrupt.
  explicit CompiledDfa(const DenseDfa& dfa);

  /// States of the source automaton (the sink is one past this).
  [[nodiscard]] std::uint32_t state_count() const noexcept { return state_count_; }
  [[nodiscard]] StateId start() const noexcept { return start_; }
  [[nodiscard]] StateId sink() const noexcept { return state_count_; }
  [[nodiscard]] std::size_t synchronization_bound() const noexcept { return sync_bound_; }

  /// Unchecked accept metadata (valid for source states and the sink).
  [[nodiscard]] std::uint32_t accept_count(StateId s) const noexcept {
    return accept_count_[s];
  }
  [[nodiscard]] std::uint64_t accept_mask(StateId s) const noexcept {
    return accept_mask_[s];
  }

  /// Counts occurrences from `state`. Long inputs on a bounded automaton are
  /// split into split_streams(text.size()) warmed sub-streams scanned
  /// interleaved; other inputs go to the paired kernel (long runs) or the
  /// byte kernel (short ones). Same results and errors as scan_count_naive:
  /// invalid input raises the exception for the first bad byte of the whole
  /// text, whichever sub-stream it fell in.
  [[nodiscard]] ScanResult count(std::string_view text, StateId state) const;

  /// Sub-streams count() scans an input of `bytes` bytes as: 1 (no split)
  /// for unbounded automata and short inputs, else bytes / kSplitMinBytes
  /// capped at kMaxStreams (sub-streams are also at least 8x the warm-up
  /// lead, so long motifs never spend most of a sub-stream warming up).
  [[nodiscard]] std::size_t split_streams(std::size_t bytes) const noexcept;

  /// Smallest sub-stream count() cuts (4 KiB, so any input of at least
  /// 8 KiB splits — a paged scan's per-worker slice of one page included);
  /// fixed, not a tuning knob.
  static constexpr std::size_t kSplitMinBytes = std::size_t{4} << 10;

  /// The byte-at-a-time fused kernel (one table load + one accept load per
  /// byte, no branches). Exposed for benchmarks and tests.
  [[nodiscard]] ScanResult count_fused(std::string_view text, StateId state) const;

  /// The 2-bases-per-step paired kernel. Exposed for benchmarks and tests.
  [[nodiscard]] ScanResult count_paired(std::string_view text, StateId state) const;

  /// Scans `n` independent (texts[i], entries[i]) streams, interleaving up to
  /// kMaxStreams of them per loop to hide load latency; results[i] receives
  /// what count() would return for stream i. Invalid input is reported per
  /// batch of kMaxStreams: the lowest-index failing stream of the batch
  /// throws (its first bad byte) and the remaining results are discarded.
  void count_multi(const std::string_view* texts, const StateId* entries,
                   ScanResult* results, std::size_t n) const;

  /// Fused match collection: same events as scan_collect_naive (end offsets
  /// shifted by `base_offset`), appended to `out`.
  [[nodiscard]] ScanResult collect(std::string_view text, StateId state,
                                   std::size_t base_offset,
                                   std::vector<Match>& out) const;

  /// Raw fused byte table, next[state * 256 + byte], 64-byte aligned.
  /// Exposed for the prefiltered scan engine (simd_engine.hpp), which
  /// interleaves SIMD candidate-skips with single fused steps; invalid bytes
  /// lead to sink() like everywhere else.
  [[nodiscard]] const std::uint32_t* byte_table() const noexcept {
    return byte_next_.data();
  }

 private:
  void check_entry(StateId state) const;
  /// The interleave loop for n <= kMaxStreams streams. Unchecked and
  /// throw-free: entries may be any state including the sink, and a stream
  /// over invalid input simply ends in the sink.
  void count_multi_batch(const std::string_view* texts, const StateId* entries,
                         ScanResult* results, std::size_t n) const noexcept;
  /// count()'s split path over `streams` >= 2 sub-streams.
  [[nodiscard]] ScanResult count_split(std::string_view text, StateId state,
                                       std::size_t streams) const;
  /// Locates the first non-ACGT byte of `text` and throws the seed scanner's
  /// exact exception for it.
  [[noreturn]] void throw_invalid(std::string_view text) const;

  // The hot tables live in 64-byte-aligned storage (util::AlignedBuffer):
  // cache-line-aligned rows for the scalar kernels, aligned-load targets for
  // the SIMD tier.
  util::AlignedBuffer<std::uint32_t> byte_next_;     // (states + 1) * 256
  util::AlignedBuffer<std::uint32_t> pair_next_;     // (states + 1) * 16
  util::AlignedBuffer<std::uint32_t> pair_count_;    // accept sum of the two half-steps
  util::AlignedBuffer<std::uint32_t> accept_count_;  // states + 1 (sink accepts nothing)
  util::AlignedBuffer<std::uint64_t> accept_mask_;   // states + 1
  std::uint8_t code_[256] = {};              // byte -> 2-bit base code, 0xFF invalid
  std::uint32_t state_count_ = 0;
  StateId start_ = 0;
  std::size_t sync_bound_ = 0;
};

}  // namespace hetopt::automata
