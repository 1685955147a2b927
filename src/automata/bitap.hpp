// Bit-parallel multi-pattern matcher (multi-pattern Shift-And, Baeza-Yates &
// Gonnet / Wu-Manber style). This is the SIMD-flavoured counterpart of the
// table-driven DFA: one 64-bit word carries the match state of *all*
// patterns simultaneously, advancing with two ANDs, a shift and an OR per
// input byte — the same "wide registers do the work" idea the paper invokes
// for the Xeon Phi's 512-bit vector units, scaled to portable C++.
//
// The hot loop is byte-fused like the compiled DFA kernels: class masks are
// expanded to a 256-entry byte table (both cases folded in), so counting
// runs with zero per-byte branches; invalid bytes are detected once per
// scanned range and reported with the original exception.
//
// Constraints: plain/IUPAC patterns without regex operators; the summed
// pattern lengths must fit in 64 bits — query supports() before
// constructing. Match semantics are identical to the DFA engines (count
// every occurrence by end position; per-pattern ids).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "automata/dense_dfa.hpp"
#include "dna/alphabet.hpp"

namespace hetopt::automata {

class BitapMatcher {
 public:
  /// Capability query: can this matcher execute `patterns`? False when the
  /// set is empty, a pattern is empty or contains a non-IUPAC character
  /// (regex operators included), or the summed lengths exceed 64 bits; the
  /// reason lands in *why when given. Callers (e.g. core::RealWorkload)
  /// check this instead of catching the constructor's exception.
  [[nodiscard]] static bool supports(const std::vector<std::string>& patterns,
                                     std::string* why = nullptr);

  /// Compiles IUPAC patterns (classes allowed, no operators). Throws
  /// std::invalid_argument exactly when supports() is false.
  explicit BitapMatcher(const std::vector<std::string>& patterns);

  [[nodiscard]] std::size_t pattern_count() const noexcept { return final_masks_count_; }
  /// Longest pattern (the warm-up bound, like DenseDfa's).
  [[nodiscard]] std::size_t synchronization_bound() const noexcept { return max_len_; }

  /// Counts occurrences (every pattern, every end position).
  [[nodiscard]] std::uint64_t count(std::string_view text) const;

  /// Collects match events compatible with the DFA scanners, scanning from
  /// `entry_state` (0 = fresh start; pass a warmed state for chunked scans).
  /// Returns the occurrence count of the collected events. Like count(),
  /// invalid bytes are detected branch-free during the scan and reported
  /// once at the end — on throw, the contents appended to `out` are
  /// unspecified partial output.
  std::uint64_t collect(std::string_view text, std::size_t base_offset,
                        std::vector<Match>& out, std::uint64_t entry_state = 0) const;

  /// Resumable scanning: feeds `text` through state `d` (0 = fresh start),
  /// accumulating occurrences into the return value. Enables chunked scans
  /// with a warm-up prefix (the PaREM warm-up BitapEngine::count_chunk runs).
  [[nodiscard]] std::uint64_t scan(std::string_view text, std::uint64_t& d) const;

  /// Read-only view of the compiled tables for the vector kernels in
  /// src/automata/simd/, which run the same recurrence one sub-stream per
  /// lane. The pointers alias this matcher and share its lifetime.
  struct Tables {
    const std::uint64_t* byte_mask;  // [256]
    const std::uint8_t* byte_ok;     // [256]
    std::uint64_t initial;
    std::uint64_t final;
  };
  [[nodiscard]] Tables tables() const noexcept {
    return Tables{byte_mask_, byte_ok_, initial_, final_};
  }

 private:
  /// Locates the first invalid byte of `text` and throws the matcher's
  /// exception for it.
  [[noreturn]] void throw_invalid(std::string_view text) const;

  // byte_mask_[byte] has bit b set if pattern position b accepts the base the
  // byte decodes to (upper and lower case folded in); invalid bytes map to 0
  // and are flagged in byte_ok_ (a zero mask alone is legal for valid bases).
  std::uint64_t byte_mask_[256] = {};
  std::uint8_t byte_ok_[256] = {};
  std::uint64_t initial_ = 0;  // bits at each pattern's first position
  std::uint64_t final_ = 0;    // bits at each pattern's last position
  std::vector<std::uint64_t> final_bit_to_pattern_;  // map final-bit index -> pattern id
  std::size_t max_len_ = 0;
  std::size_t final_masks_count_ = 0;
};

}  // namespace hetopt::automata
