// Shared scalar building blocks for the per-ISA kernel TUs: warm-up, scalar
// Shift-And scanning, lane geometry, and the SWAR quad pack. Header-only,
// intrinsic-free — the vector TUs use these for lane warm-ups and ragged
// tails so every variant shares one definition of the reference recurrence
// and of the base codes.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "automata/bitap.hpp"

namespace hetopt::automata::simd::detail {

/// Below this many bytes per lane the vector kernels fall back to the plain
/// scalar scan: the per-lane warm-up (bound - 1 bytes each) would dominate.
inline constexpr std::size_t kMinLaneBytes = 64;

/// Advances a Shift-And state over text[from, to) without counting — the
/// per-lane warm-up. Invalid bytes accumulate into `badc` (deferred
/// detection; the caller reports once per range).
[[nodiscard]] inline std::uint64_t warm(const BitapMatcher::Tables& t,
                                        std::string_view text, std::size_t from,
                                        std::size_t to, std::uint64_t& badc) {
  std::uint64_t state = 0;
  for (std::size_t i = from; i < to; ++i) {
    const auto byte = static_cast<unsigned char>(text[i]);
    badc += static_cast<std::uint64_t>(t.byte_ok[byte] ^ 1U);
    state = ((state << 1) | t.initial) & t.byte_mask[byte];
  }
  return state;
}

/// The reference counting scan over text[from, to) from state `d` (updated
/// in place) — the exact BitapMatcher::scan recurrence with the deferred
/// invalid-byte accounting externalized.
[[nodiscard]] inline std::uint64_t scan_count(const BitapMatcher::Tables& t,
                                              std::string_view text, std::size_t from,
                                              std::size_t to, std::uint64_t& d,
                                              std::uint64_t& badc) {
  std::uint64_t count = 0;
  std::uint64_t state = d;
  for (std::size_t i = from; i < to; ++i) {
    const auto byte = static_cast<unsigned char>(text[i]);
    badc += static_cast<std::uint64_t>(t.byte_ok[byte] ^ 1U);
    state = ((state << 1) | t.initial) & t.byte_mask[byte];
    count += static_cast<std::uint64_t>(std::popcount(state & t.final));
  }
  d = state;
  return count;
}

/// Warm-up entry state for a lane whose sub-stream starts at `at`: advance
/// over the up-to-(bound-1) preceding bytes, exactly the PaREM chunk entry.
[[nodiscard]] inline std::uint64_t lane_entry(const BitapMatcher::Tables& t,
                                              std::string_view text, std::size_t at,
                                              std::size_t bound, std::uint64_t& badc) {
  const std::size_t lead = std::min(bound - 1, at);
  return warm(t, text, at - lead, at, badc);
}

/// Start of lane k when [begin, begin + len) splits into `lanes` contiguous
/// sub-streams (lane `lanes` yields the exclusive end).
[[nodiscard]] inline std::size_t lane_begin(std::size_t begin, std::size_t len,
                                            std::size_t lanes, std::size_t k) {
  return begin + (len / lanes) * k;
}

// --- The SWAR quad pack (QuadPackFn's scalar form) ------------------------

static_assert(std::endian::native == std::endian::little,
              "the SWAR quad pack reads text bytes as little-endian words");

inline constexpr std::uint64_t kEachByte = 0x0101010101010101;

/// The 2-bit code of every byte of `w`: ((b >> 1) ^ (b >> 2)) & 3, which is
/// A0 C1 G2 T3 in either case. Bits 1-3 of a byte stay inside the byte
/// through both shifts, so no code leaks into its neighbour.
[[nodiscard]] inline std::uint64_t swar_codes(std::uint64_t w) noexcept {
  return ((w >> 1) ^ (w >> 2)) & (3 * kEachByte);
}

/// Zero exactly when every byte of `w` is one of ACGTacgt: the upper-cased
/// byte must equal the letter rebuilt from its code's bits b0 and b1,
/// 0x41 + 2*b0 + 6*b1 + 11*(b0 & b1) ('A', 'C', 'G', 'T'). Per-byte sums
/// stay below 0x80, so no carry crosses a byte.
[[nodiscard]] inline std::uint64_t swar_mismatch(std::uint64_t w, std::uint64_t codes) noexcept {
  const std::uint64_t b0 = codes & kEachByte;
  const std::uint64_t b1 = (codes >> 1) & kEachByte;
  const std::uint64_t letter = 0x41 * kEachByte + 2 * b0 + 6 * b1 + 11 * (b0 & b1);
  return (w & (0xDF * kEachByte)) ^ letter;
}

/// Gathers the codes of bytes 0-3 of `codes` into bits 24-31 of the product
/// (c0 << 6 | c1 << 4 | c2 << 2 | c3) and those of bytes 4-7 into bits
/// 56-63; the partial products land on disjoint bit pairs, so none carries.
inline constexpr std::uint64_t kQuadGather = 0x40100401;

/// The SWAR pack: two quads per 8-byte word, then a 4-byte word for an odd
/// last quad. See QuadPackFn for the contract.
[[nodiscard]] inline bool swar_pack(const char* text, std::size_t quads,
                                    std::uint8_t* out) noexcept {
  std::uint64_t mismatch = 0;
  std::size_t i = 0;
  for (; i + 2 <= quads; i += 2) {
    std::uint64_t w;
    std::memcpy(&w, text + 4 * i, sizeof w);
    const std::uint64_t codes = swar_codes(w);
    mismatch |= swar_mismatch(w, codes);
    const std::uint64_t gathered = codes * kQuadGather;
    out[i] = static_cast<std::uint8_t>(gathered >> 24);
    out[i + 1] = static_cast<std::uint8_t>(gathered >> 56);
  }
  if (i < quads) {
    std::uint32_t w;
    std::memcpy(&w, text + 4 * i, sizeof w);
    const std::uint64_t codes = swar_codes(w);
    // Only the low four bytes hold text.
    mismatch |= swar_mismatch(w, codes) & 0xFFFFFFFF;
    out[i] = static_cast<std::uint8_t>((codes * kQuadGather) >> 24);
  }
  return mismatch == 0;
}

}  // namespace hetopt::automata::simd::detail
