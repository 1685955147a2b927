// AVX2 kernels. This TU is compiled with a per-file -mavx2 (see
// CMakeLists.txt) when the toolchain knows the flag; execution is guarded at
// runtime by the dispatcher's CPU probe, so the rest of the binary never
// executes an AVX2 instruction.
//
// Shift-And: four lanes per 256-bit register. Per step the four lanes share
// one vpsllq/vpor/vpand chain; the per-lane match masks are popcounted with
// the classic pshufb nibble LUT into a per-byte accumulator that is flushed
// through vpsadbw at most every 31 steps (255 / 8 carries per byte), keeping
// the horizontal reduction off the per-byte path. Invalid-byte accounting
// stays scalar and branch-free.
//
// Quad pack: 32 text bytes -> 8 quads per vector. A base's code and its
// upper-case letter both follow from the byte's low nibble, so two pshufb
// lookups give them; the byte & 0xDF must equal the letter (validity), and
// vpmaddubsw + vpmaddwd fold four codes into one quad per dword.
#include "automata/simd/simd_common.hpp"
#include "automata/simd/simd_kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace hetopt::automata::simd {

namespace {

std::uint64_t avx2_count_range(const BitapMatcher::Tables& t, std::string_view text,
                               std::size_t begin, std::size_t end, std::size_t bound,
                               bool* bad) {
  constexpr std::size_t kLanes = 4;
  const std::size_t len = end - begin;
  std::uint64_t badc = 0;
  if (len < kLanes * std::max(detail::kMinLaneBytes, bound)) {
    std::uint64_t state = detail::lane_entry(t, text, begin, bound, badc);
    const std::uint64_t count = detail::scan_count(t, text, begin, end, state, badc);
    *bad = badc != 0;
    return count;
  }
  std::size_t starts[kLanes];
  std::uint64_t entries[kLanes];
  for (std::size_t k = 0; k < kLanes; ++k) {
    starts[k] = detail::lane_begin(begin, len, kLanes, k);
    entries[k] = detail::lane_entry(t, text, starts[k], bound, badc);
  }
  __m256i state =
      _mm256_set_epi64x(static_cast<long long>(entries[3]), static_cast<long long>(entries[2]),
                        static_cast<long long>(entries[1]), static_cast<long long>(entries[0]));
  const __m256i vinitial = _mm256_set1_epi64x(static_cast<long long>(t.initial));
  const __m256i vfinal = _mm256_set1_epi64x(static_cast<long long>(t.final));
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const char* lanes_p[kLanes];
  for (std::size_t k = 0; k < kLanes; ++k) lanes_p[k] = text.data() + starts[k];
  const std::size_t steps = len / kLanes;  // every lane holds at least this many
  __m256i counts64 = _mm256_setzero_si256();
  std::uint64_t ok_sum = 0;
  std::size_t i = 0;
  while (i < steps) {
    // <= 31 iterations per block so the per-byte popcount accumulator (max
    // +8 per byte per step) cannot wrap before the vpsadbw flush.
    const std::size_t block_end = std::min(steps, i + 31);
    __m256i acc8 = _mm256_setzero_si256();
    for (; i < block_end; ++i) {
      const auto b0 = static_cast<unsigned char>(lanes_p[0][i]);
      const auto b1 = static_cast<unsigned char>(lanes_p[1][i]);
      const auto b2 = static_cast<unsigned char>(lanes_p[2][i]);
      const auto b3 = static_cast<unsigned char>(lanes_p[3][i]);
      ok_sum += static_cast<std::uint64_t>(t.byte_ok[b0]) + t.byte_ok[b1] +
                t.byte_ok[b2] + t.byte_ok[b3];
      const __m256i masks = _mm256_set_epi64x(static_cast<long long>(t.byte_mask[b3]),
                                              static_cast<long long>(t.byte_mask[b2]),
                                              static_cast<long long>(t.byte_mask[b1]),
                                              static_cast<long long>(t.byte_mask[b0]));
      state = _mm256_and_si256(_mm256_or_si256(_mm256_slli_epi64(state, 1), vinitial),
                               masks);
      const __m256i hits = _mm256_and_si256(state, vfinal);
      const __m256i lo = _mm256_and_si256(hits, nibble);
      const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(hits, 4), nibble);
      const __m256i per_byte = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                               _mm256_shuffle_epi8(lut, hi));
      acc8 = _mm256_add_epi8(acc8, per_byte);
    }
    counts64 = _mm256_add_epi64(counts64, _mm256_sad_epu8(acc8, _mm256_setzero_si256()));
  }
  badc += kLanes * steps - ok_sum;

  alignas(32) std::uint64_t lane_counts[kLanes];
  alignas(32) std::uint64_t lane_states[kLanes];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane_counts), counts64);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane_states), state);
  std::uint64_t count = 0;
  for (std::size_t k = 0; k < kLanes; ++k) {
    count += lane_counts[k];
    // Ragged tail: lane k continues scalar to the start of lane k+1 (the
    // last lane to `end`). Lanes 0..2 can be at most kLanes-1 bytes short.
    const std::size_t lane_end = k + 1 < kLanes ? starts[k + 1] : end;
    count += detail::scan_count(t, text, starts[k] + steps, lane_end, lane_states[k],
                                badc);
  }
  *bad = badc != 0;
  return count;
}

constexpr BitapKernel kAvx2Bitap{util::IsaLevel::kAvx2, /*lanes=*/4,
                                 &avx2_count_range};

/// The quads of 32 text bytes, one per dword (the quad in its low byte);
/// ORs the bytes' validity mismatches into `mismatch`.
inline __m256i avx2_quads8(const char* text, __m256i& mismatch) noexcept {
  // Per low nibble n: the code ((n >> 1) ^ (n >> 2)) & 3 — the SWAR formula,
  // so both packs agree on every byte — and the upper-case letter a valid
  // byte with that nibble must be (A 1, C 3, T 4, G 7). 0xFF never equals a
  // byte & 0xDF, so nibbles no base has always mismatch.
  const __m256i code_lut = _mm256_setr_epi8(0, 0, 1, 1, 3, 3, 2, 2, 2, 2, 3, 3, 1, 1, 0, 0,
                                            0, 0, 1, 1, 3, 3, 2, 2, 2, 2, 3, 3, 1, 1, 0, 0);
  const __m256i letter_lut = _mm256_setr_epi8(
      -1, 'A', -1, 'C', 'T', -1, -1, 'G', -1, -1, -1, -1, -1, -1, -1, -1,
      -1, 'A', -1, 'C', 'T', -1, -1, 'G', -1, -1, -1, -1, -1, -1, -1, -1);
  const __m256i bytes = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(text));
  const __m256i nibble = _mm256_and_si256(bytes, _mm256_set1_epi8(0x0F));
  const __m256i upper = _mm256_and_si256(bytes, _mm256_set1_epi8(static_cast<char>(0xDF)));
  mismatch = _mm256_or_si256(
      mismatch, _mm256_xor_si256(upper, _mm256_shuffle_epi8(letter_lut, nibble)));
  const __m256i codes = _mm256_shuffle_epi8(code_lut, nibble);
  // Byte pairs (c0, c1) -> c0 * 4 + c1, then word pairs -> c0c1 * 16 + c2c3.
  const __m256i pairs = _mm256_maddubs_epi16(codes, _mm256_set1_epi16(0x0104));
  return _mm256_madd_epi16(pairs, _mm256_set1_epi32(0x00010010));
}

bool avx2_pack_quads(const char* text, std::size_t quads, std::uint8_t* out) noexcept {
  __m256i mismatch = _mm256_setzero_si256();
  std::size_t i = 0;
  // Four vectors -> 32 quads: the two packs interleave the vectors' 128-bit
  // halves, and the permute puts the 4-quad dwords back in text order.
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  for (; i + 32 <= quads; i += 32) {
    const char* p = text + 4 * i;
    const __m256i a = avx2_quads8(p, mismatch);
    const __m256i b = avx2_quads8(p + 32, mismatch);
    const __m256i c = avx2_quads8(p + 64, mismatch);
    const __m256i d = avx2_quads8(p + 96, mismatch);
    const __m256i packed =
        _mm256_packus_epi16(_mm256_packs_epi32(a, b), _mm256_packs_epi32(c, d));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_permutevar8x32_epi32(packed, order));
  }
  // Fewer than 32 quads left: SWAR, so no vector load runs past the last one.
  const bool tail_ok = detail::swar_pack(text + 4 * i, quads - i, out + i);
  return tail_ok && _mm256_testz_si256(mismatch, mismatch) != 0;
}

}  // namespace

const BitapKernel* avx2_bitap_kernel() noexcept { return &kAvx2Bitap; }

QuadPackFn avx2_quad_pack() noexcept { return &avx2_pack_quads; }

}  // namespace hetopt::automata::simd

#else  // !__AVX2__: compiled without -mavx2 — stub the getters.

namespace hetopt::automata::simd {
const BitapKernel* avx2_bitap_kernel() noexcept { return nullptr; }
QuadPackFn avx2_quad_pack() noexcept { return nullptr; }
}  // namespace hetopt::automata::simd

#endif
