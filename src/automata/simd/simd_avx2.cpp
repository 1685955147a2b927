// AVX2 kernel: four Shift-And lanes per 256-bit register. This TU is
// compiled with a per-file -mavx2 (see CMakeLists.txt) when the toolchain
// knows the flag; execution is guarded at runtime by the dispatcher's CPU
// probe, so the rest of the binary never executes an AVX2 instruction.
//
// Per step the four lanes share one vpsllq/vpor/vpand chain; the per-lane
// match masks are popcounted with the classic pshufb nibble LUT into a
// per-byte accumulator that is flushed through vpsadbw at most every 31
// steps (255 / 8 carries per byte), keeping the horizontal reduction off the
// per-byte path. Invalid-byte accounting stays scalar and branch-free.
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

}  // namespace

const BitapKernel* avx2_bitap_kernel() noexcept { return &kAvx2Bitap; }

}  // namespace hetopt::automata::simd

#else  // !__AVX2__: compiled without -mavx2 — stub the getter.

namespace hetopt::automata::simd {
const BitapKernel* avx2_bitap_kernel() noexcept { return nullptr; }
}  // namespace hetopt::automata::simd

#endif
