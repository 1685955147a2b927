// SSE2 kernel: two Shift-And lanes per 128-bit register. SSE2 is the x86-64
// baseline, so this TU needs no special compile flags there; other targets
// compile the stub tail.
//
// Lane protocol (shared with AVX2): the range splits into `lanes` contiguous
// sub-streams, each warmed scalar over its bound-1 preceding bytes, then all
// lanes advance in vector lockstep for the common step count; ragged tails
// finish scalar. Counts are integer sums over disjoint end positions, so any
// split is bit-identical to the one-stream scan. Invalid bytes accumulate
// branch-free (SSE2 lacks pshufb, so per-lane popcounts extract to scalar
// std::popcount — the vector win here is the halved shift/or/and chain).
#include "automata/simd/simd_common.hpp"
#include "automata/simd/simd_kernels.hpp"

#if defined(__SSE2__)

#include <emmintrin.h>

#include <bit>

namespace hetopt::automata::simd {

namespace {

std::uint64_t sse2_count_range(const BitapMatcher::Tables& t, std::string_view text,
                               std::size_t begin, std::size_t end, std::size_t bound,
                               bool* bad) {
  constexpr std::size_t kLanes = 2;
  const std::size_t len = end - begin;
  std::uint64_t badc = 0;
  if (len < kLanes * std::max(detail::kMinLaneBytes, bound)) {
    std::uint64_t state = detail::lane_entry(t, text, begin, bound, badc);
    const std::uint64_t count = detail::scan_count(t, text, begin, end, state, badc);
    *bad = badc != 0;
    return count;
  }
  const std::size_t s0 = begin;
  const std::size_t s1 = detail::lane_begin(begin, len, kLanes, 1);
  const std::uint64_t d0 = detail::lane_entry(t, text, s0, bound, badc);
  const std::uint64_t d1 = detail::lane_entry(t, text, s1, bound, badc);

  __m128i state = _mm_set_epi64x(static_cast<long long>(d1), static_cast<long long>(d0));
  const __m128i vinitial = _mm_set1_epi64x(static_cast<long long>(t.initial));
  const __m128i vfinal = _mm_set1_epi64x(static_cast<long long>(t.final));
  const char* const p0 = text.data() + s0;
  const char* const p1 = text.data() + s1;
  const std::size_t steps = s1 - s0;  // == the shorter lane's full length
  std::uint64_t count = 0;
  std::uint64_t ok_sum = 0;
  for (std::size_t i = 0; i < steps; ++i) {
    const auto b0 = static_cast<unsigned char>(p0[i]);
    const auto b1 = static_cast<unsigned char>(p1[i]);
    ok_sum += static_cast<std::uint64_t>(t.byte_ok[b0]) + t.byte_ok[b1];
    const __m128i masks = _mm_set_epi64x(static_cast<long long>(t.byte_mask[b1]),
                                         static_cast<long long>(t.byte_mask[b0]));
    state = _mm_and_si128(_mm_or_si128(_mm_slli_epi64(state, 1), vinitial), masks);
    const __m128i hits = _mm_and_si128(state, vfinal);
    const auto h0 = static_cast<std::uint64_t>(_mm_cvtsi128_si64(hits));
    const auto h1 = static_cast<std::uint64_t>(
        _mm_cvtsi128_si64(_mm_unpackhi_epi64(hits, hits)));
    count += static_cast<std::uint64_t>(std::popcount(h0) + std::popcount(h1));
  }
  badc += kLanes * steps - ok_sum;

  // Ragged tail: only the last lane can be longer than `steps`.
  auto d1_out = static_cast<std::uint64_t>(
      _mm_cvtsi128_si64(_mm_unpackhi_epi64(state, state)));
  count += detail::scan_count(t, text, s1 + steps, end, d1_out, badc);
  *bad = badc != 0;
  return count;
}

constexpr BitapKernel kSse2Bitap{util::IsaLevel::kSse2, /*lanes=*/2,
                                 &sse2_count_range};

}  // namespace

const BitapKernel* sse2_bitap_kernel() noexcept { return &kSse2Bitap; }

}  // namespace hetopt::automata::simd

#else  // !__SSE2__: this toolchain/target has no SSE2 — stub the getter.

namespace hetopt::automata::simd {
const BitapKernel* sse2_bitap_kernel() noexcept { return nullptr; }
}  // namespace hetopt::automata::simd

#endif
