// Scalar kernels for the SIMD tier, and what HETOPT_FORCE_ISA=scalar (or a
// non-x86 build) executes:
//   - the Shift-And reference: one stream, the exact BitapMatcher::scan
//     recurrence over the PaREM warm-up lead — so forced-scalar dispatch
//     reproduces BitapMatcher's counts byte for byte, as every vector
//     variant must;
//   - the quad pack: the SWAR form in simd_common.hpp.
#include <algorithm>

#include "automata/simd/simd_common.hpp"
#include "automata/simd/simd_kernels.hpp"

namespace hetopt::automata::simd {

namespace {

std::uint64_t scalar_count_range(const BitapMatcher::Tables& t, std::string_view text,
                                 std::size_t begin, std::size_t end, std::size_t bound,
                                 bool* bad) {
  std::uint64_t badc = 0;
  std::uint64_t state = detail::lane_entry(t, text, begin, bound, badc);
  const std::uint64_t count = detail::scan_count(t, text, begin, end, state, badc);
  *bad = badc != 0;
  return count;
}

constexpr BitapKernel kScalarBitap{util::IsaLevel::kScalar, /*lanes=*/1,
                                   &scalar_count_range};

}  // namespace

const BitapKernel& scalar_bitap_kernel() noexcept { return kScalarBitap; }

QuadPackFn scalar_quad_pack() noexcept { return &detail::swar_pack; }

}  // namespace hetopt::automata::simd
