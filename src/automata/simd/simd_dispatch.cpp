// Runtime ISA dispatch for the SIMD kernel tier: what is compiled in, what
// the CPU supports, what the user forced — resolved once per engine (or
// CompiledDfa) construction. No intrinsics here; only the kernel tables the
// per-ISA TUs export.
#include <stdexcept>
#include <string>

#include "automata/simd/simd_kernels.hpp"

namespace hetopt::automata::simd {

namespace {

constexpr util::IsaLevel kAllLevels[] = {util::IsaLevel::kScalar, util::IsaLevel::kAvx2};

const BitapKernel* bitap_for(util::IsaLevel level) noexcept {
  switch (level) {
    case util::IsaLevel::kScalar:
      return &scalar_bitap_kernel();
    case util::IsaLevel::kAvx2:
      return avx2_bitap_kernel();
  }
  return nullptr;
}

bool compiled_in(util::IsaLevel level) noexcept { return bitap_for(level) != nullptr; }

/// Throws unless `level` is both compiled in and executable on this CPU;
/// the message names which of the two is the gap.
void require_available(util::IsaLevel level) {
  if (!compiled_in(level)) {
    throw std::runtime_error(std::string("simd: ISA '") + util::to_string(level) +
                             "' is not compiled into this binary");
  }
  if (!util::cpu_supports(level)) {
    throw std::runtime_error(std::string("simd: ISA '") + util::to_string(level) +
                             "' is not supported by this CPU");
  }
}

}  // namespace

std::vector<util::IsaLevel> available_isas() {
  std::vector<util::IsaLevel> out;
  for (const util::IsaLevel level : kAllLevels) {
    if (compiled_in(level) && util::cpu_supports(level)) out.push_back(level);
  }
  return out;
}

util::IsaLevel resolve_isa(std::optional<util::IsaLevel> request) {
  // Explicit request > HETOPT_FORCE_ISA > widest available. forced_isa()
  // itself throws on unparseable values; unavailable picks throw here.
  const std::optional<util::IsaLevel> pick =
      request.has_value() ? request : util::forced_isa();
  if (pick.has_value()) {
    require_available(*pick);
    return *pick;
  }
  util::IsaLevel best = util::IsaLevel::kScalar;
  for (const util::IsaLevel level : available_isas()) best = level;
  return best;
}

const BitapKernel& bitap_kernel(util::IsaLevel isa) {
  require_available(isa);
  return *bitap_for(isa);
}

QuadPackFn quad_pack(util::IsaLevel isa) {
  require_available(isa);
  // One TU per level exports both kernels, so a level with a Shift-And
  // kernel has a pack too.
  return isa == util::IsaLevel::kAvx2 ? avx2_quad_pack() : scalar_quad_pack();
}

}  // namespace hetopt::automata::simd
