#include "util/cpu_features.hpp"

#include <cstdlib>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define HETOPT_CPUID_AVAILABLE 1
#endif

namespace hetopt::util {

namespace {

#if defined(HETOPT_CPUID_AVAILABLE)

/// CPUID brand string: leaves 0x80000002..4, 16 bytes of ASCII each.
std::string brand_string() {
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  char brand[49] = {};
  auto* words = reinterpret_cast<unsigned int*>(brand);
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
    __get_cpuid(0x80000002u + leaf, &eax, &ebx, &ecx, &edx);
    words[4 * leaf + 0] = eax;
    words[4 * leaf + 1] = ebx;
    words[4 * leaf + 2] = ecx;
    words[4 * leaf + 3] = edx;
  }
  std::string name(brand);
  // Trim leading spaces (Intel pads the brand string on the left).
  const std::size_t first = name.find_first_not_of(' ');
  if (first == std::string::npos) return "unknown";
  return name.substr(first);
}

CpuFeatures probe() {
  CpuFeatures f;
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0) {
    f.avx = (ecx & (1u << 28)) != 0;
  }
  // AVX2 lives in leaf 7 subleaf 0, EBX bit 5. AVX must also be OS-enabled;
  // the CPUID OSXSAVE+AVX pair checked above is the standard proxy.
  if (f.avx && __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    f.avx2 = (ebx & (1u << 5)) != 0;
  }
  f.model_name = brand_string();
  return f;
}

#else  // non-x86: no vector tiers, scalar only.

CpuFeatures probe() { return CpuFeatures{}; }

#endif

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = probe();
  return features;
}

IsaLevel detected_isa() {
  const CpuFeatures& f = cpu_features();
  return f.avx2 ? IsaLevel::kAvx2 : IsaLevel::kScalar;
}

std::optional<IsaLevel> isa_from_string(const std::string& name) noexcept {
  for (const IsaLevel level : {IsaLevel::kScalar, IsaLevel::kAvx2}) {
    if (name == to_string(level)) return level;
  }
  return std::nullopt;
}

std::optional<IsaLevel> forced_isa() {
  const char* raw = std::getenv("HETOPT_FORCE_ISA");
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  const auto level = isa_from_string(raw);
  if (!level.has_value()) {
    throw std::runtime_error(std::string("HETOPT_FORCE_ISA: unknown ISA '") + raw +
                             "' (expected scalar or avx2)");
  }
  return level;
}

bool cpu_supports(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return true;
    case IsaLevel::kAvx2:
      return cpu_features().avx2;
  }
  return false;
}

}  // namespace hetopt::util
