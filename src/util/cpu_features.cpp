#include "util/cpu_features.hpp"

#include <cstdint>
#include <cstdlib>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define HETOPT_CPUID_AVAILABLE 1
#endif

namespace hetopt::util {

namespace {

constexpr std::uint32_t kOsxsaveBit = 1u << 27;  // leaf 1 ECX
constexpr std::uint32_t kAvxBit = 1u << 28;      // leaf 1 ECX
constexpr std::uint32_t kAvx2Bit = 1u << 5;      // leaf 7 EBX
constexpr std::uint64_t kXcr0SseAvx = 0b110;     // XMM (bit 1) and YMM (bit 2) state

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
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  const std::uint32_t leaf1_ecx = __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 ? ecx : 0;
  // Leaf 7 subleaf 0 (absent on old CPUs: __get_cpuid_count checks the max).
  const std::uint32_t leaf7_ebx = __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 ? ebx : 0;
  // XCR0, the OS-enabled state bitmap: XGETBV faults unless OSXSAVE is set.
  std::uint32_t xcr0_lo = 0, xcr0_hi = 0;
  if ((leaf1_ecx & kOsxsaveBit) != 0) {
    __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  }
  CpuFeatures f =
      vector_features(leaf1_ecx, leaf7_ebx, (std::uint64_t{xcr0_hi} << 32) | xcr0_lo);
  f.model_name = brand_string();
  return f;
}

#else  // non-x86: no vector tiers, scalar only.

CpuFeatures probe() { return CpuFeatures{}; }

#endif

}  // namespace

CpuFeatures vector_features(std::uint32_t leaf1_ecx, std::uint32_t leaf7_ebx,
                            std::uint64_t xcr0) {
  CpuFeatures f;
  f.avx = (leaf1_ecx & kAvxBit) != 0 && (leaf1_ecx & kOsxsaveBit) != 0 &&
          (xcr0 & kXcr0SseAvx) == kXcr0SseAvx;
  f.avx2 = f.avx && (leaf7_ebx & kAvx2Bit) != 0;
  return f;
}

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
