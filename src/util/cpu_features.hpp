#pragma once

// Runtime CPU capability probe for the SIMD engine tier.
//
// One binary carries every compiled vector kernel (scalar always, AVX2 when
// the toolchain can build it); the dispatch layer in
// src/automata/simd/ picks the widest variant the *running* CPU supports.
// `HETOPT_FORCE_ISA` overrides the pick so every code path is testable on any
// host: forcing a level the machine cannot run is a hard error, never a
// silent fallback (a bench labeled "avx2" must actually have run AVX2).
//
// On non-x86 targets every feature probe reports false and only the scalar
// level is available; the API shape is identical.

#include <cstdint>
#include <optional>
#include <string>

namespace hetopt::util {

/// The ISA tiers the dispatch layer distinguishes, narrowest first. The
/// numeric order is meaningful: dispatch picks the largest supported value.
enum class IsaLevel : int {
  kScalar = 0,  ///< portable C++, bit-identical reference for every kernel
  kAvx2 = 1,    ///< 256-bit vectors
};

[[nodiscard]] constexpr const char* to_string(IsaLevel level) noexcept {
  switch (level) {
    case IsaLevel::kScalar:
      return "scalar";
    case IsaLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

/// Parses "scalar" / "avx2"; nullopt on anything else.
[[nodiscard]] std::optional<IsaLevel> isa_from_string(const std::string& name) noexcept;

/// What the running CPU can execute (independent of what was compiled).
struct CpuFeatures {
  bool avx = false;
  bool avx2 = false;
  /// Brand string from CPUID leaves 0x80000002-4 ("unknown" off x86 or when
  /// the leaves are unavailable), trimmed of padding.
  std::string model_name = "unknown";
};

/// The AVX/AVX2 decision from raw probe words; the model name stays
/// "unknown". AVX needs the CPU bit (CPUID leaf 1 ECX bit 28), OSXSAVE (ECX
/// bit 27) and an OS that saves XMM and YMM state (`xcr0` bits 1 and 2);
/// AVX2 needs AVX plus leaf 7 EBX bit 5. `xcr0` is read only when OSXSAVE is
/// set (pass 0 otherwise).
[[nodiscard]] CpuFeatures vector_features(std::uint32_t leaf1_ecx, std::uint32_t leaf7_ebx,
                                          std::uint64_t xcr0);

/// The cached CPUID probe of the running machine. The probe runs once; the
/// result never changes for the life of the process.
[[nodiscard]] const CpuFeatures& cpu_features();

/// The widest IsaLevel the running CPU supports.
[[nodiscard]] IsaLevel detected_isa();

/// The `HETOPT_FORCE_ISA` override, re-read on every call so tests can set
/// and clear it around engine construction. Returns nullopt when the
/// variable is unset or empty; throws std::runtime_error on an
/// unrecognized value (a typo must not silently run the wrong kernel).
[[nodiscard]] std::optional<IsaLevel> forced_isa();

/// True when `level` can execute on the running CPU (scalar always can).
[[nodiscard]] bool cpu_supports(IsaLevel level);

}  // namespace hetopt::util
