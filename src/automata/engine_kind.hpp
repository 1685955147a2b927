// The match-engine vocabulary: which scan-engine implementation executes the
// motif search. This is a *tuned axis* — opt::SystemConfig carries one of
// these values next to the thread/affinity knobs, so the optimizers can
// discover that a different engine wins for a given motif set or genome.
//
// Kept in its own header (enum + string helpers only) so the opt layer can
// name engines without depending on the automata machinery behind them.
#pragma once

#include <array>
#include <optional>
#include <string_view>

namespace hetopt::automata {

enum class EngineKind {
  /// IUPAC regex -> NFA -> subset construction -> Hopcroft minimization,
  /// lowered into the compiled scan kernels (compiled_dfa.hpp). Handles the
  /// full motif language; the default and the only pre-engine-axis behavior.
  kCompiledDfa = 0,
  /// Vectorized Shift-And (simd_engine.hpp): the bitap recurrence
  /// (bitap.hpp) run one chunk sub-stream per vector lane, with runtime ISA
  /// dispatch (scalar/AVX2 — see src/automata/simd/). IUPAC classes
  /// allowed, no regex operators, summed pattern lengths <= 64.
  kBitapSimd = 1,
};

inline constexpr std::size_t kEngineKindCount = 2;
inline constexpr std::array<EngineKind, kEngineKindCount> kAllEngineKinds{
    EngineKind::kCompiledDfa, EngineKind::kBitapSimd};

[[nodiscard]] constexpr std::string_view to_string(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kCompiledDfa: return "compiled-dfa";
    case EngineKind::kBitapSimd: return "bitap-simd";
  }
  return "?";
}

/// Inverse of to_string; nullopt for unknown names.
[[nodiscard]] constexpr std::optional<EngineKind> engine_kind_from_string(
    std::string_view name) noexcept {
  for (const EngineKind kind : kAllEngineKinds) {
    if (to_string(kind) == name) return kind;
  }
  return std::nullopt;
}

}  // namespace hetopt::automata
