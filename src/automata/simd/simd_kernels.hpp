// The SIMD kernel tier: per-ISA vector kernels behind a runtime dispatcher.
//
// Everything that touches raw intrinsics lives in this directory — the
// hetopt_lint `raw-intrinsics` rule enforces it — and is reached only
// through the kernel tables declared here. One binary compiles every
// variant its toolchain can build (the AVX2 translation unit gets a
// per-file -mavx2; non-x86 builds compile it to a stub), and resolve_isa()
// picks per *running* CPU:
//
//     requested ISA (engine ctor)  >  HETOPT_FORCE_ISA  >  widest available
//
// Forcing a level the build or the CPU cannot run is a hard error — a
// result labeled "avx2" must actually have executed AVX2. Each level
// exports two kernels:
//
//   BitapKernel  the lane-parallel Shift-And scan behind BitapSimdEngine;
//                the scalar variant is the one-stream reference running
//                BitapMatcher's exact recurrence, and every level is
//                property-tested bit-identical to BitapMatcher
//                (tests/automata/simd_engine_test);
//   QuadPackFn   the text-to-quads pack behind CompiledDfa's stride-4 split
//                count; the scalar variant is SWAR (bit tricks on 64-bit
//                words), and every level is tested equal to a plain
//                per-byte reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "automata/bitap.hpp"
#include "util/cpu_features.hpp"

namespace hetopt::automata::simd {

/// One ISA variant of the lane-parallel Shift-And kernel. The range
/// (begin, end] is split into `lanes` contiguous sub-streams; each lane
/// warms up over the `bound - 1` bytes preceding its sub-stream (the PaREM
/// chunk-entry protocol) and all lanes then advance in vector lockstep.
struct BitapKernel {
  util::IsaLevel isa;
  std::size_t lanes;
  /// Counts occurrences with end positions in (begin, end]. Invalid bytes
  /// are detected branch-free and reported via *bad (set to true, count
  /// then meaningless); the caller re-walks the range and throws the
  /// scalar matcher's exact exception. Never throws itself.
  std::uint64_t (*count_range)(const BitapMatcher::Tables& t, std::string_view text,
                               std::size_t begin, std::size_t end, std::size_t bound,
                               bool* bad);
};

/// One ISA variant of the quad pack that feeds CompiledDfa's stride-4 split
/// count. Packs text[0, 4 * quads) into `quads` bytes, four 2-bit base codes
/// per byte: out[i] = c0 << 6 | c1 << 4 | c2 << 2 | c3 for the bytes
/// text[4i .. 4i + 3], c0 the earliest. Every byte b maps to
/// ((b >> 1) ^ (b >> 2)) & 3 — A0 C1 G2 T3 in either case — so `out` is
/// defined for any input. Returns true iff every byte is one of ACGTacgt:
/// an exact flag, computed without a table load. Reads no byte past
/// text[4 * quads - 1]; never throws.
using QuadPackFn = bool (*)(const char* text, std::size_t quads, std::uint8_t* out) noexcept;

// Per-ISA kernel tables. The scalar kernels always exist; the AVX2 getters
// return nullptr when their TU was compiled without the ISA. Whether the
// *CPU* can run a compiled-in variant is resolve_isa()'s job.
[[nodiscard]] const BitapKernel& scalar_bitap_kernel() noexcept;
[[nodiscard]] const BitapKernel* avx2_bitap_kernel() noexcept;
[[nodiscard]] QuadPackFn scalar_quad_pack() noexcept;
[[nodiscard]] QuadPackFn avx2_quad_pack() noexcept;

/// ISA levels this binary can execute here and now (compiled in AND
/// supported by the running CPU). Always contains kScalar, ascending order.
[[nodiscard]] std::vector<util::IsaLevel> available_isas();

/// Resolves the level an engine runs at: `request` when given, else the
/// HETOPT_FORCE_ISA override, else the widest available. Throws
/// std::runtime_error when the resolved level is not available (and names
/// whether the build or the CPU is the gap).
[[nodiscard]] util::IsaLevel resolve_isa(std::optional<util::IsaLevel> request);

/// The kernel table for an *available* level (resolve_isa() output).
/// Throws std::runtime_error for unavailable levels.
[[nodiscard]] const BitapKernel& bitap_kernel(util::IsaLevel isa);

/// The quad pack for an *available* level; throws like bitap_kernel().
[[nodiscard]] QuadPackFn quad_pack(util::IsaLevel isa);

}  // namespace hetopt::automata::simd
