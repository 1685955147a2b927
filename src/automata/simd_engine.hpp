// The SIMD engine tier as a MatchEngine: the lane-parallel Shift-And kernels
// from src/automata/simd/ packaged behind the same chunk-aware contract every
// other engine honors, so the parallel matcher, the executor fleet, and the
// tuner price it like any other EngineKind.
//
//  BitapSimdEngine   (kBitapSimd)   each chunk is split into one contiguous
//                                   sub-stream per vector lane, each lane
//                                   warms up over its bound-1 preceding bytes
//                                   (the PaREM chunk protocol applied *inside*
//                                   the chunk), and all lanes advance in
//                                   lockstep. Counts are sums over disjoint
//                                   end-position ranges — bit-identical to
//                                   BitapMatcher's one-stream scan by
//                                   construction, property-tested to stay so.
//
// The ISA is resolved at construction: explicit request > HETOPT_FORCE_ISA
// > widest the CPU supports. Forcing an unavailable level throws.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "automata/bitap.hpp"
#include "automata/dense_dfa.hpp"
#include "automata/match_engine.hpp"
#include "automata/simd/simd_kernels.hpp"
#include "util/cpu_features.hpp"

namespace hetopt::automata {

class BitapSimdEngine final : public MatchEngine {
 public:
  /// Same applicability as BitapMatcher (IUPAC, <= 64 summed bits). `isa`
  /// pins a specific variant (tests sweep every available level, and the
  /// scalar level is the one-stream reference kernel); nullopt defers to
  /// HETOPT_FORCE_ISA, then the widest available.
  explicit BitapSimdEngine(const std::vector<std::string>& patterns,
                           std::optional<util::IsaLevel> isa = std::nullopt);

  [[nodiscard]] EngineKind kind() const noexcept override {
    return EngineKind::kBitapSimd;
  }
  [[nodiscard]] std::size_t synchronization_bound() const noexcept override {
    return matcher_.synchronization_bound();
  }
  [[nodiscard]] std::size_t pattern_count() const noexcept override {
    return matcher_.pattern_count();
  }

  [[nodiscard]] std::uint64_t count_chunk(std::string_view text, std::size_t begin,
                                          std::size_t end) const override;
  [[nodiscard]] std::uint64_t collect_chunk(std::string_view text, std::size_t begin,
                                            std::size_t end,
                                            std::vector<Match>& out) const override;

  /// The ISA variant this engine resolved to at construction.
  [[nodiscard]] util::IsaLevel isa() const noexcept { return isa_; }
  /// Vector lanes the resolved kernel advances in lockstep.
  [[nodiscard]] std::size_t lanes() const noexcept { return kernel_->lanes; }

 private:
  BitapMatcher matcher_;
  util::IsaLevel isa_;
  const simd::BitapKernel* kernel_;
};

}  // namespace hetopt::automata
