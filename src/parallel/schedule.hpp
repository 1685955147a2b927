// The work-distribution vocabulary: *how* chunks reach the workers. This is
// a *tuned axis* — opt::SystemConfig carries one of these values next to the
// thread/affinity/engine knobs, so the optimizers can discover that a
// demand-driven schedule beats the paper's static split for a given workload
// (the paper names "adaptive workload-aware distribution" as future work).
//
// Kept in its own header (enum + string helpers only) so the opt layer can
// name policies without depending on the queue machinery behind them.
//
// Meaning per layer:
//   automata::ParallelMatcher (one pool scanning one text)
//     static    chunks pre-assigned to workers in contiguous groups
//               (the seed behavior)
//     dynamic   workers pull chunk indices from an atomic ticket queue
//     guided    decreasing chunk sizes (big head, fine tail) pulled from
//               the queue — the OpenMP `guided` shape
//     adaptive  same as dynamic (adaptivity across *pools* lives in the
//               executor; a single pool has nothing to steal from)
//
//   core::HeterogeneousExecutor (a fleet of N pools, one input; pool 0 is
//   the host, pools 1..N-1 the devices)
//     static    the configured shares cut the input into one segment per
//               pool; each pool claims its own segment's chunks in
//               ascending order and joins (the seed behavior). Only a
//               failed pool's unclaimed remainder is taken over.
//     dynamic   one shared chunk queue, every pool pulls from its front —
//               fully demand-driven, the realized split emerges at runtime
//     guided    shared queue with guided (decreasing) chunk sizes
//     adaptive  segments as under static, but a pool that has drained its
//               own segment *steals* from the back of the nearest
//               unfinished segment, so owner and thief meet from opposite
//               ends — the realized shares start at the configured ones and
//               drift to match the hardware (ExecutionReport records
//               realized shares and steals)
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string_view>

namespace hetopt::parallel {

enum class SchedulePolicy {
  kStatic = 0,
  kDynamic = 1,
  kGuided = 2,
  kAdaptive = 3,
};

inline constexpr std::size_t kSchedulePolicyCount = 4;
inline constexpr std::array<SchedulePolicy, kSchedulePolicyCount> kAllSchedulePolicies{
    SchedulePolicy::kStatic, SchedulePolicy::kDynamic, SchedulePolicy::kGuided,
    SchedulePolicy::kAdaptive};

[[nodiscard]] constexpr std::string_view to_string(SchedulePolicy policy) noexcept {
  switch (policy) {
    case SchedulePolicy::kStatic: return "static";
    case SchedulePolicy::kDynamic: return "dynamic";
    case SchedulePolicy::kGuided: return "guided";
    case SchedulePolicy::kAdaptive: return "adaptive";
  }
  return "?";
}

/// Inverse of to_string; nullopt for unknown names.
[[nodiscard]] constexpr std::optional<SchedulePolicy> schedule_policy_from_string(
    std::string_view name) noexcept {
  for (const SchedulePolicy policy : kAllSchedulePolicies) {
    if (to_string(policy) == name) return policy;
  }
  return std::nullopt;
}

}  // namespace hetopt::parallel
