// A system configuration — the point the optimizers move through:
// (host threads, host affinity, device threads, device affinity,
//  workload fraction), exactly the paper's Table I, plus the two axes this
// reproduction adds on top: the match engine (which scan engine executes
// the search) and the distribution schedule (how chunks reach the workers).
// The defaults — compiled-DFA engine, static schedule — reproduce the
// paper's fixed application and one-shot split.
#pragma once

#include <cstdint>
#include <string>

#include "automata/engine_kind.hpp"
#include "parallel/affinity.hpp"
#include "parallel/schedule.hpp"

namespace hetopt::opt {

struct SystemConfig {
  int host_threads = 1;
  parallel::HostAffinity host_affinity = parallel::HostAffinity::kNone;
  int device_threads = 1;
  parallel::DeviceAffinity device_affinity = parallel::DeviceAffinity::kBalanced;
  /// Percentage of the workload executed on the host; the device gets
  /// 100 - host_percent (Table I: "Workload Fraction").
  double host_percent = 50.0;
  /// Which scan engine executes the motif search (an axis beyond the paper's
  /// Table I; the default is the pre-engine-axis behavior).
  automata::EngineKind engine = automata::EngineKind::kCompiledDfa;
  /// How the work reaches the pools (parallel/schedule.hpp): the paper's
  /// one-shot static split, or one of the demand-driven chunk-queue
  /// schedules. The default is the pre-schedule-axis behavior.
  parallel::SchedulePolicy schedule = parallel::SchedulePolicy::kStatic;
  /// How many accelerator devices share the device-side workload (the
  /// multi-accelerator scaling the paper names as future work). The device
  /// fraction (100 - host_percent) is water-filled across `device_count`
  /// device pools of `device_threads` each; 1 reproduces the paper's
  /// host+device pair exactly.
  int device_count = 1;

  friend bool operator==(const SystemConfig&, const SystemConfig&) = default;
};

/// "host 24t/scatter 70% | device 60t/balanced 30%"; a non-default engine is
/// appended as " [bitap-simd]", a non-default schedule as " [dynamic]", and a
/// non-default device count as " [3dev]" (the defaults are implied, so
/// paper-space and 2-pool strings are unchanged).
[[nodiscard]] std::string to_string(const SystemConfig& c);

}  // namespace hetopt::opt
