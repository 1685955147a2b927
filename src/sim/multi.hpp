// Multi-accelerator extension. The paper's platform section notes nodes may
// carry "one to eight accelerators" and names adaptive workload-aware
// distribution as future work; this module provides that generalization on
// top of the same performance model: one host plus K (possibly different)
// devices, a share vector instead of a single fraction, and a water-filling
// solver that equalizes completion times.
#pragma once

#include <vector>

#include "parallel/affinity.hpp"
#include "sim/machine.hpp"
#include "sim/spec.hpp"

namespace hetopt::sim {

/// One accelerator's execution context within a multi-device node.
struct DeviceContext {
  ProcessorSpec spec;
  OffloadSpec offload;
  int threads = 1;
  parallel::DeviceAffinity affinity = parallel::DeviceAffinity::kBalanced;
};

struct ShareVector {
  double host_percent = 0.0;              // share of the host, in percent
  std::vector<double> device_percent;     // one share per device, in percent
  double makespan_s = 0.0;                // max over all participants

  /// Shares always sum to 100 (within fp rounding).
  [[nodiscard]] double total_percent() const noexcept;
};

/// A host plus K accelerators. Noiseless model only (this is an analysis
/// tool; the stochastic layer lives in Machine).
class MultiDeviceMachine {
 public:
  MultiDeviceMachine(ProcessorSpec host, std::vector<DeviceContext> devices);

  [[nodiscard]] std::size_t device_count() const noexcept { return devices_.size(); }

  /// Time for the host to scan `mb` with the given threading. 0 MB -> 0 s.
  [[nodiscard]] double host_time(double mb, int threads,
                                 parallel::HostAffinity affinity) const;
  /// Time for device `i` to scan `mb` (launch + streamed transfer + compute).
  [[nodiscard]] double device_time(std::size_t i, double mb) const;
  /// Same, but with the device's threading overridden (threads clamped to
  /// the device's limit) — the model distribute() prices candidates with.
  [[nodiscard]] double device_time(std::size_t i, double mb, int threads,
                                   parallel::DeviceAffinity affinity) const;

  /// Makespan of an explicit share assignment (percent per participant;
  /// must sum to ~100).
  [[nodiscard]] double makespan(double total_mb, const ShareVector& shares, int host_threads,
                                parallel::HostAffinity host_affinity) const;

  /// Water-filling: find the share vector minimizing the makespan for the
  /// given host threading, by bisection on the finish time T — participant i
  /// absorbs the bytes it can finish within T (devices join only once T
  /// exceeds their launch latency). Exact for this model up to `tolerance`.
  [[nodiscard]] ShareVector balance(double total_mb, int host_threads,
                                    parallel::HostAffinity host_affinity,
                                    double tolerance_s = 1e-9) const;

  /// Baseline: equal split across host and all devices.
  [[nodiscard]] ShareVector equal_split(double total_mb, int host_threads,
                                        parallel::HostAffinity host_affinity) const;

  /// Evaluator glue (core::MultiDeviceMeasurementEvaluator): the host keeps
  /// `host_percent` of the input, every device runs with the given uniform
  /// threading (clamped to its own limit), and the device remainder is split
  /// across the devices by the water-filling solver so they finish together.
  /// With no devices (or host_percent 100) the host takes everything.
  /// Returned shares sum to 100 within fp rounding; makespan_s is filled in.
  /// Throws std::invalid_argument for a non-positive size or a host_percent
  /// outside [0, 100] (NaN included).
  [[nodiscard]] ShareVector distribute(double total_mb, double host_percent, int host_threads,
                                       parallel::HostAffinity host_affinity, int device_threads,
                                       parallel::DeviceAffinity device_affinity,
                                       double tolerance_s = 1e-9) const;

 private:
  ProcessorSpec host_;
  std::vector<DeviceContext> devices_;
};

/// Convenience: the Emil host plus `count` Xeon Phi 7120P cards at full
/// threading (240, balanced).
[[nodiscard]] MultiDeviceMachine emil_with_phis(std::size_t count);

}  // namespace hetopt::sim
