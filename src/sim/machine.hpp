// The simulated heterogeneous machine: deterministic analytic time surface
// plus reproducible measurement noise. This is the stand-in for running the
// DNA application on the paper's testbed — every optimizer and the ML
// training pipeline consume (configuration -> seconds) pairs from here.
#pragma once

#include <cstdint>

#include "parallel/affinity.hpp"
#include "sim/spec.hpp"

namespace hetopt::sim {

/// Execution-time queries. Sizes are megabytes of DNA sequence (the paper's
/// unit). `repetition` distinguishes repeated measurements of the same
/// configuration (different noise draw); the noiseless surface is obtained
/// from the *_time_model functions.
class Machine {
 public:
  explicit Machine(MachineSpec spec);

  [[nodiscard]] const MachineSpec& spec() const noexcept { return spec_; }

  // --- Noiseless analytic surface -----------------------------------------
  /// Time for the host CPUs to scan `mb` megabytes. 0 bytes -> 0 s.
  [[nodiscard]] double host_time_model(double mb, int threads,
                                       parallel::HostAffinity affinity) const;
  /// Time for the device to scan `mb` megabytes including offload costs
  /// (launch latency + non-overlapped part of the PCIe transfer; the bulk of
  /// the transfer streams concurrently with compute). 0 bytes -> 0 s.
  [[nodiscard]] double device_time_model(double mb, int threads,
                                         parallel::DeviceAffinity affinity) const;

  // --- Noisy "measurements" -------------------------------------------------
  /// Measured host time: model x lognormal(sigma). Deterministic in
  /// (spec seed, arguments, repetition).
  [[nodiscard]] double measure_host(double mb, int threads, parallel::HostAffinity affinity,
                                    std::uint64_t repetition = 0) const;
  [[nodiscard]] double measure_device(double mb, int threads,
                                      parallel::DeviceAffinity affinity,
                                      std::uint64_t repetition = 0) const;

  /// The paper's objective (Eq. 2): host and device run overlapped, so the
  /// application finishes when the slower side does.
  /// `host_percent` of `total_mb` goes to the host, the rest to the device;
  /// a host_percent outside [0, 100] (NaN included) throws
  /// std::invalid_argument.
  [[nodiscard]] double measure_combined(double total_mb, double host_percent, int host_threads,
                                        parallel::HostAffinity host_affinity,
                                        int device_threads,
                                        parallel::DeviceAffinity device_affinity,
                                        std::uint64_t repetition = 0) const;
  /// Noiseless counterpart of measure_combined.
  [[nodiscard]] double combined_time_model(double total_mb, double host_percent,
                                           int host_threads,
                                           parallel::HostAffinity host_affinity,
                                           int device_threads,
                                           parallel::DeviceAffinity device_affinity) const;

 private:
  [[nodiscard]] double noise_factor(std::uint64_t stream, double sigma,
                                    std::uint64_t repetition) const;

  MachineSpec spec_;
};

/// Convenience: a Machine built from emil_spec().
[[nodiscard]] Machine emil_machine();

}  // namespace hetopt::sim
