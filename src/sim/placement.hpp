// Thread placement: how an affinity policy maps N software threads onto the
// cores of a processor, and what that does to delivered throughput.
#pragma once

#include "parallel/affinity.hpp"
#include "sim/spec.hpp"

namespace hetopt::sim {

/// The throughput-relevant shape of a placement.
struct Placement {
  int cores_used = 0;      // distinct physical cores hosting >= 1 thread
  double thread_units = 0; // 1 per first thread on a core, smt_yield per extra
  double penalty = 1.0;    // multiplicative placement quality factor
};

/// Host placements (Intel OpenMP semantics):
///  - scatter: round-robin across cores; threads share a core only once all
///    cores are occupied.
///  - compact: fill each core's SMT ways before moving to the next core.
///  - none:    the OS spreads threads like scatter but with a small penalty
///    for migrations/imbalance.
[[nodiscard]] Placement host_placement(const ProcessorSpec& spec, int threads,
                                       parallel::HostAffinity affinity);

/// Device placements (Intel MIC KMP_AFFINITY semantics):
///  - balanced: threads spread evenly, neighbours on the same core — the
///    recommended policy; modelled as ideal spread.
///  - scatter:  round-robin; same core usage, slightly worse locality for
///    this streaming workload (small penalty).
///  - compact:  fill 4-way cores first; poor for low thread counts.
[[nodiscard]] Placement device_placement(const ProcessorSpec& spec, int threads,
                                         parallel::DeviceAffinity affinity);

/// Delivered scan throughput (GB/s) of a placement on a processor:
///   per_thread_gbps * thread_units / (1 + beta * (cores_used - 1)) * penalty
[[nodiscard]] double throughput_gbps(const ProcessorSpec& spec, const Placement& p);

/// Time for a host processor to scan `mb` megabytes: serial overhead plus
/// the bytes at the placement's throughput. 0 MB -> 0 s; throws
/// std::invalid_argument on a negative size.
[[nodiscard]] double host_scan_seconds(const ProcessorSpec& host, double mb, int threads,
                                       parallel::HostAffinity affinity);

/// Time for a device to scan `mb` megabytes including offload costs: launch
/// latency, serial overhead, and compute overlapped with the streamed PCIe
/// transfer (all but its non-overlapped leading fill; the device finishes no
/// earlier than the transfer itself). 0 MB -> 0 s; throws
/// std::invalid_argument on a negative size.
[[nodiscard]] double device_scan_seconds(const ProcessorSpec& device,
                                         const OffloadSpec& offload, double mb, int threads,
                                         parallel::DeviceAffinity affinity);

}  // namespace hetopt::sim
