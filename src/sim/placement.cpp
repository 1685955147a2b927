#include "sim/placement.hpp"

#include <algorithm>
#include <stdexcept>

namespace hetopt::sim {

namespace {

/// Spread placement: one thread per core until all cores have one, then
/// round-robin extra threads (each contributing smt_yield units).
[[nodiscard]] Placement spread(const ProcessorSpec& spec, int threads) {
  Placement p;
  p.cores_used = std::min(threads, spec.cores);
  const int extra = threads - p.cores_used;
  p.thread_units = static_cast<double>(p.cores_used) + spec.smt_yield * extra;
  return p;
}

/// Packed placement: fill each core's SMT ways before opening a new core.
[[nodiscard]] Placement packed(const ProcessorSpec& spec, int threads) {
  Placement p;
  p.cores_used = std::min(spec.cores, (threads + spec.smt_ways - 1) / spec.smt_ways);
  const int extra = threads - p.cores_used;  // threads beyond the first on a core
  p.thread_units = static_cast<double>(p.cores_used) + spec.smt_yield * extra;
  return p;
}

void check_threads(const ProcessorSpec& spec, int threads) {
  if (threads < 1) throw std::invalid_argument("placement: threads < 1");
  if (threads > spec.max_threads()) {
    throw std::invalid_argument("placement: " + std::to_string(threads) +
                                " threads exceed " + spec.name + " capacity of " +
                                std::to_string(spec.max_threads()));
  }
}

}  // namespace

Placement host_placement(const ProcessorSpec& spec, int threads,
                         parallel::HostAffinity affinity) {
  check_threads(spec, threads);
  switch (affinity) {
    case parallel::HostAffinity::kScatter:
      return spread(spec, threads);
    case parallel::HostAffinity::kCompact:
      return packed(spec, threads);
    case parallel::HostAffinity::kNone: {
      Placement p = spread(spec, threads);
      p.penalty = 0.96;  // OS migrations / imbalance
      return p;
    }
  }
  throw std::logic_error("host_placement: bad affinity");
}

Placement device_placement(const ProcessorSpec& spec, int threads,
                           parallel::DeviceAffinity affinity) {
  check_threads(spec, threads);
  switch (affinity) {
    case parallel::DeviceAffinity::kBalanced:
      return spread(spec, threads);
    case parallel::DeviceAffinity::kScatter: {
      Placement p = spread(spec, threads);
      p.penalty = 0.985;  // slightly worse cache-neighbour locality
      return p;
    }
    case parallel::DeviceAffinity::kCompact:
      return packed(spec, threads);
  }
  throw std::logic_error("device_placement: bad affinity");
}

double throughput_gbps(const ProcessorSpec& spec, const Placement& p) {
  if (p.cores_used < 1) throw std::invalid_argument("throughput: no cores used");
  const double contention = 1.0 + spec.contention_beta * (p.cores_used - 1);
  return spec.per_thread_gbps * p.thread_units / contention * p.penalty;
}

double host_scan_seconds(const ProcessorSpec& host, double mb, int threads,
                         parallel::HostAffinity affinity) {
  if (mb < 0.0) throw std::invalid_argument("host_scan_seconds: negative size");
  if (mb == 0.0) return 0.0;
  const Placement p = host_placement(host, threads, affinity);
  const double gb = mb / 1024.0;
  return host.serial_overhead_s + gb / throughput_gbps(host, p);
}

double device_scan_seconds(const ProcessorSpec& device, const OffloadSpec& offload, double mb,
                           int threads, parallel::DeviceAffinity affinity) {
  if (mb < 0.0) throw std::invalid_argument("device_scan_seconds: negative size");
  if (mb == 0.0) return 0.0;
  const Placement p = device_placement(device, threads, affinity);
  const double gb = mb / 1024.0;
  const double compute = gb / throughput_gbps(device, p);
  const double transfer = gb / offload.pcie_gbps;
  const double overlapped =
      std::max(compute + offload.non_overlapped_fraction * transfer, transfer);
  return offload.launch_latency_s + device.serial_overhead_s + overlapped;
}

}  // namespace hetopt::sim
