#include "sim/machine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "parallel/partitioner.hpp"
#include "sim/placement.hpp"
#include "util/rng.hpp"

namespace hetopt::sim {

Machine::Machine(MachineSpec spec) : spec_(std::move(spec)) {
  if (spec_.host.cores < 1 || spec_.device.cores < 1) {
    throw std::invalid_argument("Machine: processor without cores");
  }
  if (spec_.offload.pcie_gbps <= 0.0) {
    throw std::invalid_argument("Machine: non-positive PCIe bandwidth");
  }
}

double Machine::host_time_model(double mb, int threads,
                                parallel::HostAffinity affinity) const {
  return host_scan_seconds(spec_.host, mb, threads, affinity);
}

double Machine::device_time_model(double mb, int threads,
                                  parallel::DeviceAffinity affinity) const {
  return device_scan_seconds(spec_.device, spec_.offload, mb, threads, affinity);
}

double Machine::noise_factor(std::uint64_t stream, double sigma,
                             std::uint64_t repetition) const {
  util::Xoshiro256 rng(util::hash_combine(util::hash_combine(spec_.seed, stream), repetition));
  return rng.lognormal_factor(sigma);
}

namespace {

/// Stable stream id for a measurement site. Sizes are quantized to whole
/// kilobytes so logically-equal configurations share a noise stream.
[[nodiscard]] std::uint64_t stream_id(std::uint64_t env, double mb, int threads,
                                      std::uint64_t affinity) {
  const auto size_kb = static_cast<std::uint64_t>(mb * 1024.0 + 0.5);
  std::uint64_t h = util::hash_combine(env, size_kb);
  h = util::hash_combine(h, static_cast<std::uint64_t>(threads));
  return util::hash_combine(h, affinity);
}

}  // namespace

double Machine::measure_host(double mb, int threads, parallel::HostAffinity affinity,
                             std::uint64_t repetition) const {
  const double t = host_time_model(mb, threads, affinity);
  if (t == 0.0) return 0.0;
  double sigma = spec_.host_noise.sigma;
  if (affinity == parallel::HostAffinity::kNone) {
    sigma *= spec_.host_noise.unpinned_multiplier;
  }
  const std::uint64_t stream =
      stream_id(0x484f5354ULL /*HOST*/, mb, threads, static_cast<std::uint64_t>(affinity));
  return t * noise_factor(stream, sigma, repetition);
}

double Machine::measure_device(double mb, int threads, parallel::DeviceAffinity affinity,
                               std::uint64_t repetition) const {
  const double t = device_time_model(mb, threads, affinity);
  if (t == 0.0) return 0.0;
  const std::uint64_t stream =
      stream_id(0x44455649ULL /*DEVI*/, mb, threads, static_cast<std::uint64_t>(affinity));
  return t * noise_factor(stream, spec_.device_noise.sigma, repetition);
}

double Machine::combined_time_model(double total_mb, double host_percent, int host_threads,
                                    parallel::HostAffinity host_affinity, int device_threads,
                                    parallel::DeviceAffinity device_affinity) const {
  if (!(host_percent >= 0.0 && host_percent <= 100.0)) {  // rejects NaN too
    throw std::invalid_argument("combined_time_model: host_percent out of [0,100]");
  }
  const double host_mb = total_mb * host_percent / 100.0;
  const double device_mb = total_mb - host_mb;
  return std::max(host_time_model(host_mb, host_threads, host_affinity),
                  device_time_model(device_mb, device_threads, device_affinity));
}

double Machine::measure_combined(double total_mb, double host_percent, int host_threads,
                                 parallel::HostAffinity host_affinity, int device_threads,
                                 parallel::DeviceAffinity device_affinity,
                                 std::uint64_t repetition) const {
  if (!(host_percent >= 0.0 && host_percent <= 100.0)) {  // rejects NaN too
    throw std::invalid_argument("measure_combined: host_percent out of [0,100]");
  }
  const double host_mb = total_mb * host_percent / 100.0;
  const double device_mb = total_mb - host_mb;
  return std::max(measure_host(host_mb, host_threads, host_affinity, repetition),
                  measure_device(device_mb, device_threads, device_affinity, repetition));
}

Machine emil_machine() { return Machine(emil_spec()); }

}  // namespace hetopt::sim
