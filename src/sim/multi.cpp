#include "sim/multi.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/placement.hpp"

namespace hetopt::sim {

double ShareVector::total_percent() const noexcept {
  double total = host_percent;
  for (double d : device_percent) total += d;
  return total;
}

MultiDeviceMachine::MultiDeviceMachine(ProcessorSpec host, std::vector<DeviceContext> devices)
    : host_(std::move(host)), devices_(std::move(devices)) {
  if (host_.cores < 1) throw std::invalid_argument("MultiDeviceMachine: host has no cores");
  for (const DeviceContext& d : devices_) {
    if (d.spec.cores < 1) {
      throw std::invalid_argument("MultiDeviceMachine: device has no cores");
    }
    if (d.threads < 1 || d.threads > d.spec.max_threads()) {
      throw std::invalid_argument("MultiDeviceMachine: device thread count out of range");
    }
    if (d.offload.pcie_gbps <= 0.0) {
      throw std::invalid_argument("MultiDeviceMachine: non-positive PCIe bandwidth");
    }
  }
}

double MultiDeviceMachine::host_time(double mb, int threads,
                                     parallel::HostAffinity affinity) const {
  return host_scan_seconds(host_, mb, threads, affinity);
}

double MultiDeviceMachine::device_time(std::size_t i, double mb) const {
  if (i >= devices_.size()) throw std::out_of_range("MultiDeviceMachine: device index");
  const DeviceContext& d = devices_[i];
  return device_scan_seconds(d.spec, d.offload, mb, d.threads, d.affinity);
}

double MultiDeviceMachine::makespan(double total_mb, const ShareVector& shares,
                                    int host_threads,
                                    parallel::HostAffinity host_affinity) const {
  if (shares.device_percent.size() != devices_.size()) {
    throw std::invalid_argument("MultiDeviceMachine: share vector size mismatch");
  }
  if (std::abs(shares.total_percent() - 100.0) > 1e-6) {
    throw std::invalid_argument("MultiDeviceMachine: shares must sum to 100");
  }
  double worst = host_time(total_mb * shares.host_percent / 100.0, host_threads,
                           host_affinity);
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    worst = std::max(
        worst, device_time(i, total_mb * shares.device_percent[i] / 100.0));
  }
  return worst;
}

namespace {

/// Megabytes participant can finish within deadline T given its affine time
/// model t(mb) = overhead + mb / rate (rate in MB/s of wall time).
[[nodiscard]] double absorbable_mb(double deadline_s, double overhead_s,
                                   double mb_per_second) {
  if (deadline_s <= overhead_s) return 0.0;
  return (deadline_s - overhead_s) * mb_per_second;
}

struct AffineRate {
  double overhead_s = 0.0;
  double mb_per_second = 0.0;
};

/// Inverts the overlapped offload model into the affine form
/// t(mb) = overhead + mb / rate used by the water-filling solver.
[[nodiscard]] AffineRate device_affine_rate(const DeviceContext& d, int threads,
                                            parallel::DeviceAffinity affinity) {
  const Placement p = device_placement(d.spec, threads, affinity);
  const double compute_rate = throughput_gbps(d.spec, p) * 1024.0;
  const double transfer_rate = d.offload.pcie_gbps * 1024.0;
  const double per_mb = std::max(
      1.0 / compute_rate + d.offload.non_overlapped_fraction / transfer_rate,
      1.0 / transfer_rate);
  return {d.offload.launch_latency_s + d.spec.serial_overhead_s, 1.0 / per_mb};
}

}  // namespace

double MultiDeviceMachine::device_time(std::size_t i, double mb, int threads,
                                       parallel::DeviceAffinity affinity) const {
  if (i >= devices_.size()) throw std::out_of_range("MultiDeviceMachine: device index");
  if (mb < 0.0) throw std::invalid_argument("MultiDeviceMachine: negative size");
  if (mb == 0.0) return 0.0;
  const DeviceContext& d = devices_[i];
  const int clamped = std::clamp(threads, 1, d.spec.max_threads());
  const AffineRate rate = device_affine_rate(d, clamped, affinity);
  return rate.overhead_s + mb / rate.mb_per_second;
}

ShareVector MultiDeviceMachine::balance(double total_mb, int host_threads,
                                        parallel::HostAffinity host_affinity,
                                        double tolerance_s) const {
  if (total_mb <= 0.0) throw std::invalid_argument("MultiDeviceMachine: non-positive size");

  // Effective affine models. Host: serial_overhead + mb / host_rate.
  const Placement hp = host_placement(host_, host_threads, host_affinity);
  const double host_rate = throughput_gbps(host_, hp) * 1024.0;  // MB/s

  std::vector<AffineRate> rates;
  rates.reserve(devices_.size());
  for (const DeviceContext& d : devices_) {
    rates.push_back(device_affine_rate(d, d.threads, d.affinity));
  }

  // Bisection on the common finish time T.
  double lo = 0.0;
  double hi = host_time(total_mb, host_threads, host_affinity);  // host alone suffices
  const auto capacity = [&](double t) {
    double mb = absorbable_mb(t, host_.serial_overhead_s, host_rate);
    for (const AffineRate& r : rates) mb += absorbable_mb(t, r.overhead_s, r.mb_per_second);
    return mb;
  };
  for (int iter = 0; iter < 200 && hi - lo > tolerance_s; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (capacity(mid) >= total_mb ? hi : lo) = mid;
  }
  const double t = hi;

  ShareVector shares;
  shares.device_percent.resize(devices_.size(), 0.0);
  double assigned = absorbable_mb(t, host_.serial_overhead_s, host_rate);
  shares.host_percent = std::min(100.0, 100.0 * assigned / total_mb);
  double remaining_pct = 100.0 - shares.host_percent;
  for (std::size_t i = 0; i < devices_.size() && remaining_pct > 0.0; ++i) {
    const double mb = absorbable_mb(t, rates[i].overhead_s, rates[i].mb_per_second);
    const double pct = std::min(remaining_pct, 100.0 * mb / total_mb);
    shares.device_percent[i] = pct;
    remaining_pct -= pct;
  }
  // Any sliver left from rounding goes to the host (it has no join latency).
  shares.host_percent += remaining_pct;
  shares.makespan_s = makespan(total_mb, shares, host_threads, host_affinity);
  return shares;
}

ShareVector MultiDeviceMachine::equal_split(double total_mb, int host_threads,
                                            parallel::HostAffinity host_affinity) const {
  ShareVector shares;
  const double each = 100.0 / static_cast<double>(devices_.size() + 1);
  shares.host_percent = each;
  shares.device_percent.assign(devices_.size(), each);
  // Fix rounding so the sum is exactly 100.
  shares.host_percent = 100.0;
  for (double d : shares.device_percent) shares.host_percent -= d;
  shares.makespan_s = makespan(total_mb, shares, host_threads, host_affinity);
  return shares;
}

ShareVector MultiDeviceMachine::distribute(double total_mb, double host_percent,
                                           int host_threads,
                                           parallel::HostAffinity host_affinity,
                                           int device_threads,
                                           parallel::DeviceAffinity device_affinity,
                                           double tolerance_s) const {
  if (total_mb <= 0.0) throw std::invalid_argument("MultiDeviceMachine: non-positive size");
  if (!(host_percent >= 0.0 && host_percent <= 100.0)) {  // rejects NaN too
    throw std::invalid_argument("MultiDeviceMachine: host_percent out of [0,100]");
  }

  ShareVector shares;
  shares.device_percent.resize(devices_.size(), 0.0);

  if (devices_.empty() || host_percent == 100.0) {
    // No devices to offload to (or nothing left for them): host takes all.
    shares.host_percent = 100.0;
    shares.makespan_s = host_time(total_mb, host_threads, host_affinity);
    return shares;
  }

  shares.host_percent = host_percent;
  const double device_mb = total_mb * (100.0 - host_percent) / 100.0;

  // Per-device affine models under the uniform (clamped) threading.
  std::vector<AffineRate> rates;
  rates.reserve(devices_.size());
  for (const DeviceContext& d : devices_) {
    const int threads = std::clamp(device_threads, 1, d.spec.max_threads());
    rates.push_back(device_affine_rate(d, threads, device_affinity));
  }

  // Water-filling across the devices only: bisection on their common finish
  // time T. Device 0 alone absorbing everything bounds T from above.
  double lo = 0.0;
  double hi = rates.front().overhead_s + device_mb / rates.front().mb_per_second;
  const auto capacity = [&](double t) {
    double mb = 0.0;
    for (const AffineRate& r : rates) mb += absorbable_mb(t, r.overhead_s, r.mb_per_second);
    return mb;
  };
  for (int iter = 0; iter < 200 && hi - lo > tolerance_s; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (capacity(mid) >= device_mb ? hi : lo) = mid;
  }
  const double t = hi;

  double remaining_pct = 100.0 - host_percent;
  std::size_t largest = 0;
  for (std::size_t i = 0; i < devices_.size() && remaining_pct > 0.0; ++i) {
    const double mb = absorbable_mb(t, rates[i].overhead_s, rates[i].mb_per_second);
    const double pct = std::min(remaining_pct, 100.0 * mb / total_mb);
    shares.device_percent[i] = pct;
    remaining_pct -= pct;
    if (pct > shares.device_percent[largest]) largest = i;
  }
  // Any sliver left from rounding goes to the most capable device (the host's
  // share is fixed by contract here).
  shares.device_percent[largest] += remaining_pct;

  // Makespan under the overridden threading (makespan() would use each
  // device's stored context, so compute from the affine models directly).
  double worst = host_time(total_mb * host_percent / 100.0, host_threads, host_affinity);
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const double mb = total_mb * shares.device_percent[i] / 100.0;
    if (mb > 0.0) {
      worst = std::max(worst, rates[i].overhead_s + mb / rates[i].mb_per_second);
    }
  }
  shares.makespan_s = worst;
  return shares;
}

MultiDeviceMachine emil_with_phis(std::size_t count) {
  const MachineSpec base = emil_spec();
  std::vector<DeviceContext> devices;
  devices.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    DeviceContext d;
    d.spec = base.device;
    d.offload = base.offload;
    d.threads = base.device.max_threads();
    d.affinity = parallel::DeviceAffinity::kBalanced;
    devices.push_back(d);
  }
  return MultiDeviceMachine(base.host, std::move(devices));
}

}  // namespace hetopt::sim
