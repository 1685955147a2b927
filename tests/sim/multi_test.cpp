#include "sim/multi.hpp"

#include <gtest/gtest.h>

namespace hetopt::sim {
namespace {

using parallel::HostAffinity;

TEST(MultiDevice, SingleDeviceMatchesMachineModel) {
  const MultiDeviceMachine multi = emil_with_phis(1);
  const Machine single = emil_machine();
  EXPECT_EQ(multi.device_time(0, 1500.0),
            single.device_time_model(1500.0, 240, parallel::DeviceAffinity::kBalanced));
  EXPECT_EQ(multi.host_time(1500.0, 48, HostAffinity::kScatter),
            single.host_time_model(1500.0, 48, HostAffinity::kScatter));
}

TEST(MultiDevice, BalanceSharesSumTo100) {
  for (std::size_t k : {1u, 2u, 4u, 8u}) {
    const MultiDeviceMachine multi = emil_with_phis(k);
    const ShareVector s = multi.balance(3170.0, 48, HostAffinity::kScatter);
    EXPECT_NEAR(s.total_percent(), 100.0, 1e-6) << k << " devices";
    EXPECT_EQ(s.device_percent.size(), k);
  }
}

TEST(MultiDevice, MakespanDecreasesWithMoreAccelerators) {
  double prev = 1e300;
  for (std::size_t k : {0u, 1u, 2u, 4u, 8u}) {
    const MultiDeviceMachine multi = emil_with_phis(k);
    const ShareVector s = multi.balance(3170.0, 48, HostAffinity::kScatter);
    EXPECT_LT(s.makespan_s, prev) << k << " devices";
    prev = s.makespan_s;
  }
}

TEST(MultiDevice, ZeroDevicesReducesToHostOnly) {
  const MultiDeviceMachine multi = emil_with_phis(0);
  const ShareVector s = multi.balance(2000.0, 48, HostAffinity::kScatter);
  EXPECT_NEAR(s.host_percent, 100.0, 1e-9);
  EXPECT_NEAR(s.makespan_s, multi.host_time(2000.0, 48, HostAffinity::kScatter), 1e-6);
}

TEST(MultiDevice, BalanceBeatsEqualSplit) {
  for (std::size_t k : {1u, 2u, 4u}) {
    const MultiDeviceMachine multi = emil_with_phis(k);
    const ShareVector balanced = multi.balance(3170.0, 48, HostAffinity::kScatter);
    const ShareVector equal = multi.equal_split(3170.0, 48, HostAffinity::kScatter);
    EXPECT_LE(balanced.makespan_s, equal.makespan_s * 1.0000001) << k << " devices";
  }
}

TEST(MultiDevice, BalancedSidesFinishTogether) {
  // Water-filling equalizes completion times of all participating sides.
  const MultiDeviceMachine multi = emil_with_phis(2);
  const ShareVector s = multi.balance(3170.0, 48, HostAffinity::kScatter);
  const double host = multi.host_time(3170.0 * s.host_percent / 100.0, 48,
                                      HostAffinity::kScatter);
  for (std::size_t i = 0; i < 2; ++i) {
    const double dev = multi.device_time(i, 3170.0 * s.device_percent[i] / 100.0);
    EXPECT_NEAR(dev, host, host * 0.01);
  }
}

TEST(MultiDevice, IdenticalDevicesGetIdenticalShares) {
  const MultiDeviceMachine multi = emil_with_phis(4);
  const ShareVector s = multi.balance(3170.0, 48, HostAffinity::kScatter);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_NEAR(s.device_percent[i], s.device_percent[0], 1e-6);
  }
}

TEST(MultiDevice, SmallInputExcludesDevices) {
  // If the host finishes before a device could even launch, devices get 0.
  const MultiDeviceMachine multi = emil_with_phis(2);
  const ShareVector s = multi.balance(10.0, 48, HostAffinity::kScatter);
  // Host alone takes ~0.02 s overhead + tiny compute; launch latency is
  // 0.068 s, so devices cannot contribute.
  for (double d : s.device_percent) EXPECT_NEAR(d, 0.0, 1e-9);
  EXPECT_NEAR(s.host_percent, 100.0, 1e-9);
}

TEST(MultiDevice, HeterogeneousDevicesShareByCapability) {
  const MachineSpec base = emil_spec();
  DeviceContext fast;
  fast.spec = base.device;
  fast.spec.per_thread_gbps *= 2.0;
  fast.offload = base.offload;
  fast.threads = fast.spec.max_threads();
  DeviceContext slow;
  slow.spec = base.device;
  slow.offload = base.offload;
  slow.threads = slow.spec.max_threads();
  const MultiDeviceMachine multi(base.host, {fast, slow});
  const ShareVector s = multi.balance(3170.0, 48, parallel::HostAffinity::kScatter);
  EXPECT_GT(s.device_percent[0], s.device_percent[1] * 1.5);
}

TEST(MultiDevice, MakespanValidatesShares) {
  const MultiDeviceMachine multi = emil_with_phis(2);
  ShareVector bad;
  bad.host_percent = 50.0;
  bad.device_percent = {25.0};  // wrong size
  EXPECT_THROW((void)multi.makespan(100.0, bad, 48, HostAffinity::kScatter),
               std::invalid_argument);
  bad.device_percent = {25.0, 10.0};  // sums to 85
  EXPECT_THROW((void)multi.makespan(100.0, bad, 48, HostAffinity::kScatter),
               std::invalid_argument);
}

TEST(MultiDevice, ConstructorValidation) {
  const MachineSpec base = emil_spec();
  DeviceContext bad;
  bad.spec = base.device;
  bad.offload = base.offload;
  bad.threads = 0;
  EXPECT_THROW(MultiDeviceMachine(base.host, {bad}), std::invalid_argument);
  bad.threads = 1;
  bad.offload.pcie_gbps = 0.0;
  EXPECT_THROW(MultiDeviceMachine(base.host, {bad}), std::invalid_argument);
  ProcessorSpec coreless_host = base.host;
  coreless_host.cores = 0;
  EXPECT_THROW(MultiDeviceMachine(coreless_host, {}), std::invalid_argument);
}

}  // namespace
}  // namespace hetopt::sim
