// Calibration invariants: these tests pin the simulated time surface to the
// quantities the paper reports (DESIGN.md §5). If the model drifts, these
// fail before any benchmark does.
#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace hetopt::sim {
namespace {

using parallel::DeviceAffinity;
using parallel::HostAffinity;

class MachineFixture : public ::testing::Test {
 protected:
  Machine machine_ = emil_machine();
};

TEST_F(MachineFixture, HostSpanMatchesPaper) {
  // Paper: host execution times span ~0.74 - 5.5 s on full genomes.
  const double slow = machine_.host_time_model(3170, 2, HostAffinity::kScatter);
  const double fast = machine_.host_time_model(3170, 48, HostAffinity::kScatter);
  EXPECT_NEAR(slow, 5.5, 0.5);
  EXPECT_NEAR(fast, 0.74, 0.08);
}

TEST_F(MachineFixture, DeviceSpanMatchesPaper) {
  // Paper: device times span ~0.9 - 42 s.
  const double slow = machine_.device_time_model(3170, 2, DeviceAffinity::kBalanced);
  const double fast = machine_.device_time_model(3170, 240, DeviceAffinity::kBalanced);
  EXPECT_NEAR(slow, 42.0, 2.0);
  EXPECT_NEAR(fast, 0.95, 0.15);
}

TEST_F(MachineFixture, DeviceOnlySlowerThanHostOnly) {
  // EM speedups (1.95 vs host, 2.36 vs device) imply device-only is ~1.2x
  // slower than host-only.
  const double host = machine_.host_time_model(3170, 48, HostAffinity::kScatter);
  const double device = machine_.device_time_model(3170, 240, DeviceAffinity::kBalanced);
  EXPECT_GT(device, host);
  EXPECT_NEAR(device / host, 1.25, 0.2);
}

TEST_F(MachineFixture, ZeroBytesCostNothing) {
  EXPECT_EQ(machine_.host_time_model(0, 24, HostAffinity::kScatter), 0.0);
  EXPECT_EQ(machine_.device_time_model(0, 60, DeviceAffinity::kBalanced), 0.0);
  EXPECT_EQ(machine_.measure_host(0, 24, HostAffinity::kScatter), 0.0);
  EXPECT_EQ(machine_.measure_device(0, 60, DeviceAffinity::kBalanced), 0.0);
}

TEST_F(MachineFixture, NegativeSizeRejected) {
  EXPECT_THROW((void)machine_.host_time_model(-1, 24, HostAffinity::kScatter),
               std::invalid_argument);
  EXPECT_THROW((void)machine_.device_time_model(-1, 60, DeviceAffinity::kBalanced),
               std::invalid_argument);
}

TEST_F(MachineFixture, TimeMonotoneInSize) {
  double prev = 0.0;
  for (double mb : {100.0, 500.0, 1000.0, 2000.0, 3170.0}) {
    const double t = machine_.host_time_model(mb, 24, HostAffinity::kScatter);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST_F(MachineFixture, HostTimeDecreasesWithThreads) {
  double prev = 1e9;
  for (int t : {2, 6, 12, 24, 36, 48}) {
    const double cur = machine_.host_time_model(2000, t, HostAffinity::kScatter);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

TEST_F(MachineFixture, MeasurementsAreReproducible) {
  const double a = machine_.measure_host(1234, 24, HostAffinity::kScatter, 0);
  const double b = machine_.measure_host(1234, 24, HostAffinity::kScatter, 0);
  EXPECT_EQ(a, b);
}

TEST_F(MachineFixture, RepetitionsDrawFreshNoise) {
  const double a = machine_.measure_host(1234, 24, HostAffinity::kScatter, 0);
  const double b = machine_.measure_host(1234, 24, HostAffinity::kScatter, 1);
  EXPECT_NE(a, b);
}

TEST_F(MachineFixture, NoiseIsSmallAndCentered) {
  // Mean of many repetitions should sit within ~2% of the model (sigma 5.2%).
  const double model = machine_.host_time_model(2000, 24, HostAffinity::kScatter);
  double sum = 0.0;
  constexpr int kReps = 400;
  for (int r = 0; r < kReps; ++r) {
    sum += machine_.measure_host(2000, 24, HostAffinity::kScatter, r);
  }
  EXPECT_NEAR(sum / kReps / model, 1.0, 0.02);
}

TEST_F(MachineFixture, UnpinnedAffinityIsNoisier) {
  const double model_none = machine_.host_time_model(2000, 24, HostAffinity::kNone);
  const double model_scatter = machine_.host_time_model(2000, 24, HostAffinity::kScatter);
  double var_none = 0.0;
  double var_scatter = 0.0;
  constexpr int kReps = 500;
  for (int r = 0; r < kReps; ++r) {
    const double dn =
        machine_.measure_host(2000, 24, HostAffinity::kNone, r) / model_none - 1.0;
    const double ds =
        machine_.measure_host(2000, 24, HostAffinity::kScatter, r) / model_scatter - 1.0;
    var_none += dn * dn;
    var_scatter += ds * ds;
  }
  EXPECT_GT(var_none, var_scatter * 1.5);
}

TEST_F(MachineFixture, CombinedIsMaxOfSides) {
  // Eq. 2: E = max(T_host, T_device).
  const double host = machine_.host_time_model(3170.0 * 0.6, 48, HostAffinity::kScatter);
  const double device =
      machine_.device_time_model(3170.0 * 0.4, 240, DeviceAffinity::kBalanced);
  const double combined = machine_.combined_time_model(3170, 60, 48, HostAffinity::kScatter,
                                                       240, DeviceAffinity::kBalanced);
  EXPECT_DOUBLE_EQ(combined, std::max(host, device));
}

TEST_F(MachineFixture, CombinedEndpointsReduceToSingleDevice) {
  const double host_only = machine_.combined_time_model(
      2000, 100, 48, HostAffinity::kScatter, 240, DeviceAffinity::kBalanced);
  EXPECT_DOUBLE_EQ(host_only, machine_.host_time_model(2000, 48, HostAffinity::kScatter));
  const double device_only = machine_.combined_time_model(
      2000, 0, 48, HostAffinity::kScatter, 240, DeviceAffinity::kBalanced);
  EXPECT_DOUBLE_EQ(device_only,
                   machine_.device_time_model(2000, 240, DeviceAffinity::kBalanced));
}

TEST_F(MachineFixture, CombinedRejectsBadFraction) {
  EXPECT_THROW((void)machine_.combined_time_model(100, -5, 48, HostAffinity::kScatter, 240,
                                                  DeviceAffinity::kBalanced),
               std::invalid_argument);
  EXPECT_THROW((void)machine_.measure_combined(100, 101, 48, HostAffinity::kScatter, 240,
                                               DeviceAffinity::kBalanced),
               std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)machine_.combined_time_model(100, nan, 48, HostAffinity::kScatter, 240,
                                                  DeviceAffinity::kBalanced),
               std::invalid_argument);
  EXPECT_THROW((void)machine_.measure_combined(100, nan, 48, HostAffinity::kScatter, 240,
                                               DeviceAffinity::kBalanced),
               std::invalid_argument);
}

TEST_F(MachineFixture, Fig2aSmallInputPrefersCpuOnly) {
  // 190 MB, 48 host threads: offload overhead dominates; CPU-only wins.
  double best = 1e30;
  int best_pct = -1;
  for (int pct = 0; pct <= 100; pct += 10) {
    const double t = machine_.combined_time_model(190, pct, 48, HostAffinity::kScatter, 240,
                                                  DeviceAffinity::kBalanced);
    if (t < best) {
      best = t;
      best_pct = pct;
    }
  }
  EXPECT_EQ(best_pct, 100);
}

TEST_F(MachineFixture, Fig2bLargeInputPrefersSeventyThirty) {
  // 3250 MB, 48 host threads: optimum around 60-70% on the host.
  double best = 1e30;
  int best_pct = -1;
  for (int pct = 0; pct <= 100; pct += 10) {
    const double t = machine_.combined_time_model(3250, pct, 48, HostAffinity::kScatter,
                                                  240, DeviceAffinity::kBalanced);
    if (t < best) {
      best = t;
      best_pct = pct;
    }
  }
  EXPECT_GE(best_pct, 60);
  EXPECT_LE(best_pct, 70);
}

TEST_F(MachineFixture, Fig2cFewHostThreadsPreferDevice) {
  // 3250 MB, 4 host threads: the device should get ~70-80% of the work.
  double best = 1e30;
  int best_pct = -1;
  for (int pct = 0; pct <= 100; pct += 10) {
    const double t = machine_.combined_time_model(3250, pct, 4, HostAffinity::kScatter, 240,
                                                  DeviceAffinity::kBalanced);
    if (t < best) {
      best = t;
      best_pct = pct;
    }
  }
  EXPECT_LE(best_pct, 30);
  EXPECT_GT(best_pct, 0);
}

TEST_F(MachineFixture, BadSpecsRejected) {
  MachineSpec bad = emil_spec();
  bad.host.cores = 0;
  EXPECT_THROW(Machine{bad}, std::invalid_argument);
  MachineSpec bad2 = emil_spec();
  bad2.offload.pcie_gbps = 0.0;
  EXPECT_THROW(Machine{bad2}, std::invalid_argument);
}

}  // namespace
}  // namespace hetopt::sim
