// Differential oracle between the two halves of the reproduction: the
// analytical multi-device model (sim::MultiDeviceMachine::distribute) and
// the executed N-pool fleet (core::RealWorkloadEvaluator). The shares the
// model water-fills must be *exactly* the shares the evaluator configures
// its fleet with, and the shares the live runtime realizes must track them
// — the latter only up to machine noise, so deviations warn instead of fail
// (the PR-5 single_hw_thread convention: parallel-behavior expectations are
// advisory on arbitrary CI hardware).
#include "sim/multi.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "core/real_workload.hpp"
#include "opt/config.hpp"
#include "parallel/partitioner.hpp"
#include "parallel/schedule.hpp"

namespace hetopt::sim {
namespace {

core::RealWorkloadOptions tiny_options(bool deterministic) {
  core::RealWorkloadOptions options;
  options.bytes_per_logical_mb = 54.0;  // cat (2430 logical MB) -> ~128 KB
  options.min_physical_bytes = 64 * 1024;
  options.deterministic_timing = deterministic;
  return options;
}

core::Workload cat() { return core::Workload("cat", 2430.0); }

opt::SystemConfig fleet_config(int devices) {
  opt::SystemConfig c;
  c.host_threads = 2;
  c.device_threads = 3;
  c.host_percent = 40.0;
  c.device_count = devices;
  return c;
}

/// The shares the evaluator configures `c`'s fleet with: the raw fraction
/// for the pair, the host fraction plus distribute's water-filled device
/// remainder for a larger fleet.
std::vector<double> configured_shares(const opt::SystemConfig& c, double mb) {
  if (c.device_count == 1) return {c.host_percent, 100.0 - c.host_percent};
  const ShareVector sv = emil_with_phis(static_cast<std::size_t>(c.device_count))
                             .distribute(mb, c.host_percent, c.host_threads, c.host_affinity,
                                         c.device_threads, c.device_affinity);
  std::vector<double> shares{sv.host_percent};
  shares.insert(shares.end(), sv.device_percent.begin(), sv.device_percent.end());
  return shares;
}

TEST(DistributeParityTest, ConfiguredSharesAgreeWithDistributeExactly) {
  // The evaluator and this test make the *same* distribute call, so the
  // configured shares must be bit-identical, for every fleet size.
  const dna::GenomeCatalog catalog;
  const core::RealWorkloadEvaluator evaluator(catalog, tiny_options(true));
  const double mb = evaluator.real(cat()).physical_mb();
  for (const int devices : {2, 3, 4}) {
    const opt::SystemConfig c = fleet_config(devices);
    const core::RealMeasurement m = evaluator.measure(c, cat());
    const ShareVector sv = emil_with_phis(static_cast<std::size_t>(devices))
                               .distribute(mb, c.host_percent, c.host_threads,
                                           c.host_affinity, c.device_threads,
                                           c.device_affinity);
    const std::vector<core::PoolReport>& pools = m.report.pools;
    ASSERT_EQ(pools.size(), static_cast<std::size_t>(devices) + 1);
    EXPECT_DOUBLE_EQ(pools[0].configured_percent, sv.host_percent) << devices;
    for (int d = 0; d < devices; ++d) {
      EXPECT_DOUBLE_EQ(pools[static_cast<std::size_t>(d) + 1].configured_percent,
                       sv.device_percent[static_cast<std::size_t>(d)])
          << devices << "/" << d;
    }
    EXPECT_NEAR(sv.total_percent(), 100.0, 1e-9);
  }
}

TEST(DistributeParityTest, PairConfiguredSharesAreTheRawFraction) {
  // device_count = 1 is the paper's pair: no water-filling, the configured
  // shares are literally {host_percent, 100 - host_percent}.
  const dna::GenomeCatalog catalog;
  const core::RealWorkloadEvaluator evaluator(catalog, tiny_options(true));
  const core::RealMeasurement m = evaluator.measure(fleet_config(1), cat());
  ASSERT_EQ(m.report.pools.size(), 2u);
  EXPECT_DOUBLE_EQ(m.report.pools[0].configured_percent, 40.0);
  EXPECT_DOUBLE_EQ(m.report.pools[1].configured_percent, 60.0);
}

TEST(DistributeParityTest, StaticRealizedSharesMatchConfiguredUpToRounding) {
  // Under the static schedule the realized split is the configured one cut
  // at byte granularity: the live run's realized shares may differ from the
  // model's only by segment rounding (< one percent on a 128 KB genome).
  const dna::GenomeCatalog catalog;
  const core::RealWorkloadEvaluator evaluator(catalog, tiny_options(false));
  for (const int devices : {1, 3}) {
    const core::RealMeasurement m = evaluator.measure(fleet_config(devices), cat());
    ASSERT_EQ(m.report.pools.size(), static_cast<std::size_t>(devices) + 1);
    double realized_total = 0.0;
    for (std::size_t i = 0; i < m.report.pools.size(); ++i) {
      const core::PoolReport& pool = m.report.pools[i];
      EXPECT_NEAR(pool.realized_percent, pool.configured_percent, 0.5) << devices << "/" << i;
      realized_total += pool.realized_percent;
      EXPECT_EQ(pool.steals, 0u);
    }
    EXPECT_NEAR(realized_total, 100.0, 1e-9);
  }
}

TEST(DistributeParityTest, SharedQueueRealizedSharesTrackConfiguredOrWarn) {
  // Under the adaptive schedule the realized distribution emerges from
  // relative pool speeds on whatever machine CI gives us; a large drift from
  // the configured water-filled shares is machine noise, not a bug, so it
  // warns (stderr) instead of failing. The hard invariants — shares
  // accounted for every byte, exact match counts — still fail loudly.
  const dna::GenomeCatalog catalog;
  const core::RealWorkloadEvaluator evaluator(catalog, tiny_options(false));
  opt::SystemConfig c = fleet_config(3);
  c.schedule = parallel::SchedulePolicy::kAdaptive;
  const core::RealMeasurement m = evaluator.measure(c, cat());
  EXPECT_EQ(m.matches, evaluator.real(cat()).sequential_matches());
  std::size_t bytes = 0;
  for (const core::PoolReport& pool : m.report.pools) bytes += pool.bytes;
  EXPECT_EQ(bytes, evaluator.real(cat()).physical_bytes());
  constexpr double kAdvisoryTolerancePercent = 25.0;
  for (std::size_t i = 0; i < m.report.pools.size(); ++i) {
    const core::PoolReport& pool = m.report.pools[i];
    const double drift = std::abs(pool.realized_percent - pool.configured_percent);
    if (drift > kAdvisoryTolerancePercent) {
      std::cerr << "[          ] warning: pool " << i << " realized "
                << pool.realized_percent << "% vs configured "
                << pool.configured_percent << "% (drift " << drift
                << " > " << kAdvisoryTolerancePercent
                << "); machine-dependent, not failing\n";
    }
  }
}

TEST(DistributeParityTest, DeterministicFleetMeasurementsReproduce) {
  // What a deterministic measurement's report guarantees, for every
  // schedule and fleet size: one pool per fleet member, each configured
  // with the share measure() computed, each scanning the executor's share
  // cut of those shares, no steals and no imbalance, the modeled seconds as
  // the run's total, and the oracle's match count. Seeded determinism across
  // the whole differential surface: measured twice, all of it agrees.
  const dna::GenomeCatalog catalog;
  const core::RealWorkloadEvaluator evaluator(catalog, tiny_options(true));
  const core::RealWorkload& rw = evaluator.real(cat());
  for (const parallel::SchedulePolicy schedule : parallel::kAllSchedulePolicies) {
    for (const int devices : {1, 2, 4}) {
      opt::SystemConfig c = fleet_config(devices);
      c.schedule = schedule;
      const std::string what =
          std::string(parallel::to_string(schedule)) + "/" + std::to_string(devices);
      const std::vector<double> shares = configured_shares(c, rw.physical_mb());
      const std::vector<std::size_t> bounds =
          parallel::share_bounds(rw.physical_bytes(), shares);
      const core::RealMeasurement a = evaluator.measure(c, cat());
      const core::RealMeasurement b = evaluator.measure(c, cat());
      for (const core::RealMeasurement* m : {&a, &b}) {
        const std::vector<core::PoolReport>& pools = m->report.pools;
        ASSERT_EQ(pools.size(), static_cast<std::size_t>(devices) + 1) << what;
        std::size_t bytes = 0;
        for (std::size_t i = 0; i < pools.size(); ++i) {
          EXPECT_EQ(pools[i].configured_percent, shares[i]) << what << " pool " << i;
          EXPECT_EQ(pools[i].bytes, bounds[i + 1] - bounds[i]) << what << " pool " << i;
          EXPECT_EQ(pools[i].steals, 0u) << what << " pool " << i;
          bytes += pools[i].bytes;
        }
        EXPECT_EQ(bytes, rw.physical_bytes()) << what;
        EXPECT_EQ(m->report.imbalance, 0.0) << what;
        EXPECT_EQ(m->report.total_seconds, m->seconds) << what;
        EXPECT_EQ(m->matches, m->report.total_matches()) << what;
        EXPECT_EQ(m->matches, rw.sequential_matches()) << what;
      }
      EXPECT_EQ(a.seconds, b.seconds) << what;
      EXPECT_EQ(a.matches, b.matches) << what;
      for (std::size_t i = 0; i < a.report.pools.size(); ++i) {
        const core::PoolReport& pa = a.report.pools[i];
        const core::PoolReport& pb = b.report.pools[i];
        EXPECT_EQ(pa.configured_percent, pb.configured_percent) << what << " pool " << i;
        EXPECT_EQ(pa.realized_percent, pb.realized_percent) << what << " pool " << i;
        EXPECT_EQ(pa.bytes, pb.bytes) << what << " pool " << i;
        EXPECT_EQ(pa.seconds, pb.seconds) << what << " pool " << i;
      }
    }
  }
}

TEST(DistributeParityTest, WallClockMeasurementsAreTheirReportedRun) {
  // With no fault plan armed, a wall-clock measurement's seconds and match
  // count are exactly those of the run its report describes.
  const dna::GenomeCatalog catalog;
  const core::RealWorkloadEvaluator evaluator(catalog, tiny_options(false));
  for (const parallel::SchedulePolicy schedule : parallel::kAllSchedulePolicies) {
    for (const int devices : {1, 2, 4}) {
      opt::SystemConfig c = fleet_config(devices);
      c.schedule = schedule;
      const std::string what =
          std::string(parallel::to_string(schedule)) + "/" + std::to_string(devices);
      const core::RealMeasurement m = evaluator.measure(c, cat());
      EXPECT_EQ(m.report.pools.size(), static_cast<std::size_t>(devices) + 1) << what;
      EXPECT_EQ(m.seconds, m.report.total_seconds) << what;
      EXPECT_EQ(m.matches, m.report.total_matches()) << what;
      EXPECT_EQ(m.matches, evaluator.real(cat()).sequential_matches()) << what;
    }
  }
}

TEST(DistributeParityTest, MoreDevicesNeverSlowTheModelDown) {
  // Sanity on the model's fleet shape: under the shared-queue drain, extra
  // identical devices only add rate; under static, splitting the device
  // remainder K ways shrinks the slowest device share.
  opt::SystemConfig c = fleet_config(1);
  const std::size_t mb = 8 * 1024 * 1024;
  c.schedule = parallel::SchedulePolicy::kDynamic;
  const double one = core::real_workload_model_fleet_seconds(c, mb, {mb});
  const double two =
      core::real_workload_model_fleet_seconds(c, mb, {mb / 2, mb / 2});
  EXPECT_LT(two, one);
  c.schedule = parallel::SchedulePolicy::kStatic;
  const double one_s = core::real_workload_model_fleet_seconds(c, mb / 4, {mb});
  const double two_s =
      core::real_workload_model_fleet_seconds(c, mb / 4, {mb / 2, mb / 2});
  EXPECT_LT(two_s, one_s);
}

}  // namespace
}  // namespace hetopt::sim
