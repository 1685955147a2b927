#include "core/features.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "ml/dataset.hpp"

namespace hetopt::core {
namespace {

TEST(Features, HostLayout) {
  const auto f = host_features(1500.0, 24, parallel::HostAffinity::kScatter);
  ASSERT_EQ(f.size(), kFeatureCount);
  EXPECT_DOUBLE_EQ(f[0], 1500.0);
  EXPECT_DOUBLE_EQ(f[1], 24.0);
  EXPECT_DOUBLE_EQ(f[2], 0.0);  // none
  EXPECT_DOUBLE_EQ(f[3], 1.0);  // scatter
  EXPECT_DOUBLE_EQ(f[4], 0.0);  // compact
  EXPECT_DOUBLE_EQ(f[5], 1.0);  // compiled-dfa (the default engine)
  EXPECT_DOUBLE_EQ(f[6], 0.0);  // bitap-simd
  EXPECT_DOUBLE_EQ(f[7], 1.0);  // static (the default schedule)
  EXPECT_DOUBLE_EQ(f[8], 0.0);  // dynamic
  EXPECT_DOUBLE_EQ(f[9], 0.0);  // guided
  EXPECT_DOUBLE_EQ(f[10], 0.0);  // adaptive
  EXPECT_DOUBLE_EQ(f[11], 2.0);  // pool_count (the classic pair)
  EXPECT_DOUBLE_EQ(f[12], 100.0);  // pool_share_pct
}

TEST(Features, DeviceLayout) {
  const auto f = device_features(800.0, 120, parallel::DeviceAffinity::kCompact);
  ASSERT_EQ(f.size(), kFeatureCount);
  EXPECT_DOUBLE_EQ(f[0], 800.0);
  EXPECT_DOUBLE_EQ(f[1], 120.0);
  EXPECT_DOUBLE_EQ(f[2], 0.0);  // balanced
  EXPECT_DOUBLE_EQ(f[3], 0.0);  // scatter
  EXPECT_DOUBLE_EQ(f[4], 1.0);  // compact
  EXPECT_DOUBLE_EQ(f[5], 1.0);  // compiled-dfa (the default engine)
}

TEST(Features, EngineOneHot) {
  for (const automata::EngineKind kind : automata::kAllEngineKinds) {
    const auto h = host_features(1.0, 2, parallel::HostAffinity::kNone, kind);
    const auto d = device_features(1.0, 2, parallel::DeviceAffinity::kBalanced, kind);
    EXPECT_DOUBLE_EQ(h[5] + h[6], 1.0);
    EXPECT_DOUBLE_EQ(d[5] + d[6], 1.0);
    EXPECT_DOUBLE_EQ(h[5 + static_cast<std::size_t>(kind)], 1.0);
    EXPECT_DOUBLE_EQ(d[5 + static_cast<std::size_t>(kind)], 1.0);
  }
  const auto simd = host_features(1.0, 2, parallel::HostAffinity::kNone,
                                  automata::EngineKind::kBitapSimd);
  EXPECT_DOUBLE_EQ(simd[5], 0.0);
  EXPECT_DOUBLE_EQ(simd[6], 1.0);
}

TEST(Features, ScheduleOneHot) {
  for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
    const auto h = host_features(1.0, 2, parallel::HostAffinity::kNone,
                                 automata::EngineKind::kCompiledDfa, policy);
    const auto d = device_features(1.0, 2, parallel::DeviceAffinity::kBalanced,
                                   automata::EngineKind::kCompiledDfa, policy);
    EXPECT_DOUBLE_EQ(h[7] + h[8] + h[9] + h[10], 1.0);
    EXPECT_DOUBLE_EQ(d[7] + d[8] + d[9] + d[10], 1.0);
    EXPECT_DOUBLE_EQ(h[7 + static_cast<std::size_t>(policy)], 1.0);
    EXPECT_DOUBLE_EQ(d[7 + static_cast<std::size_t>(policy)], 1.0);
  }
  const auto adaptive =
      host_features(1.0, 2, parallel::HostAffinity::kNone,
                    automata::EngineKind::kCompiledDfa,
                    parallel::SchedulePolicy::kAdaptive);
  EXPECT_DOUBLE_EQ(adaptive[7], 0.0);
  EXPECT_DOUBLE_EQ(adaptive[10], 1.0);
}

TEST(Features, ConstantScheduleColumnNormalizesToZero) {
  // Sweeps that never vary the schedule produce constant one-hot columns;
  // the min-max normalizer must map them to zero so legacy predictor models
  // (and default-schedule predictions) are unchanged by the wider layout.
  ml::Dataset data(host_feature_names());
  data.add(host_features(1.0, 2, parallel::HostAffinity::kNone), 1.0);
  data.add(host_features(2.0, 4, parallel::HostAffinity::kScatter), 2.0);
  ml::Normalizer norm;
  norm.fit(data);
  std::vector<double> out(kFeatureCount);
  norm.transform_row(host_features(1.5, 2, parallel::HostAffinity::kNone), out);
  for (std::size_t j = 7; j < kFeatureCount; ++j) {
    EXPECT_DOUBLE_EQ(out[j], 0.0) << "column " << j;
  }
  EXPECT_DOUBLE_EQ(out[5], 0.0);  // the constant engine column, same rule
}

TEST(Features, OneHotIsExclusive) {
  for (parallel::HostAffinity a : parallel::kAllHostAffinities) {
    const auto f = host_features(1.0, 2, a);
    EXPECT_DOUBLE_EQ(f[2] + f[3] + f[4], 1.0);
  }
  for (parallel::DeviceAffinity a : parallel::kAllDeviceAffinities) {
    const auto f = device_features(1.0, 2, a);
    EXPECT_DOUBLE_EQ(f[2] + f[3] + f[4], 1.0);
  }
}

TEST(Features, FleetColumnsEncodePoolShapeWithPairDefaults) {
  // Defaults encode the paper's pair: 2 pools, this environment holding
  // 100% of its side — the constant columns legacy sweeps produce.
  const auto h = host_features(1.0, 2, parallel::HostAffinity::kNone);
  EXPECT_DOUBLE_EQ(h[11], 2.0);
  EXPECT_DOUBLE_EQ(h[12], 100.0);
  // A 4-device fleet: 5 pools, each device holding a quarter of the side.
  const auto d = device_features(1.0, 2, parallel::DeviceAffinity::kBalanced,
                                 automata::EngineKind::kCompiledDfa,
                                 parallel::SchedulePolicy::kStatic, 5, 25.0);
  EXPECT_DOUBLE_EQ(d[11], 5.0);
  EXPECT_DOUBLE_EQ(d[12], 25.0);
  // Out-of-range fleet shapes are rejected.
  EXPECT_THROW((void)host_features(1.0, 2, parallel::HostAffinity::kNone,
                                   automata::EngineKind::kCompiledDfa,
                                   parallel::SchedulePolicy::kStatic, 0, 100.0),
               std::invalid_argument);
  EXPECT_THROW((void)device_features(1.0, 2, parallel::DeviceAffinity::kBalanced,
                                     automata::EngineKind::kCompiledDfa,
                                     parallel::SchedulePolicy::kStatic, 2, 101.0),
               std::invalid_argument);
}

TEST(Features, NamesMatchLayoutWidth) {
  // 5 paper columns, 2 engines, 4 schedules, 2 fleet columns.
  EXPECT_EQ(kScheduleColumn, 7u);
  EXPECT_EQ(kFleetColumn, 11u);
  EXPECT_EQ(kFeatureCount, 13u);
  EXPECT_EQ(host_feature_names().size(), kFeatureCount);
  EXPECT_EQ(device_feature_names().size(), kFeatureCount);
  EXPECT_EQ(host_feature_names()[0], "size_mb");
  EXPECT_EQ(device_feature_names()[2], "affinity_balanced");
  EXPECT_EQ(host_feature_names()[5], "engine_compiled_dfa");
  EXPECT_EQ(device_feature_names()[6], "engine_bitap_simd");
  EXPECT_EQ(host_feature_names()[7], "schedule_static");
  EXPECT_EQ(host_feature_names()[8], "schedule_dynamic");
  EXPECT_EQ(host_feature_names()[9], "schedule_guided");
  EXPECT_EQ(device_feature_names()[10], "schedule_adaptive");
  EXPECT_EQ(host_feature_names()[11], "pool_count");
  EXPECT_EQ(device_feature_names()[12], "pool_share_pct");
}

TEST(Features, Validation) {
  EXPECT_THROW((void)host_features(-1.0, 2, parallel::HostAffinity::kNone),
               std::invalid_argument);
  EXPECT_THROW((void)host_features(1.0, 0, parallel::HostAffinity::kNone),
               std::invalid_argument);
  EXPECT_THROW((void)device_features(-1.0, 2, parallel::DeviceAffinity::kBalanced),
               std::invalid_argument);
}

}  // namespace
}  // namespace hetopt::core
