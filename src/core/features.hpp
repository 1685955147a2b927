// Feature encoding for the performance-prediction models. The paper trains
// on "the input size, the available computing resources, and the thread
// allocation strategies" (§III-B); we encode these as
//   [ size_mb, threads, one-hot affinity (3), one-hot engine (5),
//     one-hot schedule (4), pool_count, pool_share_pct ]
// separately per environment (host / device), mirroring the paper's two
// models. The engine and schedule one-hots and the fleet columns are this
// reproduction's extensions: when the training data varies the match
// engine, the distribution schedule, or the device-fleet size, EML/SAML can
// predict across them too. Sweeps that keep the defaults produce constant
// columns, which the min-max normalizer maps to zero — boosted-tree splits
// and predictions are then identical to the 5-feature layout.
//
// Fleet columns: `pool_count` is the total number of pools in the fleet
// (host + devices; 2 = the paper's host+device pair), `pool_share_pct` the
// percentage of this environment's bytes that one pool of the environment
// holds (host: always 100; device: 100 / device_count, the water-filled
// equal split across identical accelerators). The defaults encode the
// classic pair, so legacy call sites produce constant columns.
//
// write_host_features/write_device_features are the one encoder: they fill
// a caller's fixed-size FeatureRow, so prediction encodes a row on the stack
// without allocating. host_features/device_features wrap them for training,
// which stores rows in an ml::Dataset.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "automata/engine_kind.hpp"
#include "parallel/affinity.hpp"
#include "parallel/schedule.hpp"

namespace hetopt::core {

inline constexpr std::size_t kFeatureCount = 16;

/// One environment's feature row in the layout above.
using FeatureRow = std::array<double, kFeatureCount>;

[[nodiscard]] std::vector<std::string> host_feature_names();
[[nodiscard]] std::vector<std::string> device_feature_names();

/// Overwrites every column of `out`. Throws std::invalid_argument on a
/// negative or NaN size, threads < 1, pool_count < 1 or a pool share
/// outside [0, 100].
void write_host_features(FeatureRow& out, double size_mb, int threads,
                         parallel::HostAffinity affinity,
                         automata::EngineKind engine = automata::EngineKind::kCompiledDfa,
                         parallel::SchedulePolicy schedule = parallel::SchedulePolicy::kStatic,
                         int pool_count = 2, double pool_share_percent = 100.0);
void write_device_features(FeatureRow& out, double size_mb, int threads,
                           parallel::DeviceAffinity affinity,
                           automata::EngineKind engine = automata::EngineKind::kCompiledDfa,
                           parallel::SchedulePolicy schedule = parallel::SchedulePolicy::kStatic,
                           int pool_count = 2, double pool_share_percent = 100.0);

/// The same rows as a vector, for datasets.
[[nodiscard]] std::vector<double> host_features(
    double size_mb, int threads, parallel::HostAffinity affinity,
    automata::EngineKind engine = automata::EngineKind::kCompiledDfa,
    parallel::SchedulePolicy schedule = parallel::SchedulePolicy::kStatic,
    int pool_count = 2, double pool_share_percent = 100.0);
[[nodiscard]] std::vector<double> device_features(
    double size_mb, int threads, parallel::DeviceAffinity affinity,
    automata::EngineKind engine = automata::EngineKind::kCompiledDfa,
    parallel::SchedulePolicy schedule = parallel::SchedulePolicy::kStatic,
    int pool_count = 2, double pool_share_percent = 100.0);

}  // namespace hetopt::core
