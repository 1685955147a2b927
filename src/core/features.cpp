#include "core/features.hpp"

#include <stdexcept>

namespace hetopt::core {

namespace {

void append_engine_names(std::vector<std::string>& names) {
  for (const automata::EngineKind kind : automata::kAllEngineKinds) {
    std::string name = "engine_";
    for (const char c : to_string(kind)) name.push_back(c == '-' ? '_' : c);
    names.push_back(std::move(name));
  }
}

void append_schedule_names(std::vector<std::string>& names) {
  for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
    std::string name = "schedule_";
    name += to_string(policy);
    names.push_back(std::move(name));
  }
}

void append_fleet_names(std::vector<std::string>& names) {
  names.push_back("pool_count");
  names.push_back("pool_share_pct");
}

// Both environments share the layout; only the affinity enum differs.
void write_features(FeatureRow& out, const char* who, double size_mb, int threads,
                    std::size_t affinity, automata::EngineKind engine,
                    parallel::SchedulePolicy schedule, int pool_count,
                    double pool_share_percent) {
  if (!(size_mb >= 0.0)) {
    throw std::invalid_argument(std::string(who) + ": negative or NaN size");
  }
  if (threads < 1) throw std::invalid_argument(std::string(who) + ": threads < 1");
  if (pool_count < 1) {
    throw std::invalid_argument(std::string(who) + ": pool_count < 1");
  }
  if (!(pool_share_percent >= 0.0 && pool_share_percent <= 100.0)) {
    throw std::invalid_argument(std::string(who) + ": pool share out of [0,100]");
  }
  out.fill(0.0);
  out[0] = size_mb;
  out[1] = static_cast<double>(threads);
  out[2 + affinity] = 1.0;
  out[kEngineColumn + static_cast<std::size_t>(engine)] = 1.0;
  out[kScheduleColumn + static_cast<std::size_t>(schedule)] = 1.0;
  out[kFleetColumn] = static_cast<double>(pool_count);
  out[kFleetColumn + 1] = pool_share_percent;
}

}  // namespace

std::vector<std::string> host_feature_names() {
  std::vector<std::string> names{"size_mb", "threads", "affinity_none", "affinity_scatter",
                                 "affinity_compact"};
  append_engine_names(names);
  append_schedule_names(names);
  append_fleet_names(names);
  return names;
}

std::vector<std::string> device_feature_names() {
  std::vector<std::string> names{"size_mb", "threads", "affinity_balanced",
                                 "affinity_scatter", "affinity_compact"};
  append_engine_names(names);
  append_schedule_names(names);
  append_fleet_names(names);
  return names;
}

void write_host_features(FeatureRow& out, double size_mb, int threads,
                         parallel::HostAffinity affinity, automata::EngineKind engine,
                         parallel::SchedulePolicy schedule, int pool_count,
                         double pool_share_percent) {
  write_features(out, "host_features", size_mb, threads, static_cast<std::size_t>(affinity),
                 engine, schedule, pool_count, pool_share_percent);
}

void write_device_features(FeatureRow& out, double size_mb, int threads,
                           parallel::DeviceAffinity affinity, automata::EngineKind engine,
                           parallel::SchedulePolicy schedule, int pool_count,
                           double pool_share_percent) {
  write_features(out, "device_features", size_mb, threads, static_cast<std::size_t>(affinity),
                 engine, schedule, pool_count, pool_share_percent);
}

std::vector<double> host_features(double size_mb, int threads,
                                  parallel::HostAffinity affinity,
                                  automata::EngineKind engine,
                                  parallel::SchedulePolicy schedule, int pool_count,
                                  double pool_share_percent) {
  FeatureRow row;
  write_host_features(row, size_mb, threads, affinity, engine, schedule, pool_count,
                      pool_share_percent);
  return {row.begin(), row.end()};
}

std::vector<double> device_features(double size_mb, int threads,
                                    parallel::DeviceAffinity affinity,
                                    automata::EngineKind engine,
                                    parallel::SchedulePolicy schedule, int pool_count,
                                    double pool_share_percent) {
  FeatureRow row;
  write_device_features(row, size_mb, threads, affinity, engine, schedule, pool_count,
                        pool_share_percent);
  return {row.begin(), row.end()};
}

}  // namespace hetopt::core
