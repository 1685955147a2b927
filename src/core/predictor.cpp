#include "core/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <numeric>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "ml/serialize.hpp"
#include "parallel/thread_pool.hpp"

namespace hetopt::core {

namespace {

// A side that scans no bytes predicts 0 without a model walk. Sizes below
// zero fall under the same rule: at host_percent 100, total - total*100/100
// comes out one ulp below zero for about 6% of totals, so throwing on a
// negative size would reject valid configurations. NaN is not <= 0; it
// reaches the feature writer, which throws.
bool scans_nothing(double size_mb) { return size_mb <= 0.0; }

// Each side's raw feature row for a configuration; a side that scans
// nothing has none.
struct SideRows {
  std::optional<FeatureRow> host;
  std::optional<FeatureRow> device;
};

// Eq. 2's share math, shared by both forms of predict_combined.
SideRows side_rows(const opt::SystemConfig& config, double total_mb) {
  if (!(total_mb > 0.0)) {
    throw std::invalid_argument("predict_combined: non-positive or NaN size");
  }
  if (config.device_count < 1) {
    throw std::invalid_argument("predict_combined: device_count < 1");
  }
  if (!(config.host_percent >= 0.0 && config.host_percent <= 100.0)) {
    throw std::invalid_argument("predict_combined: host_percent out of [0,100]");
  }
  // The fleet shape reaches the models as features: K identical devices make
  // pool_count = K + 1 pools, the host keeps its whole side and each device
  // holds 1/K of the device side (the water-filled equal split of
  // sim::MultiDeviceMachine across identical accelerators). The K = 1
  // defaults reproduce the pre-fleet feature rows bit for bit.
  const double devices = static_cast<double>(config.device_count);
  const int pool_count = config.device_count + 1;
  // Shared-queue schedules drain the combined input with every pool
  // regardless of the configured fraction (the runtime ignores it for
  // dynamic/guided and steals its way off it for adaptive), so each
  // environment is priced scanning the whole input; combine() turns the two
  // times into one. Under static, identical devices with equal shares
  // finish together, so the slowest device is any one of them scanning its
  // 1/K slice.
  const bool shared = config.schedule != parallel::SchedulePolicy::kStatic;
  const double host_mb = shared ? total_mb : total_mb * config.host_percent / 100.0;
  const double device_mb = shared ? total_mb : (total_mb - host_mb) / devices;
  SideRows rows;
  if (!scans_nothing(host_mb)) {
    write_host_features(rows.host.emplace(), host_mb, config.host_threads, config.host_affinity,
                        config.engine, config.schedule, pool_count, 100.0);
  }
  if (!scans_nothing(device_mb)) {
    write_device_features(rows.device.emplace(), device_mb, config.device_threads,
                          config.device_affinity, config.engine, config.schedule, pool_count,
                          100.0 / devices);
  }
  return rows;
}

// Eq. 2's combine step over the two sides' times.
double combine(const opt::SystemConfig& config, double t_host, double t_device) {
  if (config.schedule == parallel::SchedulePolicy::kStatic) return std::max(t_host, t_device);
  // Max-of-sides over a fraction split is the wrong shape for a shared
  // queue: combine the implied rates (harmonic sum, with the device rate
  // counted K times) — the prediction-side analogue of the deterministic
  // model's summed-rate drain time.
  if (t_host <= 0.0) return t_device;
  if (t_device <= 0.0) return t_host;
  const double rate = 1.0 / t_host + static_cast<double>(config.device_count) / t_device;
  return 1.0 / rate;
}

constexpr std::size_t kNoRow = std::numeric_limits<std::size_t>::max();

// Replaces `rows` by its distinct rows and re-points each slot (an index
// into `rows`, or kNoRow) at its row's new place. Rows are compared as
// bytes: any fixed order groups equal rows, and equal bytes in give equal
// bits out.
void dedupe(std::vector<FeatureRow>& rows, std::vector<std::size_t>& slots) {
  const auto bytes_less = [&rows](std::size_t a, std::size_t b) {
    return std::memcmp(rows[a].data(), rows[b].data(), sizeof(FeatureRow)) < 0;
  };
  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), bytes_less);
  std::vector<FeatureRow> distinct;
  std::vector<std::size_t> place(rows.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || bytes_less(order[i - 1], order[i])) distinct.push_back(rows[order[i]]);
    place[order[i]] = distinct.size() - 1;
  }
  for (std::size_t& slot : slots) {
    if (slot != kNoRow) slot = place[slot];
  }
  rows = std::move(distinct);
}

}  // namespace

PredictorOptions PredictorOptions::defaults() {
  PredictorOptions o;
  o.host_params.rounds = 300;
  o.host_params.learning_rate = 0.08;
  o.host_params.tree.max_depth = 6;
  o.host_params.tree.min_samples_leaf = 3;
  o.host_params.tree.min_samples_split = 6;
  o.device_params = o.host_params;
  return o;
}

PerformancePredictor::PerformancePredictor(PredictorOptions options)
    : options_(options),
      host_model_(options.host_params),
      device_model_(options.device_params) {}

void PerformancePredictor::train(const ml::Dataset& host_data,
                                 const ml::Dataset& device_data) {
  if (host_data.empty() || device_data.empty()) {
    throw std::invalid_argument("PerformancePredictor::train: empty dataset");
  }
  if (host_data.feature_count() != kFeatureCount ||
      device_data.feature_count() != kFeatureCount) {
    throw std::invalid_argument("PerformancePredictor::train: unexpected feature layout");
  }
  const auto prepare = [this](const ml::Dataset& data,
                              const ml::Normalizer& norm) -> ml::Dataset {
    const ml::Dataset base = options_.normalize ? norm.transform(data) : data;
    if (!options_.log_target) return base;
    ml::Dataset logged(base.feature_names());
    for (std::size_t i = 0; i < base.size(); ++i) {
      const double t = base.target(i);
      if (t <= 0.0) {
        throw std::invalid_argument(
            "PerformancePredictor: log_target requires positive times");
      }
      logged.add(base.row(i), std::log(t));
    }
    return logged;
  };

  if (options_.normalize) {
    host_norm_.fit(host_data);
    device_norm_.fit(device_data);
  }
  host_model_.fit(prepare(host_data, host_norm_));
  device_model_.fit(prepare(device_data, device_norm_));
  trained_ = true;
}

void PerformancePredictor::require_trained() const {
  if (!trained_) throw std::logic_error("PerformancePredictor: predict before train");
}

void PerformancePredictor::predict_rows(Side side, std::span<const FeatureRow> raw,
                                        std::span<double> scaled,
                                        std::span<double> out) const {
  const bool host = side == Side::kHost;
  const ml::Normalizer& norm = host ? host_norm_ : device_norm_;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const std::span<double> row = scaled.subspan(i * kFeatureCount, kFeatureCount);
    if (options_.normalize) {
      norm.transform_row(raw[i], row);
    } else {
      std::copy(raw[i].begin(), raw[i].end(), row.begin());
    }
  }
  (host ? host_model_ : device_model_).predict_rows(scaled, out);
  // Times are positive; in log space exponentiate, otherwise clamp tiny
  // negative ensemble outputs.
  for (double& t : out) t = options_.log_target ? std::exp(t) : std::max(0.0, t);
}

double PerformancePredictor::predict_row(Side side, const FeatureRow& raw) const {
  FeatureRow scaled;
  double t = 0.0;
  predict_rows(side, {&raw, 1}, scaled, {&t, 1});
  return t;
}

double PerformancePredictor::predict_host(double size_mb, int threads,
                                          parallel::HostAffinity affinity,
                                          automata::EngineKind engine,
                                          parallel::SchedulePolicy schedule,
                                          int pool_count,
                                          double pool_share_percent) const {
  require_trained();
  if (scans_nothing(size_mb)) return 0.0;
  FeatureRow raw;
  write_host_features(raw, size_mb, threads, affinity, engine, schedule, pool_count,
                      pool_share_percent);
  return predict_row(Side::kHost, raw);
}

double PerformancePredictor::predict_device(double size_mb, int threads,
                                            parallel::DeviceAffinity affinity,
                                            automata::EngineKind engine,
                                            parallel::SchedulePolicy schedule,
                                            int pool_count,
                                            double pool_share_percent) const {
  require_trained();
  if (scans_nothing(size_mb)) return 0.0;
  FeatureRow raw;
  write_device_features(raw, size_mb, threads, affinity, engine, schedule, pool_count,
                        pool_share_percent);
  return predict_row(Side::kDevice, raw);
}

void PerformancePredictor::save(std::ostream& os) const {
  if (!trained_) throw std::runtime_error("PerformancePredictor::save: not trained");
  // The header records the feature-layout width so a file saved under an
  // older (narrower) layout fails at load time with a clear message instead
  // of throwing a row-size mismatch on every predict. v4 = the SIMD-era
  // layout (five-way engine one-hot: bitap-simd and prefilter-dfa columns).
  os << "hetopt-predictor-v4 " << kFeatureCount << ' ' << (options_.normalize ? 1 : 0)
     << ' ' << (options_.log_target ? 1 : 0) << '\n';
  if (options_.normalize) {
    ml::save(os, host_norm_);
    ml::save(os, device_norm_);
  }
  ml::save(os, host_model_);
  ml::save(os, device_model_);
}

PerformancePredictor PerformancePredictor::load(std::istream& is) {
  std::string magic;
  if (!(is >> magic)) {
    throw std::runtime_error("PerformancePredictor::load: bad header");
  }
  if (magic == "hetopt-predictor-v1") {
    throw std::runtime_error(
        "PerformancePredictor::load: v1 file uses a pre-schedule-axis feature "
        "layout; retrain and re-save the predictor");
  }
  if (magic == "hetopt-predictor-v2") {
    throw std::runtime_error(
        "PerformancePredictor::load: v2 file uses a pre-fleet feature layout "
        "(no pool_count/pool_share_pct columns); retrain and re-save the "
        "predictor");
  }
  if (magic == "hetopt-predictor-v3") {
    throw std::runtime_error(
        "PerformancePredictor::load: v3 file uses the pre-SIMD three-way "
        "engine one-hot (no bitap-simd/prefilter-dfa columns); retrain and "
        "re-save the predictor");
  }
  std::size_t features = 0;
  int normalize = 0;
  int log_target = 0;
  if (!(is >> features >> normalize >> log_target) || magic != "hetopt-predictor-v4") {
    throw std::runtime_error("PerformancePredictor::load: bad header");
  }
  if (features != kFeatureCount) {
    throw std::runtime_error(
        "PerformancePredictor::load: file has " + std::to_string(features) +
        " features, this build expects " + std::to_string(kFeatureCount) +
        "; retrain and re-save the predictor");
  }
  PredictorOptions options = PredictorOptions::defaults();
  options.normalize = normalize != 0;
  options.log_target = log_target != 0;
  PerformancePredictor p(options);
  if (options.normalize) {
    p.host_norm_ = ml::load_normalizer(is);
    p.device_norm_ = ml::load_normalizer(is);
  }
  p.host_model_ = ml::load_boosted_trees(is);
  p.device_model_ = ml::load_boosted_trees(is);
  p.trained_ = true;
  return p;
}

double PerformancePredictor::predict_combined(const opt::SystemConfig& config,
                                              double total_mb) const {
  require_trained();
  const SideRows rows = side_rows(config, total_mb);
  const double t_host = rows.host ? predict_row(Side::kHost, *rows.host) : 0.0;
  const double t_device = rows.device ? predict_row(Side::kDevice, *rows.device) : 0.0;
  return combine(config, t_host, t_device);
}

std::vector<double> PerformancePredictor::predict_combined(
    std::span<const opt::SystemConfig> configs, double total_mb,
    parallel::ThreadPool* pool) const {
  require_trained();
  // Every config's side rows, in config order. A side without a row keeps
  // slot kNoRow and predicts 0.
  std::vector<FeatureRow> host_rows;
  std::vector<FeatureRow> device_rows;
  std::vector<std::size_t> host_slot(configs.size(), kNoRow);
  std::vector<std::size_t> device_slot(configs.size(), kNoRow);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const SideRows rows = side_rows(configs[i], total_mb);
    if (rows.host) {
      host_slot[i] = host_rows.size();
      host_rows.push_back(*rows.host);
    }
    if (rows.device) {
      device_slot[i] = device_rows.size();
      device_rows.push_back(*rows.device);
    }
  }

  // A side's time depends on its raw row alone, so each distinct row is
  // predicted once. The two sides are independent tasks.
  dedupe(host_rows, host_slot);
  dedupe(device_rows, device_slot);
  std::vector<double> host_times(host_rows.size());
  std::vector<double> device_times(device_rows.size());
  const auto predict_side = [&](std::size_t side) {
    const bool host = side == 0;
    const std::vector<FeatureRow>& rows = host ? host_rows : device_rows;
    std::vector<double> scaled(rows.size() * kFeatureCount);
    predict_rows(host ? Side::kHost : Side::kDevice, rows, scaled,
                 host ? host_times : device_times);
  };
  if (pool != nullptr) {
    pool->parallel_for(2, predict_side);
  } else {
    predict_side(0);
    predict_side(1);
  }

  std::vector<double> out(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const double t_host = host_slot[i] == kNoRow ? 0.0 : host_times[host_slot[i]];
    const double t_device = device_slot[i] == kNoRow ? 0.0 : device_times[device_slot[i]];
    out[i] = combine(configs[i], t_host, t_device);
  }
  return out;
}

}  // namespace hetopt::core
