#include "core/predictor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <vector>

#include "core/training.hpp"
#include "ml/metrics.hpp"

namespace hetopt::core {
namespace {

class PredictorFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    machine_ = new sim::Machine(sim::emil_machine());
    catalog_ = new dna::GenomeCatalog();
    data_ = new TrainingData(
        generate_training_data(*machine_, *catalog_, TrainingSweepOptions::paper()));
    predictor_ = new PerformancePredictor();
    predictor_->train(data_->host, data_->device);
  }
  static void TearDownTestSuite() {
    delete predictor_;
    delete data_;
    delete catalog_;
    delete machine_;
    predictor_ = nullptr;
    data_ = nullptr;
    catalog_ = nullptr;
    machine_ = nullptr;
  }

  static sim::Machine* machine_;
  static dna::GenomeCatalog* catalog_;
  static TrainingData* data_;
  static PerformancePredictor* predictor_;
};

sim::Machine* PredictorFixture::machine_ = nullptr;
dna::GenomeCatalog* PredictorFixture::catalog_ = nullptr;
TrainingData* PredictorFixture::data_ = nullptr;
PerformancePredictor* PredictorFixture::predictor_ = nullptr;

TEST_F(PredictorFixture, HostPredictionsTrackModelWithinTenPercent) {
  // Probe unseen sizes (not on the training fraction grid).
  double pct_sum = 0.0;
  int n = 0;
  for (double mb : {333.0, 1001.0, 1777.0, 2999.0}) {
    for (int threads : {6, 24, 48}) {
      const double truth =
          machine_->host_time_model(mb, threads, parallel::HostAffinity::kScatter);
      const double pred =
          predictor_->predict_host(mb, threads, parallel::HostAffinity::kScatter);
      pct_sum += ml::percent_error(truth, pred);
      ++n;
    }
  }
  EXPECT_LT(pct_sum / n, 10.0);
}

TEST_F(PredictorFixture, DevicePredictionsTrackModelWithinTenPercent) {
  double pct_sum = 0.0;
  int n = 0;
  for (double mb : {333.0, 1001.0, 1777.0, 2999.0}) {
    for (int threads : {30, 120, 240}) {
      const double truth =
          machine_->device_time_model(mb, threads, parallel::DeviceAffinity::kBalanced);
      const double pred =
          predictor_->predict_device(mb, threads, parallel::DeviceAffinity::kBalanced);
      pct_sum += ml::percent_error(truth, pred);
      ++n;
    }
  }
  EXPECT_LT(pct_sum / n, 10.0);
}

TEST_F(PredictorFixture, CombinedIsMaxOfSides) {
  opt::SystemConfig c;
  c.host_threads = 24;
  c.host_affinity = parallel::HostAffinity::kScatter;
  c.device_threads = 120;
  c.device_affinity = parallel::DeviceAffinity::kBalanced;
  c.host_percent = 60.0;
  const double combined = predictor_->predict_combined(c, 2000.0);
  const double host = predictor_->predict_host(1200.0, 24, parallel::HostAffinity::kScatter);
  const double device =
      predictor_->predict_device(800.0, 120, parallel::DeviceAffinity::kBalanced);
  EXPECT_DOUBLE_EQ(combined, std::max(host, device));
}

TEST_F(PredictorFixture, SharedScheduleCombinesRatesAndIgnoresFraction) {
  // Shared-queue schedules drain the combined input with both pools: the
  // combined estimate is the harmonic sum of the whole-input side times and
  // must not depend on the configured fraction (which the runtime ignores).
  opt::SystemConfig c;
  c.host_threads = 24;
  c.host_affinity = parallel::HostAffinity::kScatter;
  c.device_threads = 120;
  c.device_affinity = parallel::DeviceAffinity::kBalanced;
  c.host_percent = 60.0;
  c.schedule = parallel::SchedulePolicy::kDynamic;
  const double combined = predictor_->predict_combined(c, 2000.0);
  const double host = predictor_->predict_host(2000.0, 24, parallel::HostAffinity::kScatter,
                                               c.engine, c.schedule);
  const double device = predictor_->predict_device(
      2000.0, 120, parallel::DeviceAffinity::kBalanced, c.engine, c.schedule);
  EXPECT_DOUBLE_EQ(combined, host * device / (host + device));
  // Both pools working can only help over either side alone.
  EXPECT_LT(combined, std::min(host, device));
  // Fraction-independent: the runtime's realized split emerges at runtime.
  opt::SystemConfig other = c;
  other.host_percent = 0.0;
  EXPECT_DOUBLE_EQ(predictor_->predict_combined(other, 2000.0), combined);
}

TEST_F(PredictorFixture, ZeroByteSidesPredictZero) {
  EXPECT_EQ(predictor_->predict_host(0.0, 24, parallel::HostAffinity::kScatter), 0.0);
  EXPECT_EQ(predictor_->predict_device(0.0, 60, parallel::DeviceAffinity::kBalanced), 0.0);
  opt::SystemConfig c;
  c.host_threads = 48;
  c.host_percent = 100.0;
  c.device_threads = 240;
  const double t = predictor_->predict_combined(c, 1000.0);
  EXPECT_DOUBLE_EQ(
      t, predictor_->predict_host(1000.0, 48, parallel::HostAffinity::kNone));
}

TEST_F(PredictorFixture, PredictionsNonNegativeEverywhere) {
  for (double mb : {1.0, 50.0, 5000.0}) {
    for (int threads : {2, 48}) {
      EXPECT_GE(predictor_->predict_host(mb, threads, parallel::HostAffinity::kCompact), 0.0);
    }
  }
}

TEST(PredictorUsage, ErrorsBeforeTraining) {
  PerformancePredictor p;
  EXPECT_FALSE(p.trained());
  EXPECT_THROW((void)p.predict_host(1.0, 2, parallel::HostAffinity::kNone),
               std::logic_error);
  EXPECT_THROW(p.train(ml::Dataset({"x"}), ml::Dataset({"x"})), std::invalid_argument);
}

TEST(PredictorUsage, RejectsWrongFeatureLayout) {
  PerformancePredictor p;
  ml::Dataset bad({"a", "b"});
  bad.add(std::vector<double>{1.0, 2.0}, 1.0);
  EXPECT_THROW(p.train(bad, bad), std::invalid_argument);
}

TEST(PredictorUsage, SaveLoadRoundTripPredictsIdentically) {
  const sim::Machine machine = sim::emil_machine();
  const dna::GenomeCatalog catalog;
  const TrainingData data =
      generate_training_data(machine, catalog, TrainingSweepOptions::tiny());
  PerformancePredictor original;
  original.train(data.host, data.device);

  std::stringstream ss;
  original.save(ss);
  const PerformancePredictor loaded = PerformancePredictor::load(ss);
  EXPECT_TRUE(loaded.trained());
  for (double mb : {100.0, 999.0, 3170.0}) {
    for (int threads : {2, 24, 48}) {
      EXPECT_DOUBLE_EQ(
          loaded.predict_host(mb, threads, parallel::HostAffinity::kScatter),
          original.predict_host(mb, threads, parallel::HostAffinity::kScatter));
    }
    EXPECT_DOUBLE_EQ(
        loaded.predict_device(mb, 120, parallel::DeviceAffinity::kBalanced),
        original.predict_device(mb, 120, parallel::DeviceAffinity::kBalanced));
  }
}

TEST(PredictorUsage, SaveLoadErrors) {
  PerformancePredictor untrained;
  std::stringstream ss;
  EXPECT_THROW(untrained.save(ss), std::runtime_error);
  std::stringstream bad("not-a-predictor 1 1");
  EXPECT_THROW((void)PerformancePredictor::load(bad), std::runtime_error);
  // A pre-schedule-axis v1 file must fail cleanly at load time (not with a
  // row-size mismatch at predict time).
  std::stringstream v1("hetopt-predictor-v1 1 1");
  EXPECT_THROW((void)PerformancePredictor::load(v1), std::runtime_error);
  // A v2 file whose recorded width disagrees with this build's layout too.
  std::stringstream narrow("hetopt-predictor-v2 8 1 1");
  EXPECT_THROW((void)PerformancePredictor::load(narrow), std::runtime_error);
  // A v3 file uses the pre-SIMD three-way engine one-hot; rejected at load
  // time with the retrain message.
  std::stringstream v3("hetopt-predictor-v3 14 1 1");
  EXPECT_THROW((void)PerformancePredictor::load(v3), std::runtime_error);
  // A v4 header with a stale feature width (the pre-SIMD 14 columns) is
  // rejected with the retrain message, not a predict-time row mismatch.
  std::stringstream stale("hetopt-predictor-v4 14 1 1");
  EXPECT_THROW((void)PerformancePredictor::load(stale), std::runtime_error);
}

TEST(PredictorUsage, FleetDefaultsReproducePairPredictions) {
  // The fleet columns are constant at their defaults (pool_count 2, share
  // 100), and the normalizer maps constant columns to zero: predictions
  // through the new signature must be bit-identical to the short calls, and
  // predict_combined at device_count = 1 is the classic Eq. 2.
  const sim::Machine machine = sim::emil_machine();
  const dna::GenomeCatalog catalog;
  const TrainingData data =
      generate_training_data(machine, catalog, TrainingSweepOptions::tiny());
  PerformancePredictor p;
  p.train(data.host, data.device);
  for (double mb : {100.0, 3170.0}) {
    EXPECT_DOUBLE_EQ(
        p.predict_host(mb, 12, parallel::HostAffinity::kScatter),
        p.predict_host(mb, 12, parallel::HostAffinity::kScatter,
                       automata::EngineKind::kCompiledDfa,
                       parallel::SchedulePolicy::kStatic, 2, 100.0));
    EXPECT_DOUBLE_EQ(
        p.predict_device(mb, 120, parallel::DeviceAffinity::kBalanced),
        p.predict_device(mb, 120, parallel::DeviceAffinity::kBalanced,
                         automata::EngineKind::kCompiledDfa,
                         parallel::SchedulePolicy::kStatic, 2, 100.0));
  }
  opt::SystemConfig c;
  c.host_threads = 12;
  c.device_threads = 120;
  c.host_percent = 40.0;
  ASSERT_EQ(c.device_count, 1);
  const double pair = p.predict_combined(c, 1000.0);
  const double host_t = p.predict_host(400.0, 12, c.host_affinity);
  const double device_t = p.predict_device(600.0, 120, c.device_affinity);
  EXPECT_DOUBLE_EQ(pair, std::max(host_t, device_t));
}

TEST(PredictorUsage, CombinedHandlesDeviceFleets) {
  const sim::Machine machine = sim::emil_machine();
  const dna::GenomeCatalog catalog;
  const TrainingData data =
      generate_training_data(machine, catalog, TrainingSweepOptions::tiny());
  PerformancePredictor p;
  p.train(data.host, data.device);
  opt::SystemConfig c;
  c.host_threads = 12;
  c.device_threads = 120;
  c.host_percent = 40.0;
  c.device_count = 0;
  EXPECT_THROW((void)p.predict_combined(c, 1000.0), std::invalid_argument);
  // Static fleets: each of K identical devices prices a 1/K slice of the
  // device side, so the device term can only shrink as K grows.
  c.device_count = 1;
  const double one = p.predict_combined(c, 1000.0);
  c.device_count = 4;
  const double four = p.predict_combined(c, 1000.0);
  EXPECT_GT(one, 0.0);
  EXPECT_GT(four, 0.0);
  const double host_t = p.predict_host(400.0, 12, c.host_affinity,
                                       automata::EngineKind::kCompiledDfa,
                                       parallel::SchedulePolicy::kStatic, 5, 100.0);
  EXPECT_GE(four, host_t);  // the host side is a floor on the fleet makespan
}

TEST(PredictorUsage, CombinedRejectsImpossibleSplitsAndNaNSizes) {
  const sim::Machine machine = sim::emil_machine();
  const dna::GenomeCatalog catalog;
  const TrainingData data =
      generate_training_data(machine, catalog, TrainingSweepOptions::tiny());
  PerformancePredictor p;
  p.train(data.host, data.device);
  const double nan = std::numeric_limits<double>::quiet_NaN();

  // A fraction outside [0, 100] is no split at all; the simulator's
  // measure_combined rejects it too. Both forms throw, for every schedule.
  opt::SystemConfig c;
  c.host_threads = 12;
  c.device_threads = 120;
  for (const parallel::SchedulePolicy schedule :
       {parallel::SchedulePolicy::kStatic, parallel::SchedulePolicy::kDynamic}) {
    c.schedule = schedule;
    for (const double host_percent : {150.0, -20.0, nan}) {
      c.host_percent = host_percent;
      EXPECT_THROW((void)p.predict_combined(c, 1000.0), std::invalid_argument) << host_percent;
      EXPECT_THROW((void)p.predict_combined(std::vector<opt::SystemConfig>{c}, 1000.0),
                   std::invalid_argument)
          << host_percent;
    }
  }
  EXPECT_THROW((void)p.predict_combined(opt::SystemConfig{}, nan), std::invalid_argument);
  EXPECT_THROW((void)p.predict_host(nan, 12, parallel::HostAffinity::kScatter),
               std::invalid_argument);
  EXPECT_THROW((void)p.predict_device(nan, 120, parallel::DeviceAffinity::kBalanced),
               std::invalid_argument);

  // A size <= 0 still predicts 0: at host_percent 100 the device side,
  // total - total * 100 / 100, lands one ulp below zero for some totals.
  c.schedule = parallel::SchedulePolicy::kStatic;
  c.host_percent = 100.0;
  int below_zero = 0;
  for (int k = 1; k <= 200; ++k) {
    const double total = 0.37 * k;
    if (total - total * 100.0 / 100.0 >= 0.0) continue;
    ++below_zero;
    EXPECT_EQ(p.predict_combined(c, total),
              p.predict_host(total * 100.0 / 100.0, 12, c.host_affinity))
        << total;
  }
  EXPECT_GT(below_zero, 0);
  EXPECT_EQ(p.predict_device(-1e-12, 120, parallel::DeviceAffinity::kBalanced), 0.0);
}

TEST(PredictorUsage, CombinedRejectsNonPositiveTotal) {
  PerformancePredictor p;
  const sim::Machine machine = sim::emil_machine();
  const dna::GenomeCatalog catalog;
  const TrainingData data =
      generate_training_data(machine, catalog, TrainingSweepOptions::tiny());
  p.train(data.host, data.device);
  EXPECT_THROW((void)p.predict_combined(opt::SystemConfig{}, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace hetopt::core
