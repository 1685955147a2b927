#include "core/evaluator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/features.hpp"
#include "core/training.hpp"
#include "parallel/thread_pool.hpp"

namespace hetopt::core {
namespace {

Workload human() { return Workload("human", 3170.0); }

TEST(MeasurementEvaluatorTest, MatchesMachineAndCounts) {
  const sim::Machine machine = sim::emil_machine();
  const opt::ConfigSpace space = opt::ConfigSpace::paper();
  MeasurementEvaluator evaluator(machine);
  const opt::SystemConfig c = space.at(1234);

  const double direct = machine.measure_combined(human().size_mb, c.host_percent,
                                                 c.host_threads, c.host_affinity,
                                                 c.device_threads, c.device_affinity);
  EXPECT_DOUBLE_EQ(evaluator.evaluate(c, human()), direct);
  EXPECT_EQ(evaluator.evaluations(), 1u);

  // Scoring re-reads the same repetition-0 experiment and is not counted.
  EXPECT_DOUBLE_EQ(evaluator.score(c, human()), direct);
  EXPECT_EQ(evaluator.evaluations(), 1u);

  evaluator.reset_evaluations();
  EXPECT_EQ(evaluator.evaluations(), 0u);
}

TEST(MeasurementEvaluatorTest, BatchMatchesSerialWithAndWithoutPool) {
  const sim::Machine machine = sim::emil_machine();
  const opt::ConfigSpace space = opt::ConfigSpace::paper();
  std::vector<opt::SystemConfig> configs;
  for (std::size_t i = 0; i < 64; ++i) configs.push_back(space.at(i * 17));

  MeasurementEvaluator serial(machine);
  std::vector<double> expected;
  expected.reserve(configs.size());
  for (const auto& c : configs) expected.push_back(serial.evaluate(c, human()));

  MeasurementEvaluator inline_batch(machine);
  EXPECT_EQ(inline_batch.evaluate_batch(configs, human()), expected);
  EXPECT_EQ(inline_batch.evaluations(), configs.size());

  parallel::ThreadPool pool(2);
  MeasurementEvaluator pooled(machine);
  EXPECT_EQ(pooled.evaluate_batch(configs, human(), &pool), expected);
  EXPECT_EQ(pooled.evaluations(), configs.size());
}

TEST(PredictionEvaluatorTest, RequiresTrainedPredictor) {
  const sim::Machine machine = sim::emil_machine();
  const PerformancePredictor untrained;
  EXPECT_THROW(PredictionEvaluator(untrained, machine), std::logic_error);
}

TEST(PredictionEvaluatorTest, SearchesOnPredictionsButScoresByMeasurement) {
  const sim::Machine machine = sim::emil_machine();
  const dna::GenomeCatalog catalog;
  const TrainingData data =
      generate_training_data(machine, catalog, TrainingSweepOptions::tiny());
  PerformancePredictor predictor;
  predictor.train(data.host, data.device);

  PredictionEvaluator evaluator(predictor, machine);
  const opt::SystemConfig c = opt::ConfigSpace::paper().at(4321);

  EXPECT_DOUBLE_EQ(evaluator.evaluate(c, human()),
                   predictor.predict_combined(c, human().size_mb));
  const double measured = machine.measure_combined(human().size_mb, c.host_percent,
                                                   c.host_threads, c.host_affinity,
                                                   c.device_threads, c.device_affinity);
  EXPECT_DOUBLE_EQ(evaluator.score(c, human()), measured);
  // Prediction and measurement agree only approximately.
  EXPECT_NE(evaluator.evaluate(c, human()), evaluator.score(c, human()));
}

// One predictor for the batch parity tests. Its sweep varies the schedule
// and pool-count columns too (the paper sweeps hold them constant, and a
// constant column normalizes to 0), so a batch that keyed rows without one
// of them would return different times. 50 rounds keep the single-call
// reference cheap.
class PredictionBatchFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const sim::Machine machine = sim::emil_machine();
    ml::Dataset host(host_feature_names());
    ml::Dataset device(device_feature_names());
    for (const double mb : {100.0, 800.0, 3170.0}) {
      for (const parallel::SchedulePolicy schedule : parallel::kAllSchedulePolicies) {
        const double slowdown = 1.0 + 0.2 * static_cast<double>(schedule);
        for (const int devices : {1, 2, 4}) {
          for (const int threads : {4, 24}) {
            for (const parallel::HostAffinity a : parallel::kAllHostAffinities) {
              host.add(host_features(mb, threads, a, automata::EngineKind::kCompiledDfa,
                                     schedule, devices + 1, 100.0),
                       slowdown * (1.0 + 0.1 * devices) * machine.host_time_model(mb, threads, a));
            }
          }
          for (const int threads : {30, 120}) {
            for (const parallel::DeviceAffinity a : parallel::kAllDeviceAffinities) {
              device.add(device_features(mb / devices, threads, a,
                                         automata::EngineKind::kCompiledDfa, schedule,
                                         devices + 1, 100.0 / devices),
                         slowdown * machine.device_time_model(mb / devices, threads, a));
            }
          }
        }
      }
    }
    PredictorOptions options = PredictorOptions::defaults();
    options.host_params.rounds = 50;
    options.device_params.rounds = 50;
    predictor_ = new PerformancePredictor(options);
    predictor_->train(host, device);
  }
  static void TearDownTestSuite() {
    delete predictor_;
    predictor_ = nullptr;
  }

  // evaluate_batch must return exactly what evaluate() returns, config by
  // config, inline and on a 2-thread pool, and count one evaluation each.
  static void expect_batch_matches_single(const std::vector<opt::SystemConfig>& configs) {
    const sim::Machine machine = sim::emil_machine();
    PredictionEvaluator serial(*predictor_, machine);
    std::vector<double> expected;
    expected.reserve(configs.size());
    for (const auto& c : configs) expected.push_back(serial.evaluate(c, human()));

    PredictionEvaluator inline_batch(*predictor_, machine);
    EXPECT_EQ(inline_batch.evaluate_batch(configs, human()), expected);
    EXPECT_EQ(inline_batch.evaluations(), configs.size());

    parallel::ThreadPool pool(2);
    PredictionEvaluator pooled(*predictor_, machine);
    EXPECT_EQ(pooled.evaluate_batch(configs, human(), &pool), expected);
    EXPECT_EQ(pooled.evaluations(), configs.size());
  }

  static PerformancePredictor* predictor_;
};

PerformancePredictor* PredictionBatchFixture::predictor_ = nullptr;

TEST_F(PredictionBatchFixture, BatchMatchesSingleOverThePaperSpace) {
  // One batch of all 19,926 configurations: 720 distinct host rows and 1,080
  // device rows, and both zero-byte fractions (0 and 100).
  const opt::ConfigSpace space = opt::ConfigSpace::paper();
  std::vector<opt::SystemConfig> configs;
  configs.reserve(space.size());
  for (std::size_t i = 0; i < space.size(); ++i) configs.push_back(space.at(i));
  expect_batch_matches_single(configs);
}

TEST_F(PredictionBatchFixture, BatchMatchesSingleAcrossSchedulesAndFleets) {
  // Shared-queue rows price the whole input on both sides and combine rates;
  // fleet rows carry pool_count and a 1/K device share.
  const opt::ConfigSpace space =
      opt::ConfigSpace::paper()
          .with_schedules({parallel::SchedulePolicy::kStatic, parallel::SchedulePolicy::kDynamic,
                           parallel::SchedulePolicy::kGuided,
                           parallel::SchedulePolicy::kAdaptive})
          .with_device_counts({1, 2, 4});
  std::vector<opt::SystemConfig> configs;
  for (std::size_t i = 0; i < space.size(); i += 61) configs.push_back(space.at(i));
  for (const parallel::SchedulePolicy schedule : parallel::kAllSchedulePolicies) {
    for (const int devices : {1, 2, 4}) {
      EXPECT_TRUE(std::any_of(configs.begin(), configs.end(), [&](const opt::SystemConfig& c) {
        return c.schedule == schedule && c.device_count == devices;
      }));
    }
  }
  expect_batch_matches_single(configs);
}

TEST_F(PredictionBatchFixture, BatchWithOneInvalidConfigThrowsLikeTheSingleCall) {
  const sim::Machine machine = sim::emil_machine();
  const opt::ConfigSpace space = opt::ConfigSpace::tiny();
  opt::SystemConfig impossible_split = space.at(3);
  impossible_split.host_percent = 150.0;
  opt::SystemConfig no_threads = space.at(3);
  no_threads.device_threads = 0;
  opt::SystemConfig no_devices = space.at(3);
  no_devices.device_count = 0;
  for (const opt::SystemConfig& bad : {impossible_split, no_threads, no_devices}) {
    PredictionEvaluator evaluator(*predictor_, machine);
    EXPECT_THROW((void)evaluator.evaluate(bad, human()), std::invalid_argument);
    std::vector<opt::SystemConfig> batch;
    for (std::size_t i = 0; i < space.size(); ++i) batch.push_back(space.at(i));
    batch[batch.size() / 2] = bad;
    EXPECT_THROW((void)evaluator.evaluate_batch(batch, human()), std::invalid_argument);
    EXPECT_EQ(evaluator.evaluations(), 0u);
  }
}

TEST(MultiDeviceEvaluatorTest, SharesSumTo100AndRespectHostFraction) {
  const sim::MultiDeviceMachine node = sim::emil_with_phis(3);
  MultiDeviceMeasurementEvaluator evaluator(node);

  opt::SystemConfig c;
  c.host_threads = 48;
  c.host_affinity = parallel::HostAffinity::kScatter;
  c.device_threads = 240;
  c.device_affinity = parallel::DeviceAffinity::kBalanced;
  for (double hp : {0.0, 12.5, 40.0, 77.5}) {
    c.host_percent = hp;
    const sim::ShareVector shares = evaluator.shares(c, human());
    EXPECT_NEAR(shares.total_percent(), 100.0, 1e-6) << "host_percent=" << hp;
    EXPECT_NEAR(shares.host_percent, hp, 1e-9) << "host_percent=" << hp;
    EXPECT_GT(shares.makespan_s, 0.0);
    EXPECT_DOUBLE_EQ(evaluator.evaluate(c, human()), shares.makespan_s);
  }
}

TEST(MultiDeviceEvaluatorTest, WaterFillingEqualizesIdenticalDevices) {
  const sim::MultiDeviceMachine node = sim::emil_with_phis(4);
  MultiDeviceMeasurementEvaluator evaluator(node);
  opt::SystemConfig c;
  c.host_threads = 48;
  c.host_affinity = parallel::HostAffinity::kScatter;
  c.device_threads = 240;
  c.device_affinity = parallel::DeviceAffinity::kBalanced;
  c.host_percent = 20.0;
  const sim::ShareVector shares = evaluator.shares(c, human());
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_NEAR(shares.device_percent[i], shares.device_percent[0], 0.1);
  }
}

TEST(MultiDeviceEvaluatorTest, ZeroDevicesFallsBackToHostOnly) {
  const sim::MachineSpec spec = sim::emil_spec();
  const sim::MultiDeviceMachine node(spec.host, {});
  MultiDeviceMeasurementEvaluator evaluator(node);

  opt::SystemConfig c;
  c.host_threads = 48;
  c.host_affinity = parallel::HostAffinity::kScatter;
  c.host_percent = 30.0;  // devices cannot take the other 70% — host takes all
  const sim::ShareVector shares = evaluator.shares(c, human());
  EXPECT_DOUBLE_EQ(shares.host_percent, 100.0);
  EXPECT_TRUE(shares.device_percent.empty());
  EXPECT_DOUBLE_EQ(shares.makespan_s,
                   node.host_time(human().size_mb, c.host_threads, c.host_affinity));
  EXPECT_GT(evaluator.score(c, human()), 0.0);
}

TEST(MultiDeviceEvaluatorTest, HostOnlyFractionGivesDevicesNothing) {
  const sim::MultiDeviceMachine node = sim::emil_with_phis(2);
  MultiDeviceMeasurementEvaluator evaluator(node);
  opt::SystemConfig c;
  c.host_threads = 48;
  c.host_affinity = parallel::HostAffinity::kScatter;
  c.host_percent = 100.0;
  const sim::ShareVector shares = evaluator.shares(c, human());
  EXPECT_DOUBLE_EQ(shares.host_percent, 100.0);
  for (double d : shares.device_percent) EXPECT_DOUBLE_EQ(d, 0.0);
}

TEST(MultiDeviceEvaluatorTest, DeviceTimeOverrideMatchesDistributeModel) {
  // The overridden-threading device_time overload is the model distribute()
  // prices candidates with: participating devices finish no later than the
  // makespan.
  const sim::MultiDeviceMachine node = sim::emil_with_phis(3);
  MultiDeviceMeasurementEvaluator evaluator(node);
  opt::SystemConfig c;
  c.host_threads = 48;
  c.host_affinity = parallel::HostAffinity::kScatter;
  c.device_threads = 120;  // below the contexts' 240 — the override matters
  c.device_affinity = parallel::DeviceAffinity::kScatter;
  c.host_percent = 25.0;
  const sim::ShareVector shares = evaluator.shares(c, human());
  for (std::size_t i = 0; i < node.device_count(); ++i) {
    const double t = node.device_time(i, human().size_mb * shares.device_percent[i] / 100.0,
                                      c.device_threads, c.device_affinity);
    EXPECT_LE(t, shares.makespan_s * (1.0 + 1e-9)) << "device " << i;
    EXPECT_GT(t, 0.0) << "device " << i;
  }
}

TEST(MultiDeviceEvaluatorTest, SingleDeviceMakespanMatchesNoiselessModel) {
  // With one device and the context's own threading, distribute() must agree
  // with the single-device noiseless surface at the same split.
  const sim::MultiDeviceMachine node = sim::emil_with_phis(1);
  const sim::Machine machine = sim::emil_machine();
  MultiDeviceMeasurementEvaluator evaluator(node);

  opt::SystemConfig c;
  c.host_threads = 48;
  c.host_affinity = parallel::HostAffinity::kScatter;
  c.device_threads = 240;
  c.device_affinity = parallel::DeviceAffinity::kBalanced;
  c.host_percent = 70.0;
  const double model = machine.combined_time_model(human().size_mb, c.host_percent,
                                                   c.host_threads, c.host_affinity,
                                                   c.device_threads, c.device_affinity);
  EXPECT_NEAR(evaluator.evaluate(c, human()), model, model * 1e-9);
}

}  // namespace
}  // namespace hetopt::core
