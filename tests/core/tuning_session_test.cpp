#include "core/tuning_session.hpp"

#include <gtest/gtest.h>

#include "core/strategy_registry.hpp"
#include "core/training.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/multi.hpp"

namespace hetopt::core {
namespace {

class SessionFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    machine_ = new sim::Machine(sim::emil_machine());
    node_ = new sim::MultiDeviceMachine(sim::emil_with_phis(2));
    const dna::GenomeCatalog catalog;
    const TrainingData data =
        generate_training_data(*machine_, catalog, TrainingSweepOptions::tiny());
    predictor_ = new PerformancePredictor();
    predictor_->train(data.host, data.device);
  }
  static void TearDownTestSuite() {
    delete predictor_;
    delete node_;
    delete machine_;
    predictor_ = nullptr;
    node_ = nullptr;
    machine_ = nullptr;
  }

  static sim::Machine* machine_;
  static sim::MultiDeviceMachine* node_;
  static PerformancePredictor* predictor_;
  Workload human_{"human", 3170.0};
};

sim::Machine* SessionFixture::machine_ = nullptr;
sim::MultiDeviceMachine* SessionFixture::node_ = nullptr;
PerformancePredictor* SessionFixture::predictor_ = nullptr;

void expect_method_results_identical(const MethodResult& a, const MethodResult& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.config, b.config);
  // Bit-identical, not just approximately equal: the presets must reproduce
  // the legacy implementations exactly at a fixed seed.
  EXPECT_EQ(a.measured_time, b.measured_time);
  EXPECT_EQ(a.search_energy, b.search_energy);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST_F(SessionFixture, EveryStrategyEvaluatorCombinationReturnsAConfigInsideTheSpace) {
  const opt::ConfigSpace space = opt::ConfigSpace::tiny();
  const std::vector<std::string> strategies = StrategyRegistry::instance().names();
  ASSERT_GE(strategies.size(), 4u);

  const auto evaluators = [&]() {
    std::vector<std::shared_ptr<Evaluator>> out;
    out.push_back(std::make_shared<MeasurementEvaluator>(*machine_));
    out.push_back(std::make_shared<PredictionEvaluator>(*predictor_, *machine_));
    out.push_back(std::make_shared<MultiDeviceMeasurementEvaluator>(*node_));
    return out;
  }();

  for (const std::string& strategy : strategies) {
    for (const auto& evaluator : evaluators) {
      TuningSession session(space);
      session.with_strategy(strategy).with_evaluator(evaluator).with_budget(64).with_seed(3);
      const SessionReport r = session.run(human_);
      EXPECT_TRUE(space.contains(r.config))
          << strategy << " x " << r.evaluator << " left the space";
      EXPECT_GT(r.measured_time, 0.0) << strategy << " x " << r.evaluator;
      EXPECT_GT(r.evaluations, 0u) << strategy << " x " << r.evaluator;
      EXPECT_EQ(r.strategy, strategy);
    }
  }
}

TEST_F(SessionFixture, EmPresetBitIdenticalToRunEm) {
  const opt::ConfigSpace space = opt::ConfigSpace::tiny();
  TuningSession session = TuningSession::preset(Method::kEM, *machine_, space);
  const MethodResult preset = to_method_result(session.run(human_), Method::kEM);
  expect_method_results_identical(preset, run_em(space, *machine_, human_));
  EXPECT_EQ(preset.evaluations, space.size());
}

TEST_F(SessionFixture, EmlPresetBitIdenticalToRunEml) {
  const opt::ConfigSpace space = opt::ConfigSpace::tiny();
  TuningSession session = TuningSession::preset(Method::kEML, *machine_, space, predictor_);
  const MethodResult preset = to_method_result(session.run(human_), Method::kEML);
  expect_method_results_identical(preset, run_eml(space, *machine_, human_, *predictor_));
}

TEST_F(SessionFixture, SamPresetBitIdenticalToRunSam) {
  const opt::ConfigSpace space = opt::ConfigSpace::paper();
  const std::uint64_t seed = 77;
  TuningSession session =
      TuningSession::preset(Method::kSAM, *machine_, space, nullptr, 300, seed);
  const MethodResult preset = to_method_result(session.run(human_), Method::kSAM);
  expect_method_results_identical(
      preset, run_sam(space, *machine_, human_, sa_params_for_iterations(300, seed)));
  EXPECT_EQ(preset.evaluations, 301u);
}

TEST_F(SessionFixture, SamlPresetBitIdenticalToRunSaml) {
  const opt::ConfigSpace space = opt::ConfigSpace::paper();
  const std::uint64_t seed = 78;
  TuningSession session =
      TuningSession::preset(Method::kSAML, *machine_, space, predictor_, 300, seed);
  const MethodResult preset = to_method_result(session.run(human_), Method::kSAML);
  expect_method_results_identical(
      preset,
      run_saml(space, *machine_, human_, *predictor_, sa_params_for_iterations(300, seed)));
}

TEST_F(SessionFixture, ThreadPoolBatchingChangesNothing) {
  const opt::ConfigSpace space = opt::ConfigSpace::tiny();
  TuningSession serial = TuningSession::preset(Method::kEM, *machine_, space);
  TuningSession pooled = TuningSession::preset(Method::kEM, *machine_, space);
  pooled.with_thread_pool(std::make_shared<parallel::ThreadPool>(2));
  const SessionReport a = serial.run(human_);
  const SessionReport b = pooled.run(human_);
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.measured_time, b.measured_time);
  EXPECT_EQ(a.search_energy, b.search_energy);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST_F(SessionFixture, GeneticAndRandomTuneTheMultiDeviceNodeEndToEnd) {
  // The acceptance scenario: strategies the old Method enum could not reach,
  // tuning a 1-host + K-device platform through the same session API.
  const opt::ConfigSpace space = opt::ConfigSpace::paper();
  const auto evaluator = std::make_shared<MultiDeviceMeasurementEvaluator>(*node_);
  for (const char* strategy : {"genetic", "random"}) {
    TuningSession session(space);
    session.with_strategy(strategy).with_evaluator(evaluator).with_budget(200).with_seed(21);
    const SessionReport r = session.run(human_);
    EXPECT_TRUE(space.contains(r.config)) << strategy;
    EXPECT_LE(r.evaluations, 200u) << strategy;
    // Sharing beats sensible single-sided baselines on a big workload.
    opt::SystemConfig host_only = r.config;
    host_only.host_percent = 100.0;
    host_only.host_threads = space.host_threads().back();
    EXPECT_LT(r.measured_time, evaluator->score(host_only, human_)) << strategy;
  }
}

TEST_F(SessionFixture, RunWithoutStrategyOrEvaluatorThrows) {
  TuningSession no_strategy(opt::ConfigSpace::tiny());
  no_strategy.with_evaluator(std::make_shared<MeasurementEvaluator>(*machine_));
  EXPECT_THROW((void)no_strategy.run(human_), std::logic_error);

  TuningSession no_evaluator(opt::ConfigSpace::tiny());
  no_evaluator.with_strategy("random");
  EXPECT_THROW((void)no_evaluator.run(human_), std::logic_error);
}

TEST_F(SessionFixture, MlPresetsWithoutPredictorThrow) {
  EXPECT_THROW((void)TuningSession::preset(Method::kEML, *machine_, opt::ConfigSpace::tiny()),
               std::logic_error);
  EXPECT_THROW((void)TuningSession::preset(Method::kSAML, *machine_, opt::ConfigSpace::tiny()),
               std::logic_error);
}

TEST(StrategyRegistryTest, KnowsTheBuiltInsAndRejectsUnknownNames) {
  const StrategyRegistry& registry = StrategyRegistry::instance();
  for (const char* name : {"exhaustive", "random", "annealing", "genetic"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_EQ(registry.create(name)->name(), name);
  }
  EXPECT_THROW((void)registry.create("gradient-descent"), std::invalid_argument);
}

TEST(StrategyRegistryTest, CustomRegistrationsAreCreatable) {
  StrategyRegistry registry;  // isolated instance, not the process-wide one
  registry.add("exhaustive-small-batch", [] { return std::make_shared<opt::ExhaustiveSearch>(8); });
  EXPECT_TRUE(registry.contains("exhaustive-small-batch"));
  EXPECT_EQ(registry.create("exhaustive-small-batch")->name(), "exhaustive");
  EXPECT_THROW(registry.add("", [] { return std::make_shared<opt::RandomSearch>(); }),
               std::invalid_argument);
}

}  // namespace
}  // namespace hetopt::core
