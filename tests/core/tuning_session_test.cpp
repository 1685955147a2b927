#include "core/tuning_session.hpp"

#include <gtest/gtest.h>

#include "core/methods.hpp"
#include "core/training.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/multi.hpp"

namespace hetopt::core {
namespace {

constexpr const char* kStrategyNames[] = {"exhaustive", "random", "annealing", "genetic"};

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

/// A seeded result recorded from the free EM/EML/SAM/SAML and baseline
/// functions before the presets replaced them. Times are hex-float literals,
/// so the comparison is bit for bit.
struct Pinned {
  opt::SystemConfig config;
  double measured_time;
  double search_energy;
  std::size_t evaluations;
};

opt::SystemConfig paper_config(int host_threads, parallel::HostAffinity host_affinity,
                               int device_threads, parallel::DeviceAffinity device_affinity,
                               double host_percent) {
  opt::SystemConfig c;
  c.host_threads = host_threads;
  c.host_affinity = host_affinity;
  c.device_threads = device_threads;
  c.device_affinity = device_affinity;
  c.host_percent = host_percent;
  return c;
}

void expect_pinned(const SessionReport& r, const Pinned& pinned) {
  EXPECT_EQ(r.config, pinned.config) << opt::to_string(r.config);
  EXPECT_EQ(r.measured_time, pinned.measured_time);
  EXPECT_EQ(r.search_energy, pinned.search_energy);
  EXPECT_EQ(r.evaluations, pinned.evaluations);
}

using parallel::DeviceAffinity;
using parallel::HostAffinity;

TEST_F(SessionFixture, EveryStrategyEvaluatorCombinationReturnsAConfigInsideTheSpace) {
  const opt::ConfigSpace space = opt::ConfigSpace::tiny();
  const auto evaluators = [&]() {
    std::vector<std::shared_ptr<Evaluator>> out;
    out.push_back(std::make_shared<MeasurementEvaluator>(*machine_));
    out.push_back(std::make_shared<PredictionEvaluator>(*predictor_, *machine_));
    out.push_back(std::make_shared<MultiDeviceMeasurementEvaluator>(*node_));
    return out;
  }();

  for (const std::string strategy : kStrategyNames) {
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
  const SessionReport r = TuningSession::preset(Method::kEM, *machine_, space).run(human_);
  expect_pinned(r, {paper_config(8, HostAffinity::kScatter, 60, DeviceAffinity::kBalanced, 50.0),
                    0x1.dbffaa6833d32p-1, 0x1.dbffaa6833d32p-1, 80});
  EXPECT_EQ(r.evaluations, space.size());
}

TEST_F(SessionFixture, EmlPresetBitIdenticalToRunEml) {
  const SessionReport r =
      TuningSession::preset(Method::kEML, *machine_, opt::ConfigSpace::tiny(), predictor_)
          .run(human_);
  expect_pinned(r, {paper_config(4, HostAffinity::kScatter, 30, DeviceAffinity::kBalanced, 50.0),
                    0x1.a213ac1c41033p+0, 0x1.ac7d2539598fap+0, 80});
}

TEST_F(SessionFixture, SamPresetBitIdenticalToRunSam) {
  const SessionReport r =
      TuningSession::preset(Method::kSAM, *machine_, opt::ConfigSpace::paper(), nullptr, 300, 77)
          .run(human_);
  expect_pinned(r, {paper_config(48, HostAffinity::kNone, 240, DeviceAffinity::kBalanced, 57.5),
                    0x1.be1be675e1997p-2, 0x1.be1be675e1997p-2, 301});
}

TEST_F(SessionFixture, SamlPresetBitIdenticalToRunSaml) {
  const SessionReport r = TuningSession::preset(Method::kSAML, *machine_,
                                                opt::ConfigSpace::paper(), predictor_, 300, 78)
                              .run(human_);
  expect_pinned(r, {paper_config(48, HostAffinity::kScatter, 240, DeviceAffinity::kBalanced, 60.0),
                    0x1.dcdab79ef469fp-2, 0x1.2adfcc64a3edap-1, 301});
}

TEST_F(SessionFixture, BaselinesBitIdenticalToTheirHandWrittenLoops) {
  const opt::ConfigSpace space = opt::ConfigSpace::paper();
  const SessionReport host = host_only_baseline(space, *machine_, human_);
  expect_pinned(host,
                {paper_config(48, HostAffinity::kScatter, 240, DeviceAffinity::kBalanced, 100.0),
                 0x1.700dd86eb1e2p-1, 0x1.700dd86eb1e2p-1, 3});
  const SessionReport device = device_only_baseline(space, *machine_, human_);
  expect_pinned(device,
                {paper_config(48, HostAffinity::kNone, 240, DeviceAffinity::kCompact, 0.0),
                 0x1.ed9b1ada8a85dp-1, 0x1.ed9b1ada8a85dp-1, 3});
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

TEST_F(SessionFixture, HillClimbingRunsAsAnObjectNotByName) {
  TuningSession session(opt::ConfigSpace::paper());
  session.with_strategy(std::make_shared<opt::HillClimbingSearch>())
      .with_evaluator(std::make_shared<MeasurementEvaluator>(*machine_))
      .with_budget(120)
      .with_seed(5);
  const SessionReport r = session.run(human_);
  EXPECT_EQ(r.strategy, "hill-climbing");
  EXPECT_EQ(r.evaluations, 120u);
  EXPECT_EQ(r.measured_time, r.search_energy);  // measurement scores its own pick
  EXPECT_THROW(session.with_strategy("hill-climbing"), std::invalid_argument);
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

TEST(TuningSessionTest, StrategyNamesResolveToTheBuiltInsAndUnknownNamesThrow) {
  TuningSession session(opt::ConfigSpace::tiny());
  for (const std::string name : kStrategyNames) {
    session.with_strategy(name);
    ASSERT_NE(session.strategy(), nullptr);
    EXPECT_EQ(session.strategy()->name(), name);
  }
  try {
    session.with_strategy("gradient-descent");
    FAIL() << "unknown strategy name accepted";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("gradient-descent"), std::string::npos) << message;
    for (const std::string name : kStrategyNames) {
      EXPECT_NE(message.find(name), std::string::npos) << message;
    }
  }
  EXPECT_EQ(session.strategy()->name(), "genetic");  // a failed lookup changes nothing
}

// --- The Table II presets on the paper space with the full training sweep ---

class PresetFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    machine_ = new sim::Machine(sim::emil_machine());
    space_ = new opt::ConfigSpace(opt::ConfigSpace::paper());
    const dna::GenomeCatalog catalog;
    const TrainingData data =
        generate_training_data(*machine_, catalog, TrainingSweepOptions::paper());
    predictor_ = new PerformancePredictor();
    predictor_->train(data.host, data.device);
  }
  static void TearDownTestSuite() {
    delete predictor_;
    delete space_;
    delete machine_;
    predictor_ = nullptr;
    space_ = nullptr;
    machine_ = nullptr;
  }

  [[nodiscard]] SessionReport run(Method method, std::size_t sa_iterations = 1000,
                                  std::uint64_t seed = 0x7475ULL) const {
    return TuningSession::preset(method, *machine_, *space_, predictor_, sa_iterations, seed)
        .run(human_);
  }

  static sim::Machine* machine_;
  static opt::ConfigSpace* space_;
  static PerformancePredictor* predictor_;
  Workload human_{"human", 3170.0};
};

sim::Machine* PresetFixture::machine_ = nullptr;
opt::ConfigSpace* PresetFixture::space_ = nullptr;
PerformancePredictor* PresetFixture::predictor_ = nullptr;

TEST_F(PresetFixture, EmEvaluatesEntireSpace) {
  const SessionReport em = run(Method::kEM);
  EXPECT_EQ(em.evaluations, 19926u);
  EXPECT_GT(em.measured_time, 0.0);
  EXPECT_EQ(em.strategy, "exhaustive");
  EXPECT_EQ(em.evaluator, "measurement");
}

TEST_F(PresetFixture, EmBeatsBothSingleDeviceBaselines) {
  const SessionReport em = run(Method::kEM);
  const SessionReport host = host_only_baseline(*space_, *machine_, human_);
  const SessionReport device = device_only_baseline(*space_, *machine_, human_);
  EXPECT_LT(em.measured_time, host.measured_time);
  EXPECT_LT(em.measured_time, device.measured_time);
  // The paper's headline speedups: >1.5x vs host, >2x vs device.
  EXPECT_GT(host.measured_time / em.measured_time, 1.4);
  EXPECT_GT(device.measured_time / em.measured_time, 1.9);
}

TEST_F(PresetFixture, BaselinesFixFractionAndMaxThreads) {
  const SessionReport host = host_only_baseline(*space_, *machine_, human_);
  EXPECT_DOUBLE_EQ(host.config.host_percent, 100.0);
  EXPECT_EQ(host.config.host_threads, 48);
  const SessionReport device = device_only_baseline(*space_, *machine_, human_);
  EXPECT_DOUBLE_EQ(device.config.host_percent, 0.0);
  EXPECT_EQ(device.config.device_threads, 240);
}

TEST_F(PresetFixture, SamUsesExactlyTheIterationBudget) {
  const SessionReport sam = run(Method::kSAM, 500, 1);
  EXPECT_EQ(sam.evaluations, 501u);  // initial + 500 iterations
  EXPECT_EQ(sam.strategy, "annealing");
}

TEST_F(PresetFixture, SamlSearchEnergyIsPredictionButScoreIsMeasured) {
  const SessionReport saml = run(Method::kSAML, 500, 2);
  EXPECT_GT(saml.measured_time, 0.0);
  EXPECT_GT(saml.search_energy, 0.0);
  // Prediction and measurement agree only approximately.
  EXPECT_NE(saml.search_energy, saml.measured_time);
  EXPECT_NEAR(saml.search_energy / saml.measured_time, 1.0, 0.35);
}

TEST_F(PresetFixture, SamWithGenerousBudgetApproachesEm) {
  const SessionReport em = run(Method::kEM);
  const SessionReport sam = run(Method::kSAM, 2000, 3);
  // Table VI: ~7% difference at 2000 iterations; allow 25% headroom.
  EXPECT_LT(sam.measured_time, em.measured_time * 1.25);
}

TEST_F(PresetFixture, SamlFindsConfigurationsNearEm) {
  const SessionReport em = run(Method::kEM);
  const SessionReport saml = run(Method::kSAML, 1000, 4);
  // Result 3: ~10% difference at 1000 iterations; allow headroom for seeds.
  EXPECT_LT(saml.measured_time, em.measured_time * 1.35);
  EXPECT_LE(saml.evaluations, 1001u);
}

TEST_F(PresetFixture, EmlEvaluatesWholeSpaceWithPredictions) {
  const SessionReport eml = run(Method::kEML);
  EXPECT_EQ(eml.evaluations, 19926u);
  EXPECT_GT(eml.measured_time, 0.0);
  EXPECT_EQ(eml.evaluator, "prediction");
  const SessionReport em = run(Method::kEM);
  // EML picks by prediction; its measured score is never better than EM's
  // optimum by more than noise.
  EXPECT_GT(eml.measured_time, em.measured_time * 0.9);
}

TEST(MethodTest, NamesRoundTrip) {
  EXPECT_EQ(to_string(Method::kEM), "EM");
  EXPECT_EQ(to_string(Method::kEML), "EML");
  EXPECT_EQ(to_string(Method::kSAM), "SAM");
  EXPECT_EQ(to_string(Method::kSAML), "SAML");
}

TEST_F(PresetFixture, PredictionEvaluatorRequiresTrainedPredictor) {
  const PerformancePredictor untrained;
  EXPECT_THROW((void)PredictionEvaluator(untrained, *machine_), std::logic_error);
}

TEST_F(PresetFixture, MeasurementEvaluatorAgreesWithMachine) {
  MeasurementEvaluator measurement(*machine_);
  const opt::SystemConfig c = space_->at(1234);
  const double direct = machine_->measure_combined(
      human_.size_mb, c.host_percent, c.host_threads, c.host_affinity, c.device_threads,
      c.device_affinity);
  EXPECT_DOUBLE_EQ(measurement.evaluate(c, human_), direct);
  EXPECT_DOUBLE_EQ(measurement.score(c, human_), direct);
}

TEST(WorkloadTest, RejectsNonPositiveSizes) {
  EXPECT_THROW(Workload("x", 0.0), std::invalid_argument);
  EXPECT_THROW(Workload("x", -5.0), std::invalid_argument);
}

}  // namespace
}  // namespace hetopt::core
