// End-to-end integration: the full paper pipeline on the real configuration
// space — training sweep -> predictor -> all four methods -> speedups — plus
// the real DFA execution path driven by a tuned configuration.
#include <gtest/gtest.h>

#include "automata/aho_corasick.hpp"
#include "automata/scanner.hpp"
#include "core/hetopt.hpp"
#include "ml/metrics.hpp"

namespace hetopt {
namespace {

class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    machine_ = new sim::Machine(sim::emil_machine());
    space_ = new opt::ConfigSpace(opt::ConfigSpace::paper());
    catalog_ = new dna::GenomeCatalog();
    data_ = new core::TrainingData(core::generate_training_data(
        *machine_, *catalog_, core::TrainingSweepOptions::paper()));
    predictor_ = new core::PerformancePredictor();
    predictor_->train(data_->host, data_->device);
  }
  static void TearDownTestSuite() {
    delete predictor_;
    delete data_;
    delete catalog_;
    delete space_;
    delete machine_;
  }

  static sim::Machine* machine_;
  static opt::ConfigSpace* space_;
  static dna::GenomeCatalog* catalog_;
  static core::TrainingData* data_;
  static core::PerformancePredictor* predictor_;

  [[nodiscard]] static core::SessionReport run(core::Method method, const core::Workload& w,
                                               std::size_t sa_iterations = 1000,
                                               std::uint64_t seed = 0x7475ULL) {
    return core::TuningSession::preset(method, *machine_, *space_, predictor_, sa_iterations,
                                       seed)
        .run(w);
  }
};

sim::Machine* PipelineFixture::machine_ = nullptr;
opt::ConfigSpace* PipelineFixture::space_ = nullptr;
dna::GenomeCatalog* PipelineFixture::catalog_ = nullptr;
core::TrainingData* PipelineFixture::data_ = nullptr;
core::PerformancePredictor* PipelineFixture::predictor_ = nullptr;

TEST_F(PipelineFixture, TrainingSweepHasPaperCardinality) {
  EXPECT_EQ(data_->host.size(), 2880u);
  EXPECT_EQ(data_->device.size(), 4320u);
}

TEST_F(PipelineFixture, HalfSplitPredictionAccuracyInPaperBand) {
  // The paper reports ~5.2% host / ~3.1% device average percent error with a
  // half/half protocol. Verify the same protocol lands in a sane band.
  const auto [host_train, host_eval] = data_->host.split_half(77);
  const auto [device_train, device_eval] = data_->device.split_half(77);
  core::PerformancePredictor p;
  p.train(host_train, device_train);

  std::vector<double> measured;
  std::vector<double> predicted;
  for (std::size_t i = 0; i < host_eval.size(); ++i) {
    const auto row = host_eval.row(i);
    measured.push_back(host_eval.target(i));
    // Decode the one-hot affinity back out of the feature row.
    const auto aff = row[2] > 0.5   ? parallel::HostAffinity::kNone
                     : row[3] > 0.5 ? parallel::HostAffinity::kScatter
                                    : parallel::HostAffinity::kCompact;
    predicted.push_back(p.predict_host(row[0], static_cast<int>(row[1]), aff));
  }
  const auto host_summary = ml::summarize_errors(measured, predicted);
  EXPECT_LT(host_summary.mean_percent, 9.0);
  EXPECT_GT(host_summary.mean_percent, 1.0);  // noise floor exists

  measured.clear();
  predicted.clear();
  for (std::size_t i = 0; i < device_eval.size(); ++i) {
    const auto row = device_eval.row(i);
    measured.push_back(device_eval.target(i));
    const auto aff = row[2] > 0.5   ? parallel::DeviceAffinity::kBalanced
                     : row[3] > 0.5 ? parallel::DeviceAffinity::kScatter
                                    : parallel::DeviceAffinity::kCompact;
    predicted.push_back(p.predict_device(row[0], static_cast<int>(row[1]), aff));
  }
  const auto device_summary = ml::summarize_errors(measured, predicted);
  EXPECT_LT(device_summary.mean_percent, 7.0);
}

TEST_F(PipelineFixture, AllFourMethodsProduceCompetitiveConfigs) {
  const core::Workload dog("dog", 2380.0);
  const auto em = run(core::Method::kEM, dog);
  const auto eml = run(core::Method::kEML, dog);
  const auto sam = run(core::Method::kSAM, dog, 1000, 5);
  const auto saml = run(core::Method::kSAML, dog, 1000, 5);
  // EM is the optimum; every other method is within 40% of it.
  for (const auto* r : {&eml, &sam, &saml}) {
    EXPECT_GE(r->measured_time, em.measured_time * 0.999);
    EXPECT_LE(r->measured_time, em.measured_time * 1.4);
  }
  // SA methods used ~5% of EM's experiments.
  EXPECT_LE(sam.evaluations, em.evaluations / 15);
}

TEST_F(PipelineFixture, SpeedupsReproducePaperShape) {
  // Table VIII/IX shape: combined beats host-only by >1.4x and device-only
  // by >1.9x on every genome, and device-only is slower than host-only.
  for (const auto& genome : catalog_->all()) {
    const core::Workload w(genome.name, genome.size_mb);
    const auto em = run(core::Method::kEM, w);
    const auto host = core::host_only_baseline(*space_, *machine_, w);
    const auto device = core::device_only_baseline(*space_, *machine_, w);
    EXPECT_GT(host.measured_time / em.measured_time, 1.4) << genome.name;
    EXPECT_GT(device.measured_time / em.measured_time, 1.9) << genome.name;
    EXPECT_GT(device.measured_time, host.measured_time) << genome.name;
  }
}

TEST_F(PipelineFixture, SamlIterationSweepImprovesMonotonically) {
  // Table VI: percent difference decreases as iterations grow (averaged over
  // seeds to suppress SA variance).
  const core::Workload cat("cat", 2430.0);
  const auto em = run(core::Method::kEM, cat);
  double prev_avg = 1e9;
  for (const std::size_t iters : {250u, 1000u, 2000u}) {
    double sum = 0.0;
    constexpr int kSeeds = 5;
    for (int seed = 0; seed < kSeeds; ++seed) {
      const auto r = run(core::Method::kSAML, cat, iters, seed);
      sum += r.measured_time;
    }
    const double avg = sum / kSeeds;
    EXPECT_LE(avg, prev_avg * 1.05) << iters;  // allow small seed noise
    EXPECT_GE(avg, em.measured_time * 0.999);
    prev_avg = avg;
  }
}

TEST_F(PipelineFixture, TunedConfigDrivesRealExecution) {
  // Close the loop: tune with SAML, then actually run the DNA kernel with
  // the recommended fraction on a materialized (scaled) genome.
  const core::Workload human("human", 3170.0);
  const auto saml = run(core::Method::kSAML, human, 500, 9);
  const dna::Sequence seq = catalog_->materialize(
      "human", 1 << 20, {{"GATTACAGATTACA", 10}});
  const automata::DenseDfa dfa = automata::build_aho_corasick({"GATTACAGATTACA"});
  std::vector<core::PoolSpec> pair(2);
  pair[0].threads = 4;
  pair[0].share_percent = saml.config.host_percent;
  pair[1].threads = 4;
  pair[1].share_percent = 100.0 - saml.config.host_percent;
  core::HeterogeneousExecutor exec(dfa, pair);
  const core::ExecutionReport report = exec.run_fleet(seq.view());
  EXPECT_EQ(report.total_matches(), automata::count_matches(dfa, seq.view()));
  EXPECT_GE(report.total_matches(), 10u);
}

}  // namespace
}  // namespace hetopt
