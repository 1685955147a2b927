#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "automata/scanner.hpp"
#include "core/methods.hpp"
#include "core/training.hpp"
#include "dna/catalog.hpp"
#include "dna/generator.hpp"
#include "sim/machine.hpp"

namespace hetopt::bench {

Scale Scale::quick() {
  Scale s;
  s.corpus_bytes = std::size_t{4} << 20;
  s.setup_reps = 1;
  s.setup_seconds = 0.0;
  s.scan_warmup = 2;
  s.tune_warmup = 0;
  s.kernel_reps = 2;
  s.fleet_calls = 3;
  s.overhead_calls = 10;
  s.probe_sessions = 1;
  s.mem_bytes = std::size_t{64} << 20;
  return s;
}

const std::vector<std::string>& motifs() {
  static const std::vector<std::string> kMotifs = core::RealWorkloadOptions{}.motifs;
  return kMotifs;
}

unsigned hardware_threads() { return std::max(1u, std::thread::hardware_concurrency()); }

ScanCorpus make_scan_corpus(const Context& ctx) {
  const std::size_t bytes = ctx.scale.corpus_bytes;
  ScanCorpus corpus;
  {
    const Scope span(*ctx.tracer, "setup.generate");
    // The human Markov parameters with the default motifs planted at the
    // density RealWorkload plants them.
    const dna::GenomeGenerator generator(dna::GenomeCatalog{}.get("human").markov);
    const std::size_t copies = std::max<std::size_t>(8, bytes / 65536);
    corpus.sequence = generator.generate_with_motifs("scan", bytes, ctx.seed,
                                                     {{"TATAAAA", copies}, {"GGGCGG", copies}});
  }
  {
    const Scope span(*ctx.tracer, "setup.lower");
    corpus.engine = automata::lower(automata::EngineKind::kCompiledDfa, motifs());
  }
  {
    const Scope span(*ctx.tracer, "setup.oracle");
    const automata::DenseDfa& dfa = *corpus.engine->dfa();
    corpus.oracle = automata::scan_count_naive(dfa, corpus.text(), dfa.start()).match_count;
  }
  return corpus;
}

std::vector<core::PoolSpec> fleet_specs(bool paged) {
  constexpr std::size_t kPools = 2;
  // The paged scan runs one prefetch thread per pool beside the workers.
  // Workers and prefetch threads together must not outnumber the cores, or
  // the scan's tail measures the scheduler.
  const std::size_t helpers = paged ? kPools : 0;
  const std::size_t cores = hardware_threads();
  const std::size_t free_cores = cores > helpers ? cores - helpers : 0;
  const std::size_t per_pool = std::max<std::size_t>(1, free_cores / kPools);
  std::vector<core::PoolSpec> specs(kPools);
  for (core::PoolSpec& spec : specs) {
    spec.threads = per_pool;
    spec.share_percent = 50.0;
  }
  return specs;
}

PagedCorpus::PagedCorpus(const Context& ctx, std::string_view text) {
  path_ = ctx.out_dir + "/corpus-" + std::to_string(ctx.seed) + "-" +
          std::to_string(::getpid()) + ".raw";
  {
    const Scope span(*ctx.tracer, "setup.write");
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.close();
    if (!out) throw std::runtime_error("cannot write the paged corpus to " + path_);
  }
  // 128 pages, 1/8 of them resident. The floor leaves each pool room for its
  // workers' pins plus the default prefetch ring.
  constexpr std::size_t kPages = 128;
  const std::size_t pool_workers = fleet_specs(true)[0].threads;
  dna::PagedGenomeOptions options;
  options.page_bytes = std::max<std::size_t>(1, text.size() / kPages);
  options.resident_pages = std::max(kPages / 8, 2 * (pool_workers + 4));
  options.halo_bytes = 63;
  genome_ = std::make_unique<dna::PagedGenome>(std::make_unique<dna::FilePageSource>(path_),
                                               options);
}

PagedCorpus::~PagedCorpus() {
  genome_.reset();  // close the file before removing it
  std::error_code ec;
  std::filesystem::remove(path_, ec);
}

// --- CheckedEvaluator --------------------------------------------------------

CheckedEvaluator::CheckedEvaluator(std::shared_ptr<const core::RealWorkloadEvaluator> inner,
                                   Tracer& tracer)
    : inner_(std::move(inner)), tracer_(&tracer) {}

core::RealMeasurement CheckedEvaluator::measure(const opt::SystemConfig& config,
                                                const core::Workload& workload) const {
  core::RealMeasurement m = inner_->measure(config, workload);
  retries_ += m.measure_failures;
  if (!m.valid) ++invalid_;
  if (!m.valid || m.matches != inner_->real(workload).sequential_matches()) ++bad_;
  return m;
}

double CheckedEvaluator::value(const opt::SystemConfig& config,
                               const core::Workload& workload) const {
  const Scope span(*tracer_, "evaluation");
  if (sink_ != nullptr) sink_->push_back(config);
  return measure(config, workload).seconds;
}

double CheckedEvaluator::score(const opt::SystemConfig& config,
                               const core::Workload& workload) const {
  const Scope span(*tracer_, "rescore");
  return measure(config, workload).seconds;
}

// --- TuningFixture -----------------------------------------------------------

namespace {

[[nodiscard]] opt::ConfigSpace measured_space(const core::RealWorkload& real) {
  const int half = static_cast<int>(std::max(1u, hardware_threads() / 2));
  const std::vector<int> threads = half > 1 ? std::vector<int>{1, half} : std::vector<int>{1};
  std::vector<double> fractions;
  for (int f = 0; f <= 100; f += 10) fractions.push_back(f);
  return opt::ConfigSpace(
      threads,
      {parallel::HostAffinity::kNone, parallel::HostAffinity::kScatter,
       parallel::HostAffinity::kCompact},
      threads,
      {parallel::DeviceAffinity::kBalanced, parallel::DeviceAffinity::kScatter,
       parallel::DeviceAffinity::kCompact},
      fractions, real.engines(),
      {parallel::SchedulePolicy::kStatic, parallel::SchedulePolicy::kDynamic,
       parallel::SchedulePolicy::kGuided, parallel::SchedulePolicy::kAdaptive});
}

[[nodiscard]] std::shared_ptr<const core::RealWorkloadEvaluator> materialized(
    Tracer& tracer, const core::Workload& workload, bool deterministic) {
  core::RealWorkloadOptions options;
  options.deterministic_timing = deterministic;
  auto evaluator = std::make_shared<core::RealWorkloadEvaluator>(dna::GenomeCatalog{}, options);
  const Scope span(tracer, "setup.materialize");
  (void)evaluator->real(workload);  // generation, lowering and the oracle
  return evaluator;
}

/// The nearest point of `space` on every numeric axis (a winner found on the
/// paper's 240-thread grid, executed on this machine).
[[nodiscard]] opt::SystemConfig snap(const opt::ConfigSpace& space, opt::SystemConfig c) {
  const auto nearest = [](const auto& axis, auto v) {
    auto best = axis.front();
    for (const auto a : axis) {
      if (std::abs(a - v) < std::abs(best - v)) best = a;
    }
    return best;
  };
  c.host_threads = nearest(space.host_threads(), c.host_threads);
  c.device_threads = nearest(space.device_threads(), c.device_threads);
  c.host_percent = nearest(space.fractions(), c.host_percent);
  return c;
}

}  // namespace

TuningFixture::TuningFixture(Tracer& tracer, bool deterministic)
    : tracer_(&tracer),
      workload_("human", dna::GenomeCatalog{}.get("human").size_mb),
      evaluator_(std::make_shared<CheckedEvaluator>(
          materialized(tracer, workload_, deterministic), tracer)),
      space_(measured_space(real())) {}

const core::RealWorkload& TuningFixture::real() const {
  return evaluator_->inner().real(workload_);
}

std::size_t TuningFixture::budget() const noexcept {
  return static_cast<std::size_t>(std::ceil(0.05 * static_cast<double>(space_.size())));
}

core::SessionReport TuningFixture::run_session(std::uint64_t seed) {
  const std::uint64_t bad_before = evaluator_->bad();
  core::SessionReport report;
  {
    const Scope span(*tracer_, "session");
    core::TuningSession session(space_);
    session.with_strategy("annealing").with_evaluator(evaluator_).with_budget(budget()).with_seed(
        seed);
    report = session.run(workload_);
  }
  if (evaluator_->bad() != bad_before) {
    throw std::runtime_error("tune session: a measurement was invalid or miscounted");
  }
  return report;
}

PredictedRun run_predicted(TuningFixture& fixture, std::uint64_t seed) {
  Tracer& tracer = fixture.tracer();
  const sim::Machine machine = sim::emil_machine();
  const dna::GenomeCatalog catalog;
  PredictedRun run;

  // The paper's §IV-B sweep protocol (Table I thread axes, all affinities,
  // every genome) at fractions 20..100 in steps of 20: 900 rows.
  core::TrainingSweepOptions sweep = core::TrainingSweepOptions::paper();
  sweep.fractions = {20.0, 40.0, 60.0, 80.0, 100.0};
  sweep.repetition = seed;
  core::TrainingData data;
  {
    const Scope span(tracer, "ml.sweep");
    data = core::generate_training_data(machine, catalog, sweep);
  }
  run.train_rows = data.host.size() + data.device.size();
  core::PerformancePredictor predictor;
  {
    const Scope span(tracer, "ml.train");
    predictor.train(data.host, data.device);
  }

  std::vector<opt::SystemConfig> winners;
  {
    const Scope span(tracer, "opt.eml");
    core::TuningSession eml = core::TuningSession::preset(
        core::Method::kEML, machine, opt::ConfigSpace::paper(), &predictor);
    const core::SessionReport report = eml.run(fixture.workload());
    run.eml_predictions = report.evaluations;
    winners.push_back(report.config);
  }
  {
    const Scope span(tracer, "opt.saml");
    core::TuningSession saml = core::TuningSession::preset(
        core::Method::kSAML, machine, opt::ConfigSpace::paper(), &predictor, 1000, seed);
    winners.push_back(saml.run(fixture.workload()).config);
  }

  const std::uint64_t bad_before = fixture.evaluator()->bad();
  for (const opt::SystemConfig& winner : winners) {
    const Scope span(tracer, "winner.rescore");
    (void)fixture.evaluator()->measure(snap(fixture.space(), winner), fixture.workload());
  }
  if (fixture.evaluator()->bad() != bad_before) {
    throw std::runtime_error("tune_predicted: a winner re-score was invalid or miscounted");
  }
  return run;
}

// --- the four workloads ------------------------------------------------------

namespace {

class ScanMem final : public Workload {
 public:
  explicit ScanMem(const Context& ctx) : ctx_(ctx) {}

  void set_up() override {
    executor_.reset();
    corpus_ = make_scan_corpus(ctx_);
    const Scope span(*ctx_.tracer, "setup.fleet");
    executor_ =
        std::make_unique<core::HeterogeneousExecutor>(*corpus_.engine, fleet_specs(false));
  }
  bool op(std::uint64_t) override {
    const Scope span(*ctx_.tracer, "executor.run_fleet");
    return executor_->run_fleet(corpus_.text()).total_matches() == corpus_.oracle;
  }
  [[nodiscard]] std::size_t warmup_ops() const override { return ctx_.scale.scan_warmup; }
  [[nodiscard]] std::size_t corpus_bytes() const override { return corpus_.text().size(); }

 private:
  Context ctx_;
  ScanCorpus corpus_;
  std::unique_ptr<core::HeterogeneousExecutor> executor_;
};

class ScanPaged final : public Workload {
 public:
  explicit ScanPaged(const Context& ctx) : ctx_(ctx) {}

  void set_up() override {
    executor_.reset();
    paged_.reset();
    {
      // The in-memory copy dies with this block, before any timing.
      ScanCorpus corpus = make_scan_corpus(ctx_);
      paged_ = std::make_unique<PagedCorpus>(ctx_, corpus.text());
      bytes_ = corpus.text().size();
      engine_ = std::move(corpus.engine);
      oracle_ = corpus.oracle;
    }
    const Scope span(*ctx_.tracer, "setup.fleet");
    executor_ = std::make_unique<core::HeterogeneousExecutor>(*engine_, fleet_specs(true));
  }
  bool op(std::uint64_t) override {
    const Scope span(*ctx_.tracer, "executor.run_fleet_paged");
    return executor_->run_fleet_paged(paged_->genome()).total_matches() == oracle_;
  }
  [[nodiscard]] std::size_t warmup_ops() const override { return ctx_.scale.scan_warmup; }
  [[nodiscard]] std::size_t corpus_bytes() const override { return bytes_; }

 private:
  Context ctx_;
  std::unique_ptr<const automata::MatchEngine> engine_;
  std::uint64_t oracle_ = 0;
  std::size_t bytes_ = 0;
  std::unique_ptr<PagedCorpus> paged_;
  std::unique_ptr<core::HeterogeneousExecutor> executor_;
};

class TuneMeasured final : public Workload {
 public:
  explicit TuneMeasured(const Context& ctx) : ctx_(ctx) {}

  void set_up() override {
    fixture_.reset();
    fixture_ = std::make_unique<TuningFixture>(*ctx_.tracer, true);
  }
  bool op(std::uint64_t input) override {
    (void)fixture_->run_session(ctx_.seed + input);
    return true;
  }
  [[nodiscard]] std::size_t warmup_ops() const override { return ctx_.scale.tune_warmup; }
  [[nodiscard]] std::size_t corpus_bytes() const override {
    return fixture_->real().physical_bytes();
  }

 private:
  Context ctx_;
  std::unique_ptr<TuningFixture> fixture_;
};

class TunePredicted final : public Workload {
 public:
  explicit TunePredicted(const Context& ctx) : ctx_(ctx) {}

  void set_up() override {
    fixture_.reset();
    fixture_ = std::make_unique<TuningFixture>(*ctx_.tracer, false);
  }
  bool op(std::uint64_t input) override {
    (void)run_predicted(*fixture_, ctx_.seed + input);
    return true;
  }
  [[nodiscard]] std::size_t warmup_ops() const override { return ctx_.scale.tune_warmup; }
  [[nodiscard]] std::size_t corpus_bytes() const override {
    return fixture_->real().physical_bytes();
  }

 private:
  Context ctx_;
  std::unique_ptr<TuningFixture> fixture_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, const Context& ctx) {
  if (name == "scan_mem") return std::make_unique<ScanMem>(ctx);
  if (name == "scan_paged") return std::make_unique<ScanPaged>(ctx);
  if (name == "tune_measured") return std::make_unique<TuneMeasured>(ctx);
  if (name == "tune_predicted") return std::make_unique<TunePredicted>(ctx);
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

}  // namespace hetopt::bench
