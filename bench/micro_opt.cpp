// google-benchmark microbenchmarks for the optimization substrate: the cost
// of one SA run at the paper's budgets, full enumeration over measurements
// (EM) and over predictions (EML), and the simulated measurement itself (the
// per-experiment cost everything else multiplies).
#include <benchmark/benchmark.h>

#include "core/methods.hpp"
#include "core/training.hpp"
#include "dna/catalog.hpp"
#include "sim/machine.hpp"

namespace {

using namespace hetopt;

void BM_SimulatedMeasurement(benchmark::State& state) {
  const sim::Machine machine = sim::emil_machine();
  std::uint64_t rep = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine.measure_combined(
        3170.0, 62.5, 24, parallel::HostAffinity::kScatter, 120,
        parallel::DeviceAffinity::kBalanced, ++rep));
  }
}
BENCHMARK(BM_SimulatedMeasurement);

void BM_SimulatedAnnealingRun(benchmark::State& state) {
  const sim::Machine machine = sim::emil_machine();
  const opt::ConfigSpace space = opt::ConfigSpace::paper();
  const core::Workload human("human", 3170.0);
  const auto iterations = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::TuningSession::preset(core::Method::kSAM, machine, space, nullptr, iterations,
                                    ++seed)
            .run(human));
  }
}
BENCHMARK(BM_SimulatedAnnealingRun)->Arg(250)->Arg(1000)->Arg(2000);

void BM_FullEnumeration(benchmark::State& state) {
  const sim::Machine machine = sim::emil_machine();
  const opt::ConfigSpace space = opt::ConfigSpace::paper();
  const core::Workload human("human", 3170.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::TuningSession::preset(core::Method::kEM, machine, space).run(human));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(space.size()));
}
BENCHMARK(BM_FullEnumeration);

void BM_PredictedEnumeration(benchmark::State& state) {
  const sim::Machine machine = sim::emil_machine();
  const opt::ConfigSpace space = opt::ConfigSpace::paper();
  const core::Workload human("human", 3170.0);
  // The 900-row sweep of benchmark/'s tune_predicted workload at seed 1:
  // Table I's thread axes, every affinity and genome, fractions 20..100.
  core::TrainingSweepOptions sweep = core::TrainingSweepOptions::paper();
  sweep.fractions = {20.0, 40.0, 60.0, 80.0, 100.0};
  sweep.repetition = 1;
  const core::TrainingData data =
      core::generate_training_data(machine, dna::GenomeCatalog(), sweep);
  core::PerformancePredictor predictor;
  predictor.train(data.host, data.device);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::TuningSession::preset(core::Method::kEML, machine, space, &predictor).run(human));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(space.size()));
}
BENCHMARK(BM_PredictedEnumeration);

void BM_NeighborMove(benchmark::State& state) {
  const opt::ConfigSpace space = opt::ConfigSpace::paper();
  util::Xoshiro256 rng(3);
  opt::SystemConfig c = space.random(rng);
  for (auto _ : state) {
    c = space.neighbor(c, rng);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_NeighborMove);

}  // namespace

BENCHMARK_MAIN();
