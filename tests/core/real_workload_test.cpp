#include "core/real_workload.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/tuning_session.hpp"
#include "opt/config_space.hpp"

namespace hetopt::core {
namespace {

/// A fast evaluator: ~128 KB of physical "cat" sequence, timing replaced by
/// the deterministic work model where noted.
RealWorkloadOptions tiny_options(bool deterministic) {
  RealWorkloadOptions options;
  options.bytes_per_logical_mb = 54.0;  // cat (2430 logical MB) -> ~128 KB
  options.min_physical_bytes = 64 * 1024;
  options.deterministic_timing = deterministic;
  return options;
}

Workload cat() { return Workload("cat", 2430.0); }

/// Bytes the pools of a measurement's reported run scanned, summed.
std::size_t scanned_bytes(const RealMeasurement& m) {
  std::size_t bytes = 0;
  for (const PoolReport& pool : m.report.pools) bytes += pool.bytes;
  return bytes;
}

TEST(RealWorkloadTest, MaterializesScaledGenomeWithGroundTruth) {
  const dna::GenomeCatalog catalog;
  const RealWorkload rw(catalog, cat(), tiny_options(false));
  EXPECT_EQ(rw.logical().name, "cat");
  EXPECT_NEAR(static_cast<double>(rw.physical_bytes()), 2430.0 * 54.0, 1.0);
  // Planted motifs guarantee a non-trivial ground truth.
  EXPECT_GT(rw.sequential_matches(), 0u);
  // The materialization is deterministic.
  const RealWorkload again(catalog, cat(), tiny_options(false));
  EXPECT_EQ(again.text(), rw.text());
  EXPECT_EQ(again.sequential_matches(), rw.sequential_matches());
}

TEST(RealWorkloadTest, RejectsEmptyMotifsAndBadOptions) {
  const dna::GenomeCatalog catalog;
  RealWorkloadOptions options = tiny_options(false);
  options.motifs.clear();
  EXPECT_THROW((void)RealWorkload(catalog, cat(), options), std::invalid_argument);

  RealWorkloadOptions zero_repeats = tiny_options(false);
  zero_repeats.repeats = 0;
  EXPECT_THROW((void)RealWorkloadEvaluator(catalog, zero_repeats), std::invalid_argument);
}

TEST(RealWorkloadEvaluatorTest, MatchCountsEqualSequentialScanAcrossChunkCounts) {
  const dna::GenomeCatalog catalog;
  // Sweep thread counts (one chunk per worker, so the chunk count follows
  // them): every parallel decomposition must reproduce the sequential match
  // count exactly (the PaREM property).
  const RealWorkloadEvaluator evaluator(catalog, tiny_options(false));
  const std::uint64_t expected = evaluator.real(cat()).sequential_matches();
  for (const int host_threads : {1, 2, 5}) {
    for (const int device_threads : {1, 4}) {
      for (const double fraction : {0.0, 33.0, 75.0, 100.0}) {
        opt::SystemConfig c;
        c.host_threads = host_threads;
        c.device_threads = device_threads;
        c.host_percent = fraction;
        const RealMeasurement m = evaluator.measure(c, cat());
        EXPECT_EQ(m.matches, expected) << "host_threads=" << host_threads
                                       << " device_threads=" << device_threads
                                       << " fraction=" << fraction;
        EXPECT_EQ(scanned_bytes(m), evaluator.real(cat()).physical_bytes());
        EXPECT_GT(m.seconds, 0.0);
        EXPECT_GT(m.throughput_mb_s, 0.0);
      }
    }
  }
}

TEST(RealWorkloadEvaluatorTest, SeededTinyGenomeTuningIsDeterministic) {
  const dna::GenomeCatalog catalog;
  const opt::ConfigSpace space = opt::ConfigSpace::real(4);

  const auto tune = [&]() {
    TuningSession session(space);
    session.with_strategy("annealing")
        .with_evaluator(std::make_shared<RealWorkloadEvaluator>(catalog, tiny_options(true)))
        .with_budget(40)
        .with_seed(1234);
    return session.run(cat());
  };
  const SessionReport first = tune();
  const SessionReport second = tune();
  EXPECT_EQ(first.config, second.config);
  EXPECT_DOUBLE_EQ(first.measured_time, second.measured_time);
  EXPECT_DOUBLE_EQ(first.search_energy, second.search_energy);
  EXPECT_EQ(first.evaluations, second.evaluations);
  EXPECT_EQ(first.evaluator, "real-workload");
}

TEST(RealWorkloadEvaluatorTest, DeterministicModelPrefersMoreThreads) {
  opt::SystemConfig few;
  few.host_threads = 1;
  few.device_threads = 1;
  few.host_percent = 50.0;
  opt::SystemConfig many = few;
  many.host_threads = 8;
  many.device_threads = 8;
  const std::size_t mb = 4 * 1024 * 1024;
  EXPECT_LT(real_workload_model_fleet_seconds(many, mb, {mb}),
            real_workload_model_fleet_seconds(few, mb, {mb}));
  // Overlapped time is the max of the sides: dropping one side never slows
  // the other down.
  EXPECT_LE(real_workload_model_fleet_seconds(few, 0, {mb}),
            real_workload_model_fleet_seconds(few, mb, {mb}) + 1e-12);
  EXPECT_GT(real_workload_model_fleet_seconds(few, mb, {0}), 0.0);
}

TEST(RealWorkloadEvaluatorTest, CachesMaterializedWorkloads) {
  const dna::GenomeCatalog catalog;
  const RealWorkloadEvaluator evaluator(catalog, tiny_options(true));
  const RealWorkload& a = evaluator.real(cat());
  const RealWorkload& b = evaluator.real(cat());
  EXPECT_EQ(&a, &b);  // same materialization, no regeneration
}

TEST(RealWorkloadTest, BuildsEveryApplicableEngine) {
  const dna::GenomeCatalog catalog;
  // The default motifs (TATAWAW has IUPAC W): IUPAC classes are fine for
  // the bitap.
  const RealWorkload iupac(catalog, cat(), tiny_options(false));
  EXPECT_EQ(iupac.engines(),
            (std::vector<automata::EngineKind>{automata::EngineKind::kCompiledDfa,
                                               automata::EngineKind::kBitapSimd}));

  // Literal motifs qualify for every engine.
  RealWorkloadOptions literal = tiny_options(false);
  literal.motifs = {"GATTACA", "GGGCGG"};
  const RealWorkload all(catalog, cat(), literal);
  EXPECT_EQ(all.engines().size(), automata::kEngineKindCount);
  for (const automata::EngineKind kind : automata::kAllEngineKinds) {
    ASSERT_NE(all.find_engine(kind), nullptr);
    EXPECT_EQ(all.find_engine(kind)->count(all.text()), all.sequential_matches())
        << to_string(kind);
  }
}

/// The default options with a motif set past the bitap's 64 state bits.
RealWorkloadOptions wide_options(bool deterministic) {
  RealWorkloadOptions wide = tiny_options(deterministic);
  wide.motifs = {std::string(40, 'A') + "CGT", std::string(30, 'C') + "GTA"};
  return wide;
}

TEST(RealWorkloadTest, SkipsBitapCleanlyBeyond64Bits) {
  // > 64 summed pattern bits: the workload still builds (the compiled DFA
  // carries it) and records why the bitap is out — the capability-query
  // fallback.
  const dna::GenomeCatalog catalog;
  const RealWorkload rw(catalog, cat(), wide_options(false));
  EXPECT_EQ(rw.engines(),
            (std::vector<automata::EngineKind>{automata::EngineKind::kCompiledDfa}));
  EXPECT_EQ(rw.find_engine(automata::EngineKind::kBitapSimd), nullptr);
  EXPECT_NE(rw.engine_gap(automata::EngineKind::kBitapSimd).find("64"),
            std::string::npos);
  EXPECT_THROW((void)rw.engine(automata::EngineKind::kBitapSimd), std::invalid_argument);
  // The surviving engine agrees with the oracle.
  for (const automata::EngineKind kind : rw.engines()) {
    EXPECT_EQ(rw.engine(kind).count(rw.text()), rw.sequential_matches());
  }
}

TEST(RealWorkloadEvaluatorTest, HonorsTheConfiguredEngine) {
  const dna::GenomeCatalog catalog;
  const RealWorkloadEvaluator evaluator(catalog, tiny_options(true));
  const std::uint64_t expected = evaluator.real(cat()).sequential_matches();

  opt::SystemConfig c;
  c.host_threads = 2;
  c.device_threads = 2;
  c.host_percent = 50.0;
  for (const automata::EngineKind kind : evaluator.real(cat()).engines()) {
    c.engine = kind;
    const RealMeasurement m = evaluator.measure(c, cat());
    EXPECT_EQ(m.matches, expected) << to_string(kind);
  }
  // Asking for an engine the motif set does not qualify for is an error with
  // the gap reason, not a silent fallback.
  const RealWorkloadEvaluator wide(catalog, wide_options(true));
  c.engine = automata::EngineKind::kBitapSimd;
  EXPECT_THROW((void)wide.measure(c, cat()), std::invalid_argument);
}

TEST(RealWorkloadEvaluatorTest, DeterministicModelDifferentiatesEngines) {
  opt::SystemConfig c;
  c.host_threads = 4;
  c.device_threads = 4;
  c.host_percent = 50.0;
  const std::size_t mb = 4 * 1024 * 1024;
  const double dfa_s = real_workload_model_fleet_seconds(c, mb, {mb});
  c.engine = automata::EngineKind::kBitapSimd;
  const double simd_s = real_workload_model_fleet_seconds(c, mb, {mb});
  EXPECT_LT(simd_s, dfa_s);
}

TEST(RealWorkloadEvaluatorTest, TuningWithTheEngineAxisPicksTheModelWinner) {
  // Deterministic timing makes the engine landscape a pure function: the
  // SIMD bitap's model factor is the cheapest, so an exhaustive search over
  // an engine-enabled space must select it.
  const dna::GenomeCatalog catalog;
  const auto evaluator =
      std::make_shared<RealWorkloadEvaluator>(catalog, tiny_options(true));
  const opt::ConfigSpace space =
      opt::ConfigSpace::real(2).with_engines(evaluator->real(cat()).engines());
  EXPECT_EQ(space.engines().size(), 2u);

  TuningSession session(space);
  session.with_strategy("exhaustive")
      .with_evaluator(evaluator)
      .with_budget(space.size())
      .with_seed(7);
  const SessionReport report = session.run(cat());
  EXPECT_EQ(report.config.engine, automata::EngineKind::kBitapSimd);
  EXPECT_TRUE(space.contains(report.config));
}

TEST(RealWorkloadEvaluatorTest, HonorsTheConfiguredSchedule) {
  // Every schedule policy runs the live executor and must reproduce the
  // sequential match count exactly — the cross-policy parity property on
  // the measurement path.
  const dna::GenomeCatalog catalog;
  const RealWorkloadEvaluator evaluator(catalog, tiny_options(false));
  const std::uint64_t expected = evaluator.real(cat()).sequential_matches();

  opt::SystemConfig c;
  c.host_threads = 2;
  c.device_threads = 2;
  c.host_percent = 75.0;
  for (const parallel::SchedulePolicy policy : parallel::kAllSchedulePolicies) {
    c.schedule = policy;
    const RealMeasurement m = evaluator.measure(c, cat());
    EXPECT_EQ(m.matches, expected) << parallel::to_string(policy);
    EXPECT_EQ(scanned_bytes(m), evaluator.real(cat()).physical_bytes());
    ASSERT_EQ(m.report.pools.size(), 2u);
    const PoolReport& host = m.report.pools[0];
    EXPECT_GE(host.realized_percent, 0.0);
    EXPECT_LE(host.realized_percent, 100.0);
    if (policy == parallel::SchedulePolicy::kStatic) {
      EXPECT_EQ(host.steals, 0u);
      EXPECT_EQ(m.report.pools[1].steals, 0u);
      EXPECT_DOUBLE_EQ(host.realized_percent, 75.0);
    }
  }
}

TEST(RealWorkloadEvaluatorTest, DeterministicModelDifferentiatesSchedules) {
  opt::SystemConfig c;
  c.host_threads = 4;
  c.device_threads = 4;
  const std::size_t mb = 4 * 1024 * 1024;

  // At a deliberately bad fraction the static split is bottlenecked by one
  // side; every shared-queue policy beats it, adaptive cheapest of all
  // (static's factor is exactly 1.0 — its formula is untouched).
  c.host_percent = 100.0;
  const double skewed_static = real_workload_model_fleet_seconds(c, 2 * mb, {0});
  c.schedule = parallel::SchedulePolicy::kDynamic;
  const double skewed_dynamic = real_workload_model_fleet_seconds(c, 2 * mb, {0});
  c.schedule = parallel::SchedulePolicy::kGuided;
  const double skewed_guided = real_workload_model_fleet_seconds(c, 2 * mb, {0});
  c.schedule = parallel::SchedulePolicy::kAdaptive;
  const double skewed_adaptive = real_workload_model_fleet_seconds(c, 2 * mb, {0});
  EXPECT_LT(skewed_dynamic, skewed_static);
  EXPECT_LT(skewed_guided, skewed_dynamic);
  EXPECT_LT(skewed_adaptive, skewed_guided);

  // Seeded determinism: the model is a pure function of the configured
  // split, so shared-queue pricing reproduces exactly.
  EXPECT_DOUBLE_EQ(skewed_adaptive, real_workload_model_fleet_seconds(c, 2 * mb, {0}));
}

TEST(RealWorkloadEvaluatorTest, DeterministicTuningWithScheduleAxisReproduces) {
  // Seeded runs over a schedule-enabled space must reproduce bit-identically
  // (deterministic timing prices the configured split, never the realized
  // one), and the winner must carry a shared-queue schedule somewhere the
  // model rewards it.
  const dna::GenomeCatalog catalog;
  const auto evaluator =
      std::make_shared<RealWorkloadEvaluator>(catalog, tiny_options(true));
  const opt::ConfigSpace space =
      opt::ConfigSpace::real(2).with_schedules(
          {parallel::SchedulePolicy::kStatic, parallel::SchedulePolicy::kDynamic,
           parallel::SchedulePolicy::kGuided, parallel::SchedulePolicy::kAdaptive});
  const auto tune = [&] {
    TuningSession session(space);
    session.with_strategy("annealing")
        .with_evaluator(evaluator)
        .with_budget(40)
        .with_seed(2024);
    return session.run(cat());
  };
  const SessionReport first = tune();
  const SessionReport second = tune();
  EXPECT_EQ(first.config, second.config);
  EXPECT_DOUBLE_EQ(first.measured_time, second.measured_time);
  EXPECT_EQ(first.evaluations, second.evaluations);
  EXPECT_TRUE(space.contains(first.config));
}

TEST(RealWorkloadEvaluatorTest, AllFourPresetsCompleteOnTheRealMatcher) {
  // The acceptance path of the measurement pipeline: exhaustive and
  // annealing searches both drive the live matcher end-to-end (EM/SAM), and
  // the evaluator slots into the same session API the ML presets use.
  const dna::GenomeCatalog catalog;
  const auto evaluator =
      std::make_shared<RealWorkloadEvaluator>(catalog, tiny_options(true));
  const opt::ConfigSpace space = opt::ConfigSpace::real(2);
  for (const char* strategy : {"exhaustive", "annealing"}) {
    TuningSession session(space);
    session.with_strategy(strategy).with_evaluator(evaluator).with_budget(20).with_seed(7);
    const SessionReport report = session.run(cat());
    EXPECT_GT(report.evaluations, 0u) << strategy;
    EXPECT_GT(report.measured_time, 0.0) << strategy;
    EXPECT_TRUE(space.contains(report.config)) << strategy;
  }
}

}  // namespace
}  // namespace hetopt::core
