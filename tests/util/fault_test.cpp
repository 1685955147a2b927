// util::FaultPlan / util::FaultInjector: plan-grammar parsing (valid specs,
// every malformed shape, seeded mutations of valid plans and random bytes),
// scoped arming/disarming with the single-injector invariant, and the
// per-kind injection-point queries the runtime consults.
#include "util/fault.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace hetopt::util {
namespace {

// --- Plan parsing -----------------------------------------------------------

TEST(FaultPlanTest, ParsesEveryKindWithItsKeys) {
  const FaultPlan plan = FaultPlan::parse(
      "pool-death:pool=2; pool-stall:pool=1; chunk-throw:chunk=5,times=3; "
      "chunk-slow:chunk=7,factor=4.5; worker-throw:after=10,times=2; "
      "measure-fail:after=1,times=4; measure-noise:repeat=2,factor=100; probe",
      99);
  ASSERT_EQ(plan.faults.size(), 8u);
  EXPECT_EQ(plan.seed, 99u);
  EXPECT_EQ(plan.faults[0].kind, FaultKind::kPoolDeath);
  EXPECT_EQ(plan.faults[0].pool, 2u);
  EXPECT_EQ(plan.faults[1].kind, FaultKind::kPoolStall);
  EXPECT_EQ(plan.faults[1].pool, 1u);
  EXPECT_EQ(plan.faults[2].kind, FaultKind::kChunkThrow);
  EXPECT_EQ(plan.faults[2].chunk, 5u);
  EXPECT_EQ(plan.faults[2].times, 3u);
  EXPECT_EQ(plan.faults[3].kind, FaultKind::kChunkSlow);
  EXPECT_EQ(plan.faults[3].chunk, 7u);
  EXPECT_DOUBLE_EQ(plan.faults[3].factor, 4.5);
  EXPECT_EQ(plan.faults[4].kind, FaultKind::kWorkerThrow);
  EXPECT_EQ(plan.faults[4].after, 10u);
  EXPECT_EQ(plan.faults[4].times, 2u);
  EXPECT_EQ(plan.faults[5].kind, FaultKind::kMeasureFail);
  EXPECT_EQ(plan.faults[6].kind, FaultKind::kMeasureNoise);
  EXPECT_EQ(plan.faults[6].repeat, 2u);
  EXPECT_DOUBLE_EQ(plan.faults[6].factor, 100.0);
  EXPECT_EQ(plan.faults[7].kind, FaultKind::kProbe);
}

TEST(FaultPlanTest, EmptySpecIsAnEmptyArmablePlan) {
  const FaultPlan plan = FaultPlan::parse("");
  EXPECT_TRUE(plan.faults.empty());
  EXPECT_FALSE(plan.exercises_recovery());
  const FaultInjector injector(plan);  // arming an empty plan is legal
  EXPECT_EQ(FaultInjector::current(), &injector);
}

TEST(FaultPlanTest, WhitespaceAndEmptyEntriesAreIgnored) {
  const FaultPlan plan =
      FaultPlan::parse("  pool-death : pool = 3  ; ; chunk-slow: chunk=1 , factor=2 ;");
  ASSERT_EQ(plan.faults.size(), 2u);
  EXPECT_EQ(plan.faults[0].pool, 3u);
  EXPECT_DOUBLE_EQ(plan.faults[1].factor, 2.0);
}

TEST(FaultPlanTest, MalformedSpecsThrow) {
  EXPECT_THROW((void)FaultPlan::parse("meteor-strike"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("pool-death:planet=1"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("pool-death:pool"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("pool-death:pool=x"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("chunk-slow:chunk=1,factor=0"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("chunk-slow:chunk=1,factor=-2"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("chunk-slow:chunk=1,factor=fast"),
               std::invalid_argument);
}

TEST(FaultPlanTest, ExercisesRecoveryOnlyForExecutorFaults) {
  EXPECT_TRUE(FaultPlan::parse("pool-death:pool=0").exercises_recovery());
  EXPECT_TRUE(FaultPlan::parse("pool-stall:pool=0").exercises_recovery());
  EXPECT_TRUE(FaultPlan::parse("chunk-throw:chunk=0").exercises_recovery());
  EXPECT_TRUE(FaultPlan::parse("chunk-slow:chunk=0,factor=2").exercises_recovery());
  EXPECT_TRUE(FaultPlan::parse("probe").exercises_recovery());
  EXPECT_FALSE(FaultPlan::parse("measure-fail:after=0").exercises_recovery());
  EXPECT_FALSE(
      FaultPlan::parse("measure-noise:repeat=0,factor=10").exercises_recovery());
}

TEST(FaultPlanTest, ToStringRoundTripsThroughParse) {
  const std::string spec =
      "pool-death:pool=1; chunk-throw:chunk=4,times=2; measure-noise:repeat=1,factor=8";
  const FaultPlan plan = FaultPlan::parse(spec);
  const FaultPlan again = FaultPlan::parse(plan.to_string());
  ASSERT_EQ(again.faults.size(), plan.faults.size());
  for (std::size_t i = 0; i < plan.faults.size(); ++i) {
    EXPECT_EQ(again.faults[i].kind, plan.faults[i].kind) << i;
    EXPECT_EQ(again.faults[i].pool, plan.faults[i].pool) << i;
    EXPECT_EQ(again.faults[i].chunk, plan.faults[i].chunk) << i;
    EXPECT_EQ(again.faults[i].times, plan.faults[i].times) << i;
    EXPECT_DOUBLE_EQ(again.faults[i].factor, plan.faults[i].factor) << i;
  }
}

// --- Plan parsing under seeded fuzzing -------------------------------------

/// Parses `spec` and reports how it ended: "" when it parsed into a plan
/// whose every factor is finite and positive, "invalid_argument" when it
/// threw that, and the exception or broken invariant otherwise.
std::string parse_outcome(const std::string& spec) {
  try {
    const FaultPlan plan = FaultPlan::parse(spec);
    for (const Fault& fault : plan.faults) {
      if (!(fault.factor > 0.0 && std::isfinite(fault.factor))) return "factor out of range";
    }
    return "";
  } catch (const std::invalid_argument&) {
    return "invalid_argument";
  } catch (const std::exception& e) {
    return std::string("other exception: ") + e.what();
  }
}

constexpr std::array<std::string_view, 6> kValidPlans = {
    "pool-death:pool=2; pool-stall:pool=1",
    "chunk-throw:chunk=5,times=3; chunk-slow:chunk=7,factor=4.5",
    "worker-throw:after=10,times=2; measure-fail:after=1,times=4",
    "measure-noise:repeat=2,factor=100; probe",
    "  pool-death : pool = 3  ; ; chunk-slow: chunk=1 , factor=2 ;",
    "chunk-slow:chunk=18446744073709551615,factor=1e308",
};

/// Bytes the mutator favours: the grammar's separators, digits, the
/// letters of its kinds and keys, number syntax and whitespace.
constexpr std::string_view kPlanBytes = ":;,= -.+e0123456789pooldeathchunkslwrfimsuve\t\n";

TEST(FaultPlanTest, MutatedPlansParseOrThrowInvalidArgument) {
  Xoshiro256 rng(0xFA017ULL);
  for (int i = 0; i < 20000; ++i) {
    std::string spec(kValidPlans[rng.bounded(kValidPlans.size())]);
    const auto edits = 1 + rng.bounded(4);
    for (std::uint64_t e = 0; e < edits; ++e) {
      const std::size_t at = rng.bounded(spec.size() + 1);
      const char byte = rng.bernoulli(0.8) ? kPlanBytes[rng.bounded(kPlanBytes.size())]
                                           : static_cast<char>(rng.bounded(256));
      switch (rng.bounded(4)) {
        case 0:  // insert
          spec.insert(at, 1, byte);
          break;
        case 1:  // delete
          if (at < spec.size()) spec.erase(at, 1);
          break;
        case 2:  // overwrite
          if (at < spec.size()) spec[at] = byte;
          break;
        default:  // duplicate a slice
          spec.insert(at, spec.substr(rng.bounded(spec.size() + 1), rng.bounded(12)));
          break;
      }
    }
    const std::string outcome = parse_outcome(spec);
    ASSERT_TRUE(outcome.empty() || outcome == "invalid_argument")
        << outcome << " for '" << spec << "'";
  }
}

TEST(FaultPlanTest, RandomBytesParseOrThrowInvalidArgument) {
  Xoshiro256 rng(0xB17E5ULL);
  for (int i = 0; i < 20000; ++i) {
    std::string spec(rng.bounded(48), '\0');
    for (char& c : spec) {
      c = rng.bernoulli(0.5) ? kPlanBytes[rng.bounded(kPlanBytes.size())]
                             : static_cast<char>(rng.bounded(256));
    }
    const std::string outcome = parse_outcome(spec);
    ASSERT_TRUE(outcome.empty() || outcome == "invalid_argument")
        << outcome << " for '" << spec << "'";
  }
}

// --- Arming -----------------------------------------------------------------

TEST(FaultInjectorTest, ArmingIsScopedAndExclusive) {
  EXPECT_EQ(FaultInjector::current(), nullptr);
  {
    const FaultInjector injector(FaultPlan::parse("probe"));
    EXPECT_EQ(FaultInjector::current(), &injector);
    EXPECT_THROW((void)FaultInjector(FaultPlan::parse("probe")), std::logic_error);
    EXPECT_EQ(FaultInjector::current(), &injector);  // failed arm changes nothing
  }
  EXPECT_EQ(FaultInjector::current(), nullptr);
}

// --- Injection-point queries ------------------------------------------------

TEST(FaultInjectorTest, PoolQueriesTargetThePlannedPoolOnly) {
  const FaultInjector injector(FaultPlan::parse("pool-death:pool=2; pool-stall:pool=1"));
  EXPECT_FALSE(injector.pool_dies(0));
  EXPECT_FALSE(injector.pool_dies(1));
  EXPECT_TRUE(injector.pool_dies(2));
  EXPECT_TRUE(injector.pool_stalls(1));
  EXPECT_FALSE(injector.pool_stalls(2));
}

TEST(FaultInjectorTest, ChunkScanThrowsWhileAttemptBelowTimes) {
  const FaultInjector injector(FaultPlan::parse("chunk-throw:chunk=3,times=2"));
  EXPECT_THROW(injector.chunk_scan(3, 0), FaultInjectedError);
  EXPECT_THROW(injector.chunk_scan(3, 1), FaultInjectedError);
  EXPECT_NO_THROW(injector.chunk_scan(3, 2));  // budget of 2 is exhausted
  EXPECT_NO_THROW(injector.chunk_scan(4, 0));  // untargeted chunk
  EXPECT_EQ(injector.injected(), 2u);
}

TEST(FaultInjectorTest, ChunkSlowFactorsMultiplyAndFaultyCoversBothKinds) {
  const FaultInjector injector(FaultPlan::parse(
      "chunk-slow:chunk=1,factor=2; chunk-slow:chunk=1,factor=3; chunk-throw:chunk=2"));
  EXPECT_DOUBLE_EQ(injector.chunk_slow_factor(1), 6.0);
  EXPECT_DOUBLE_EQ(injector.chunk_slow_factor(2), 1.0);
  EXPECT_TRUE(injector.chunk_faulty(1));
  EXPECT_TRUE(injector.chunk_faulty(2));
  EXPECT_FALSE(injector.chunk_faulty(0));
}

TEST(FaultInjectorTest, WorkerThrowCoversTheAfterTimesWindow) {
  const FaultInjector injector(FaultPlan::parse("worker-throw:after=2,times=2"));
  EXPECT_FALSE(injector.worker_throws());  // call 0
  EXPECT_FALSE(injector.worker_throws());  // call 1
  EXPECT_TRUE(injector.worker_throws());   // call 2
  EXPECT_TRUE(injector.worker_throws());   // call 3
  EXPECT_FALSE(injector.worker_throws());  // call 4: window closed
}

TEST(FaultInjectorTest, MeasureFailAndNoiseAreIndependentlyCounted) {
  const FaultInjector injector(
      FaultPlan::parse("measure-fail:after=1,times=1; measure-noise:repeat=2,factor=10"));
  EXPECT_FALSE(injector.measure_fails());  // attempt 0
  EXPECT_TRUE(injector.measure_fails());   // attempt 1
  EXPECT_FALSE(injector.measure_fails());  // attempt 2
  EXPECT_DOUBLE_EQ(injector.measure_noise(0), 1.0);
  EXPECT_DOUBLE_EQ(injector.measure_noise(2), 10.0);
  EXPECT_EQ(injector.injected(), 2u);  // one fail + one noise spike
}

}  // namespace
}  // namespace hetopt::util
