#include "opt/config_space.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <set>
#include <vector>

namespace hetopt::opt {
namespace {

TEST(ConfigSpaceTest, PaperSpaceHas19926Points) {
  // 6 host threads x 3 host affinities x 9 device threads x 3 device
  // affinities x 41 fractions = 19 926 (see DESIGN.md).
  const ConfigSpace space = ConfigSpace::paper();
  EXPECT_EQ(space.size(), 19926u);
  EXPECT_EQ(space.host_threads().size(), 6u);
  EXPECT_EQ(space.device_threads().size(), 9u);
  EXPECT_EQ(space.fractions().size(), 41u);
}

TEST(ConfigSpaceTest, AtAndIndexOfAreInverse) {
  const ConfigSpace space = ConfigSpace::tiny();
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_EQ(space.index_of(space.at(i)), i);
  }
}

TEST(ConfigSpaceTest, AtEnumeratesDistinctConfigs) {
  const ConfigSpace space = ConfigSpace::tiny();
  std::set<std::string> seen;
  for (std::size_t i = 0; i < space.size(); ++i) {
    seen.insert(to_string(space.at(i)));
  }
  EXPECT_EQ(seen.size(), space.size());
}

TEST(ConfigSpaceTest, AtOutOfRangeThrows) {
  const ConfigSpace space = ConfigSpace::tiny();
  EXPECT_THROW((void)space.at(space.size()), std::out_of_range);
}

TEST(ConfigSpaceTest, IndexOfRejectsOffAxisValues) {
  const ConfigSpace space = ConfigSpace::tiny();
  SystemConfig c = space.at(0);
  c.host_threads = 999;
  EXPECT_THROW((void)space.index_of(c), std::invalid_argument);
  EXPECT_FALSE(space.contains(c));
  EXPECT_TRUE(space.contains(space.at(3)));
}

TEST(ConfigSpaceTest, RandomStaysInSpace) {
  const ConfigSpace space = ConfigSpace::paper();
  util::Xoshiro256 rng(1);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(space.contains(space.random(rng)));
  }
}

TEST(ConfigSpaceTest, RandomCoversTheSpace) {
  const ConfigSpace space = ConfigSpace::tiny();
  util::Xoshiro256 rng(2);
  std::set<std::size_t> seen;
  for (int i = 0; i < 4000; ++i) {
    seen.insert(space.index_of(space.random(rng)));
  }
  EXPECT_EQ(seen.size(), space.size());  // all 80 points sampled
}

TEST(ConfigSpaceTest, NeighborAlwaysValidAndDifferent) {
  const ConfigSpace space = ConfigSpace::paper();
  util::Xoshiro256 rng(3);
  SystemConfig current = space.random(rng);
  int unchanged = 0;
  for (int i = 0; i < 1000; ++i) {
    const SystemConfig next = space.neighbor(current, rng);
    EXPECT_TRUE(space.contains(next));
    if (next == current) ++unchanged;
    current = next;
  }
  // Affinity axes with 3 values can occasionally propose the same config via
  // a categorical resample, but that must be rare-to-never.
  EXPECT_LE(unchanged, 10);
}

TEST(ConfigSpaceTest, NeighborChangesExactlyOneParameter) {
  const ConfigSpace space = ConfigSpace::paper();
  util::Xoshiro256 rng(4);
  for (int i = 0; i < 500; ++i) {
    const SystemConfig current = space.random(rng);
    const SystemConfig next = space.neighbor(current, rng);
    int changed = 0;
    changed += (next.host_threads != current.host_threads) ? 1 : 0;
    changed += (next.host_affinity != current.host_affinity) ? 1 : 0;
    changed += (next.device_threads != current.device_threads) ? 1 : 0;
    changed += (next.device_affinity != current.device_affinity) ? 1 : 0;
    changed += (next.host_percent != current.host_percent) ? 1 : 0;
    EXPECT_LE(changed, 1);
  }
}

TEST(ConfigSpaceTest, NeighborStepsAreLocalOnOrderedAxes) {
  const ConfigSpace space = ConfigSpace::paper();
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 500; ++i) {
    const SystemConfig current = space.random(rng);
    const SystemConfig next = space.neighbor(current, rng);
    if (next.host_percent != current.host_percent) {
      EXPECT_LE(std::abs(next.host_percent - current.host_percent), 3 * 2.5 + 1e-9);
    }
  }
}

TEST(ConfigSpaceTest, ValidationOfAxes) {
  EXPECT_THROW(ConfigSpace({}, {parallel::HostAffinity::kNone}, {2},
                           {parallel::DeviceAffinity::kBalanced}, {50.0}),
               std::invalid_argument);
  EXPECT_THROW(ConfigSpace({4, 2}, {parallel::HostAffinity::kNone}, {2},
                           {parallel::DeviceAffinity::kBalanced}, {50.0}),
               std::invalid_argument);
  EXPECT_THROW(ConfigSpace({2}, {parallel::HostAffinity::kNone}, {2},
                           {parallel::DeviceAffinity::kBalanced}, {150.0}),
               std::invalid_argument);
  EXPECT_THROW(ConfigSpace({2}, {}, {2}, {parallel::DeviceAffinity::kBalanced}, {50.0}),
               std::invalid_argument);
}

TEST(ConfigSpaceTest, SinglePointSpaceWorks) {
  const ConfigSpace space({4}, {parallel::HostAffinity::kScatter}, {60},
                          {parallel::DeviceAffinity::kBalanced}, {50.0});
  EXPECT_EQ(space.size(), 1u);
  util::Xoshiro256 rng(6);
  const SystemConfig only = space.at(0);
  EXPECT_EQ(space.random(rng), only);
  // Neighbour of the only point stays the only point (threads/fraction axes
  // cannot move, affinity axes have no alternative).
  EXPECT_EQ(space.neighbor(only, rng), only);
}

TEST(ConfigSpaceTest, RealSpaceIsSizedToTheMachine) {
  const ConfigSpace space = ConfigSpace::real(8);
  EXPECT_EQ(space.host_threads(), (std::vector<int>{1, 2, 4, 8}));
  EXPECT_EQ(space.device_threads(), (std::vector<int>{1, 2, 4, 8, 16}));
  EXPECT_EQ(space.host_affinities().size(), 3u);
  EXPECT_EQ(space.device_affinities().size(), 3u);
  EXPECT_EQ(space.fractions(), (std::vector<double>{0.0, 25.0, 50.0, 75.0, 100.0}));
  EXPECT_EQ(space.size(), 4u * 3u * 5u * 3u * 5u);

  // Non-power-of-two machines can still reach "use every hardware thread".
  const ConfigSpace twelve = ConfigSpace::real(12);
  EXPECT_EQ(twelve.host_threads(), (std::vector<int>{1, 2, 4, 8, 12}));
  EXPECT_EQ(twelve.device_threads(), (std::vector<int>{1, 2, 4, 8, 16, 24}));

  // A single-threaded machine still yields a searchable space.
  const ConfigSpace one = ConfigSpace::real(1);
  EXPECT_EQ(one.host_threads(), (std::vector<int>{1}));
  EXPECT_EQ(one.device_threads(), (std::vector<int>{1, 2}));
  EXPECT_GT(one.size(), 1u);

  // 0 = autodetect; the result is a valid non-empty space.
  const ConfigSpace self = ConfigSpace::real();
  EXPECT_GE(self.host_threads().front(), 1);
  EXPECT_GT(self.size(), 0u);
}

TEST(ConfigTest, ToStringIsHumanReadable) {
  SystemConfig c;
  c.host_threads = 24;
  c.host_affinity = parallel::HostAffinity::kScatter;
  c.device_threads = 60;
  c.device_affinity = parallel::DeviceAffinity::kBalanced;
  c.host_percent = 62.5;
  EXPECT_EQ(to_string(c), "host 24t/scatter 62.5% | device 60t/balanced 37.5%");
  // The default engine is implied; a non-default one is appended.
  c.engine = automata::EngineKind::kBitapSimd;
  EXPECT_EQ(to_string(c), "host 24t/scatter 62.5% | device 60t/balanced 37.5% [bitap-simd]");
}

TEST(ConfigSpaceTest, DefaultEngineAxisIsSingleCompiledDfa) {
  const ConfigSpace space = ConfigSpace::tiny();
  ASSERT_EQ(space.engines().size(), 1u);
  EXPECT_EQ(space.engines().front(), automata::EngineKind::kCompiledDfa);
  // Every decoded point carries the default engine.
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_EQ(space.at(i).engine, automata::EngineKind::kCompiledDfa);
  }
}

TEST(ConfigSpaceTest, EngineAxisMultipliesAndRoundTrips) {
  const ConfigSpace base = ConfigSpace::tiny();
  const ConfigSpace wide = base.with_engines(
      {automata::EngineKind::kCompiledDfa, automata::EngineKind::kBitapSimd});
  EXPECT_EQ(wide.size(), 2 * base.size());
  // The engine axis is outermost: the first base.size() indices decode
  // exactly as the engine-less space did.
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(wide.at(i), base.at(i));
  }
  for (std::size_t i = 0; i < wide.size(); ++i) {
    const SystemConfig c = wide.at(i);
    EXPECT_EQ(wide.index_of(c), i);
    EXPECT_EQ(c.engine, i < base.size() ? automata::EngineKind::kCompiledDfa
                                        : automata::EngineKind::kBitapSimd);
  }
  // A config with an off-axis engine is outside the space.
  SystemConfig off = base.at(0);
  off.engine = automata::EngineKind::kBitapSimd;
  EXPECT_FALSE(base.contains(off));
  EXPECT_TRUE(base.contains(base.at(0)));
}

TEST(ConfigSpaceTest, EngineAxisValidation) {
  EXPECT_THROW((void)ConfigSpace::tiny().with_engines({}), std::invalid_argument);
  EXPECT_THROW((void)ConfigSpace::tiny().with_engines(
                   {automata::EngineKind::kBitapSimd, automata::EngineKind::kBitapSimd}),
               std::invalid_argument);
}

TEST(ConfigSpaceTest, DefaultScheduleAxisIsSingleStatic) {
  const ConfigSpace space = ConfigSpace::tiny();
  ASSERT_EQ(space.schedules().size(), 1u);
  EXPECT_EQ(space.schedules().front(), parallel::SchedulePolicy::kStatic);
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_EQ(space.at(i).schedule, parallel::SchedulePolicy::kStatic);
  }
}

TEST(ConfigSpaceTest, ScheduleAxisMultipliesAndRoundTrips) {
  const ConfigSpace base = ConfigSpace::tiny();
  const ConfigSpace wide = base.with_schedules(
      {parallel::SchedulePolicy::kStatic, parallel::SchedulePolicy::kDynamic,
       parallel::SchedulePolicy::kAdaptive});
  EXPECT_EQ(wide.size(), 3 * base.size());
  // The schedule axis is outermost (outside even the engine axis): the
  // first base.size() indices decode exactly as the schedule-less space did.
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(wide.at(i), base.at(i));
  }
  for (std::size_t i = 0; i < wide.size(); ++i) {
    const SystemConfig c = wide.at(i);
    EXPECT_EQ(wide.index_of(c), i);
    EXPECT_EQ(c.schedule, wide.schedules()[i / base.size()]);
  }
  // A config with an off-axis schedule is outside the space.
  SystemConfig off = wide.at(0);
  off.schedule = parallel::SchedulePolicy::kGuided;
  EXPECT_FALSE(wide.contains(off));
}

TEST(ConfigSpaceTest, ScheduleAxisStacksOutsideTheEngineAxis) {
  const ConfigSpace base = ConfigSpace::tiny();
  const ConfigSpace both =
      base.with_engines({automata::EngineKind::kCompiledDfa, automata::EngineKind::kBitapSimd})
          .with_schedules(
              {parallel::SchedulePolicy::kStatic, parallel::SchedulePolicy::kDynamic});
  EXPECT_EQ(both.size(), 4 * base.size());
  // Engine cycles within one schedule block; schedule flips between blocks.
  EXPECT_EQ(both.at(0).schedule, parallel::SchedulePolicy::kStatic);
  EXPECT_EQ(both.at(2 * base.size()).schedule, parallel::SchedulePolicy::kDynamic);
  EXPECT_EQ(both.at(base.size()).engine, automata::EngineKind::kBitapSimd);
  for (std::size_t i = 0; i < both.size(); ++i) {
    EXPECT_EQ(both.index_of(both.at(i)), i);
  }
}

TEST(ConfigSpaceTest, ScheduleAxisValidation) {
  EXPECT_THROW((void)ConfigSpace::tiny().with_schedules({}), std::invalid_argument);
  EXPECT_THROW((void)ConfigSpace::tiny().with_schedules(
                   {parallel::SchedulePolicy::kDynamic,
                    parallel::SchedulePolicy::kDynamic}),
               std::invalid_argument);
}

TEST(ConfigSpaceTest, NeighborMovesAcrossTheScheduleAxis) {
  const ConfigSpace wide = ConfigSpace::tiny().with_schedules(
      {parallel::SchedulePolicy::kStatic, parallel::SchedulePolicy::kDynamic,
       parallel::SchedulePolicy::kGuided, parallel::SchedulePolicy::kAdaptive});
  util::Xoshiro256 rng(123);
  SystemConfig current = wide.at(0);
  bool schedule_moved = false;
  for (int step = 0; step < 400; ++step) {
    const SystemConfig next = wide.neighbor(current, rng);
    EXPECT_TRUE(wide.contains(next));
    if (next.schedule != current.schedule) schedule_moved = true;
    current = next;
  }
  EXPECT_TRUE(schedule_moved);  // the axis is reachable by annealing
}

TEST(ConfigSpaceTest, SingleValueScheduleAxisNeverJoinsTheMove) {
  // With the default schedule axis, every neighbor keeps schedule == static
  // and at most one *other* parameter moves — the engine-era move shape, so
  // seeded engine-axis runs from before the schedule axis reproduce.
  const ConfigSpace wide = ConfigSpace::tiny().with_engines(
      {automata::EngineKind::kCompiledDfa, automata::EngineKind::kBitapSimd});
  util::Xoshiro256 rng(7);
  SystemConfig current = wide.at(5);
  for (int step = 0; step < 300; ++step) {
    const SystemConfig next = wide.neighbor(current, rng);
    EXPECT_EQ(next.schedule, parallel::SchedulePolicy::kStatic);
    int changed = 0;
    changed += (next.host_threads != current.host_threads) ? 1 : 0;
    changed += (next.host_affinity != current.host_affinity) ? 1 : 0;
    changed += (next.device_threads != current.device_threads) ? 1 : 0;
    changed += (next.device_affinity != current.device_affinity) ? 1 : 0;
    changed += (next.host_percent != current.host_percent) ? 1 : 0;
    changed += (next.engine != current.engine) ? 1 : 0;
    EXPECT_LE(changed, 1);
    current = next;
  }
}

TEST(ConfigSpaceTest, DefaultDeviceCountAxisIsTheClassicPair) {
  // Without with_device_counts the space is exactly the paper's host+device
  // pair: a single-value {1} axis that neither multiplies the size nor ever
  // appears in a decoded config as anything but 1.
  const ConfigSpace space = ConfigSpace::tiny();
  ASSERT_EQ(space.device_counts(), (std::vector<int>{1}));
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_EQ(space.at(i).device_count, 1);
  }
}

TEST(ConfigSpaceTest, DeviceCountAxisMultipliesAndRoundTrips) {
  const ConfigSpace base = ConfigSpace::tiny();
  const ConfigSpace wide = base.with_device_counts({1, 2, 4});
  EXPECT_EQ(wide.size(), 3 * base.size());
  // The device-count axis is outermost — outside even the schedule axis —
  // so the first base.size() indices decode exactly as the fleet-less space
  // did: the PR-5 layout is the K=1 block.
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(wide.at(i), base.at(i));
  }
  for (std::size_t i = 0; i < wide.size(); ++i) {
    const SystemConfig c = wide.at(i);
    EXPECT_EQ(wide.index_of(c), i);
    EXPECT_EQ(c.device_count,
              wide.device_counts()[i / base.size()]);
  }
  SystemConfig off = wide.at(0);
  off.device_count = 3;
  EXPECT_FALSE(wide.contains(off));
}

TEST(ConfigSpaceTest, DeviceCountAxisStacksOutsideEveryOtherAxis) {
  const ConfigSpace base = ConfigSpace::tiny();
  const ConfigSpace all =
      base.with_engines({automata::EngineKind::kCompiledDfa, automata::EngineKind::kBitapSimd})
          .with_schedules(
              {parallel::SchedulePolicy::kStatic, parallel::SchedulePolicy::kDynamic})
          .with_device_counts({1, 2});
  EXPECT_EQ(all.size(), 8 * base.size());
  // Engine cycles innermost of the extensions, then schedule, then fleet.
  EXPECT_EQ(all.at(0).device_count, 1);
  EXPECT_EQ(all.at(4 * base.size()).device_count, 2);
  EXPECT_EQ(all.at(4 * base.size()).schedule, parallel::SchedulePolicy::kStatic);
  EXPECT_EQ(all.at(2 * base.size()).schedule, parallel::SchedulePolicy::kDynamic);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all.index_of(all.at(i)), i);
  }
}

TEST(ConfigSpaceTest, DeviceCountAxisValidation) {
  EXPECT_THROW((void)ConfigSpace::tiny().with_device_counts({}), std::invalid_argument);
  EXPECT_THROW((void)ConfigSpace::tiny().with_device_counts({2, 1}),
               std::invalid_argument);  // unsorted
  EXPECT_THROW((void)ConfigSpace::tiny().with_device_counts({1, 1}),
               std::invalid_argument);  // duplicate
  EXPECT_THROW((void)ConfigSpace::tiny().with_device_counts({0, 1}),
               std::invalid_argument);  // no zero-device fleets
}

TEST(ConfigSpaceTest, NeighborMovesAcrossTheDeviceCountAxisLocally) {
  // The fleet-size axis is ordered, not categorical: annealing reaches it,
  // and every move slides at most three axis positions (the same +-1..3
  // window the thread and fraction axes use), never teleporting across a
  // long axis.
  const std::vector<int> counts{1, 2, 3, 4, 5, 6, 7, 8};
  const ConfigSpace wide = ConfigSpace::tiny().with_device_counts(counts);
  const auto index_on_axis = [&](int k) {
    return std::distance(counts.begin(),
                         std::find(counts.begin(), counts.end(), k));
  };
  util::Xoshiro256 rng(321);
  SystemConfig current = wide.at(0);
  bool device_moved = false;
  for (int step = 0; step < 400; ++step) {
    const SystemConfig next = wide.neighbor(current, rng);
    EXPECT_TRUE(wide.contains(next));
    if (next.device_count != current.device_count) {
      device_moved = true;
      EXPECT_LE(std::abs(index_on_axis(next.device_count) -
                         index_on_axis(current.device_count)),
                3)
          << current.device_count << " -> " << next.device_count;
    }
    current = next;
  }
  EXPECT_TRUE(device_moved);
}

TEST(ConfigSpaceTest, SingleValueDeviceAxisDrawsThePreFleetRngStream) {
  // Bit-identity regression for every seeded PR-5-era run: when the
  // device-count axis is left at its {1} default, neighbor() must consume
  // the RNG exactly as the schedule-era space did — same draws, same moves
  // — so Table II preset streams reproduce. Proven by lockstep comparison
  // against a space built without ever touching the fleet axis.
  const ConfigSpace pre = ConfigSpace::tiny().with_engines(
      {automata::EngineKind::kCompiledDfa, automata::EngineKind::kBitapSimd});
  const ConfigSpace post = pre.with_device_counts({1});
  util::Xoshiro256 rng_pre(4242);
  util::Xoshiro256 rng_post(4242);
  SystemConfig a = pre.at(3);
  SystemConfig b = post.at(3);
  for (int step = 0; step < 500; ++step) {
    a = pre.neighbor(a, rng_pre);
    b = post.neighbor(b, rng_post);
    ASSERT_EQ(a, b) << "streams diverged at step " << step;
    EXPECT_EQ(b.device_count, 1);
  }
}

TEST(ConfigSpaceTest, EngineAxisStreamDependsOnLengthNotMembers) {
  // The documented RNG-stream contract: neighbor() draws depend only on
  // each axis's *length*, never on which engines populate it. Reordering the
  // axis must consume the RNG identically and make the same moves (by flat
  // index), so seeded presets stay bit-identical as long as the axis length
  // is unchanged.
  const ConfigSpace pre = ConfigSpace::tiny().with_engines(
      {automata::EngineKind::kCompiledDfa, automata::EngineKind::kBitapSimd});
  const ConfigSpace post = ConfigSpace::tiny().with_engines(
      {automata::EngineKind::kBitapSimd, automata::EngineKind::kCompiledDfa});
  ASSERT_EQ(pre.size(), post.size());
  util::Xoshiro256 rng_pre(4242);
  util::Xoshiro256 rng_post(4242);
  SystemConfig a = pre.at(3);
  SystemConfig b = post.at(3);
  for (int step = 0; step < 500; ++step) {
    a = pre.neighbor(a, rng_pre);
    b = post.neighbor(b, rng_post);
    ASSERT_EQ(pre.index_of(a), post.index_of(b))
        << "streams diverged at step " << step;
  }
}

TEST(ConfigSpaceTest, FullEngineAxisReachesEveryKindAndRoundTrips) {
  // Widening the axis to every kind: the space multiplies by the kind
  // count, decode/index round-trips, and annealing reaches the SIMD kind.
  const ConfigSpace base = ConfigSpace::tiny();
  const ConfigSpace wide = base.with_engines(std::vector<automata::EngineKind>(
      automata::kAllEngineKinds.begin(), automata::kAllEngineKinds.end()));
  EXPECT_EQ(wide.size(), automata::kEngineKindCount * base.size());
  for (std::size_t i = 0; i < wide.size(); ++i) {
    EXPECT_EQ(wide.index_of(wide.at(i)), i);
  }
  util::Xoshiro256 rng(99);
  SystemConfig current = wide.at(0);
  bool saw_simd = false;
  for (int step = 0; step < 600; ++step) {
    current = wide.neighbor(current, rng);
    EXPECT_TRUE(wide.contains(current));
    saw_simd |= current.engine == automata::EngineKind::kBitapSimd;
  }
  EXPECT_TRUE(saw_simd);
}

TEST(ConfigTest, ToStringAppendsOnlyNonDefaultFleetSizes) {
  SystemConfig c;
  c.host_threads = 24;
  c.host_affinity = parallel::HostAffinity::kScatter;
  c.device_threads = 60;
  c.device_affinity = parallel::DeviceAffinity::kBalanced;
  c.host_percent = 62.5;
  // The paper's pair prints exactly the pre-fleet string (seeded logs and
  // JSON diffs must not change)...
  ASSERT_EQ(c.device_count, 1);
  EXPECT_EQ(to_string(c), "host 24t/scatter 62.5% | device 60t/balanced 37.5%");
  // ...while a real fleet announces its size.
  c.device_count = 3;
  EXPECT_EQ(to_string(c), "host 24t/scatter 62.5% | device 60t/balanced 37.5% [3dev]");
}

TEST(ConfigSpaceTest, NeighborMovesAcrossTheEngineAxis) {
  const ConfigSpace wide = ConfigSpace::tiny().with_engines(
      {automata::EngineKind::kCompiledDfa, automata::EngineKind::kBitapSimd});
  util::Xoshiro256 rng(99);
  SystemConfig current = wide.at(0);
  bool engine_moved = false;
  for (int step = 0; step < 400; ++step) {
    const SystemConfig next = wide.neighbor(current, rng);
    EXPECT_TRUE(wide.contains(next));
    if (next.engine != current.engine) engine_moved = true;
    current = next;
  }
  EXPECT_TRUE(engine_moved);  // the axis is actually reachable by annealing
}

}  // namespace
}  // namespace hetopt::opt
