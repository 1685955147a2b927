#include "parallel/partitioner.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hetopt::parallel {
namespace {

TEST(ShareBounds, ExactEndpoints) {
  EXPECT_EQ(share_bounds(1000, {100.0, 0.0}), (std::vector<std::size_t>{0, 1000, 1000}));
  EXPECT_EQ(share_bounds(1000, {0.0, 100.0}), (std::vector<std::size_t>{0, 0, 1000}));
}

TEST(ShareBounds, SegmentsAlwaysTileTheTotal) {
  for (std::size_t total : {0u, 1u, 7u, 999u, 1000000u}) {
    for (double pct = 0.0; pct <= 100.0; pct += 2.5) {
      const auto bounds = share_bounds(total, {pct, 100.0 - pct});
      ASSERT_EQ(bounds.size(), 3u);
      EXPECT_EQ(bounds.front(), 0u);
      EXPECT_LE(bounds[1], total);
      EXPECT_EQ(bounds.back(), total);
    }
  }
}

TEST(ShareBounds, RoundsToNearest) {
  EXPECT_EQ(share_bounds(10, {25.0, 75.0})[1], 3u);   // 2.5 -> 3 (llround)
  EXPECT_EQ(share_bounds(100, {62.5, 37.5})[1], 63u);
}

TEST(ShareBounds, CutsAreCumulativeAcrossManyShares) {
  // Each cut rounds the running share sum, not the single share, so the
  // rounding never accumulates along the fleet.
  EXPECT_EQ(share_bounds(10, {25.0, 25.0, 25.0, 25.0}),
            (std::vector<std::size_t>{0, 3, 5, 8, 10}));
}

TEST(ShareBounds, RejectsOutOfRangeAndUnbalancedShares) {
  EXPECT_THROW((void)share_bounds(10, {-1.0, 101.0}), std::invalid_argument);
  EXPECT_THROW((void)share_bounds(10, {100.5, -0.5}), std::invalid_argument);
  EXPECT_THROW((void)share_bounds(10, {60.0, 30.0, 20.0}), std::invalid_argument);
}

TEST(MakeChunks, TilesExactly) {
  const auto chunks = make_chunks(100, 7);
  ASSERT_EQ(chunks.size(), 7u);
  EXPECT_EQ(chunks.front().begin, 0u);
  EXPECT_EQ(chunks.back().end, 100u);
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i - 1].end, chunks[i].begin);
  }
  // Short chunks (shorter than a long motif's warm-up lead) tile the same way.
  const auto short_chunks = make_chunks(20, 10);
  ASSERT_EQ(short_chunks.size(), 10u);
  for (const auto& c : short_chunks) EXPECT_EQ(c.end - c.begin, 2u);
  for (std::size_t i = 1; i < short_chunks.size(); ++i) {
    EXPECT_EQ(short_chunks[i - 1].end, short_chunks[i].begin);
  }
}

TEST(MakeChunks, MoreChunksThanItemsClamps) {
  const auto chunks = make_chunks(3, 10);
  EXPECT_EQ(chunks.size(), 3u);
}

TEST(MakeChunks, EmptyInputs) {
  EXPECT_TRUE(make_chunks(0, 4).empty());
  EXPECT_TRUE(make_chunks(10, 0).empty());
}

TEST(MakeChunksGuided, TilesExactlyWithNonIncreasingSizes) {
  for (std::size_t total : {1u, 7u, 100u, 4096u, 100003u}) {
    for (std::size_t workers : {1u, 2u, 4u, 16u}) {
      const auto chunks = make_chunks_guided(total, workers, /*min_chunk=*/8);
      ASSERT_FALSE(chunks.empty());
      EXPECT_EQ(chunks.front().begin, 0u);
      EXPECT_EQ(chunks.back().end, total);
      for (std::size_t i = 1; i < chunks.size(); ++i) {
        EXPECT_EQ(chunks[i - 1].end, chunks[i].begin);
        // Guided shape: coarse head, fine tail.
        EXPECT_GE(chunks[i - 1].end - chunks[i - 1].begin,
                  chunks[i].end - chunks[i].begin);
      }
      for (const auto& c : chunks) EXPECT_GT(c.end, c.begin);
    }
  }
}

TEST(MakeChunksGuided, RespectsMinChunkExceptFinalRemainder) {
  const auto chunks = make_chunks_guided(1000, 4, 64);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_GE(chunks[i].end - chunks[i].begin, 64u);
  }
  // The first chunk is the guided head: half an even 4-way split of 1000.
  EXPECT_EQ(chunks.front().end - chunks.front().begin, 125u);
}

TEST(MakeChunksGuided, DegenerateInputs) {
  EXPECT_TRUE(make_chunks_guided(0, 4, 8).empty());
  EXPECT_TRUE(make_chunks_guided(100, 0, 8).empty());
  // min_chunk of 0 behaves as 1 (never an infinite loop of empty chunks).
  const auto tiny = make_chunks_guided(3, 2, 0);
  ASSERT_FALSE(tiny.empty());
  EXPECT_EQ(tiny.back().end, 3u);
  // min_chunk larger than the input: one chunk covering everything.
  const auto one = make_chunks_guided(10, 4, 100);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one.front().begin, 0u);
  EXPECT_EQ(one.front().end, 10u);
}

}  // namespace
}  // namespace hetopt::parallel
