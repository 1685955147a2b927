// Unit tests of the out-of-core page cache: LRU eviction under a bounded
// resident budget, pin refcounts blocking eviction, backpressure when every
// slot is pinned, halo layout, per-source byte parity, and the background
// PrefetchReader's ring/backpressure behavior. Everything here must be
// TSan-clean (the `io` ctest label runs under the sanitizer jobs).
#include "dna/paged_genome.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "dna/prefetch_reader.hpp"

namespace hetopt::dna {
namespace {

[[nodiscard]] std::string pattern_text(std::size_t n) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  std::string s(n, 'A');
  for (std::size_t i = 0; i < n; ++i) s[i] = kBases[(i / 3 + i) % 4];
  return s;
}

[[nodiscard]] PagedGenome make_buffer_genome(const std::string& text,
                                             std::size_t page_bytes,
                                             std::size_t resident,
                                             std::size_t halo = 63) {
  PagedGenomeOptions options;
  options.page_bytes = page_bytes;
  options.resident_pages = resident;
  options.halo_bytes = halo;
  return PagedGenome(std::make_unique<BufferPageSource>(text), options);
}

TEST(PagedGenome, RejectsBadConstruction) {
  PagedGenomeOptions zero_page;
  zero_page.page_bytes = 0;
  EXPECT_THROW(PagedGenome(std::make_unique<BufferPageSource>("ACGT"), zero_page),
               std::invalid_argument);
  PagedGenomeOptions zero_budget;
  zero_budget.resident_pages = 0;
  EXPECT_THROW(PagedGenome(std::make_unique<BufferPageSource>("ACGT"), zero_budget),
               std::invalid_argument);
  EXPECT_THROW(PagedGenome(nullptr, PagedGenomeOptions{}), std::invalid_argument);
}

TEST(PagedGenome, PageGeometryAndPayloadParity) {
  const std::string text = pattern_text(1000);
  PagedGenome genome = make_buffer_genome(text, 256, 4);
  EXPECT_EQ(genome.size(), text.size());
  EXPECT_EQ(genome.page_count(), 4u);  // 256+256+256+232
  EXPECT_EQ(genome.page_payload_bytes(3), 232u);

  std::string reassembled;
  for (std::size_t p = 0; p < genome.page_count(); ++p) {
    auto ref = genome.acquire(p);
    EXPECT_EQ(ref.page(), p);
    EXPECT_EQ(ref.begin(), p * 256);
    reassembled.append(ref.payload());
  }
  EXPECT_EQ(reassembled, text);
}

TEST(PagedGenome, HaloCarriesPrecedingBytes) {
  const std::string text = pattern_text(1024);
  PagedGenome genome = make_buffer_genome(text, 256, 4, /*halo=*/16);
  {
    auto ref = genome.acquire(0);
    EXPECT_EQ(ref.halo(), 0u);  // nothing precedes page 0
    EXPECT_EQ(ref.view(), ref.payload());
  }
  {
    auto ref = genome.acquire(2);
    EXPECT_EQ(ref.halo(), 16u);
    // view = 16 halo bytes (the tail of page 1) + the payload.
    EXPECT_EQ(ref.view().substr(0, 16), text.substr(2 * 256 - 16, 16));
    EXPECT_EQ(ref.payload(), text.substr(2 * 256, 256));
  }
}

TEST(PagedGenome, AcquireOutOfRangeThrows) {
  PagedGenome genome = make_buffer_genome(pattern_text(100), 64, 2);
  EXPECT_THROW((void)genome.acquire(genome.page_count()), std::out_of_range);
}

TEST(PagedGenome, LruEvictsLeastRecentlyUsedUnpinnedPage) {
  const std::string text = pattern_text(1024);
  PagedGenome genome = make_buffer_genome(text, 128, 2);  // 8 pages, 2 resident
  (void)genome.acquire(0);  // released immediately
  (void)genome.acquire(1);
  EXPECT_EQ(genome.stats().loads, 2u);
  EXPECT_EQ(genome.stats().evictions, 0u);

  // Touch page 0 so page 1 is the LRU victim; page 2 must evict page 1.
  (void)genome.acquire(0);
  EXPECT_EQ(genome.stats().hits, 1u);
  (void)genome.acquire(2);
  EXPECT_EQ(genome.stats().evictions, 1u);
  // Page 0 stayed resident; page 1 was evicted and reloads.
  (void)genome.acquire(0);
  EXPECT_EQ(genome.stats().hits, 2u);
  (void)genome.acquire(1);
  EXPECT_EQ(genome.stats().loads, 4u);
}

TEST(PagedGenome, PinBlocksEviction) {
  const std::string text = pattern_text(512);
  PagedGenome genome = make_buffer_genome(text, 128, 2);  // 4 pages, 2 resident
  auto pinned = genome.acquire(0);
  (void)genome.acquire(1);
  (void)genome.acquire(2);  // must evict page 1 (page 0 is pinned), not page 0
  (void)genome.acquire(3);  // must evict page 2
  EXPECT_EQ(genome.stats().evictions, 2u);
  // Page 0 never left the cache while pinned.
  const auto again = genome.acquire(0);
  EXPECT_EQ(genome.stats().hits, 1u);
  EXPECT_EQ(again.payload(), text.substr(0, 128));
}

TEST(PagedGenome, BackpressureWaitsUntilAPinDrops) {
  const std::string text = pattern_text(512);
  PagedGenome genome = make_buffer_genome(text, 128, 2);
  auto pin0 = genome.acquire(0);
  auto pin1 = genome.acquire(1);

  // Every slot pinned: a third acquire must block until one pin releases.
  std::atomic<bool> acquired{false};
  std::thread blocked([&] {
    const auto ref = genome.acquire(2);
    acquired.store(true, std::memory_order_release);
    EXPECT_EQ(ref.payload(), text.substr(2 * 128, 128));
  });
  // Give the thread a chance to hit the wait (not a proof, but the stats
  // check below confirms the wait actually happened).
  while (genome.stats().backpressure_waits == 0) std::this_thread::yield();
  EXPECT_FALSE(acquired.load(std::memory_order_acquire));
  pin0.release();
  blocked.join();
  EXPECT_TRUE(acquired.load(std::memory_order_acquire));
  EXPECT_GE(genome.stats().backpressure_waits, 1u);
}

TEST(PagedGenome, ConcurrentPinsNeverSeeAnEvictedPage) {
  // Four threads pin random pages of a 12-page corpus through a 4-slot
  // cache, so lock-free hits race evictions and reloads of the same slots.
  // Every pin must hold its own page's bytes, halo included, until it is
  // released; the random text makes every page's bytes unique.
  std::mt19937_64 rng(5);
  std::string text(12 * 256, 'A');
  for (char& c : text) c = "ACGT"[rng() % 4];
  PagedGenome genome = make_buffer_genome(text, 256, 4, /*halo=*/16);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPins = 3000;
  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 pick(t + 11);
      for (std::size_t i = 0; i < kPins; ++i) {
        const std::size_t page = pick() % genome.page_count();
        const PagedGenome::PageRef ref = genome.acquire(page);
        const std::string_view want = std::string_view(text).substr(
            ref.begin() - ref.halo(), ref.halo() + genome.page_payload_bytes(page));
        if (ref.page() != page || ref.view() != want) wrong.fetch_add(1);
        std::this_thread::yield();  // give an eviction the chance to strike
        if (ref.view() != want) wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0u);
  // Every acquire is exactly one of a hit, a cold stall or a waiter stall.
  const CacheStats stats = genome.stats();
  EXPECT_EQ(stats.hits + stats.cold_stalls + stats.waiter_stalls, kThreads * kPins);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(PagedGenome, PageRefMoveTransfersThePin) {
  PagedGenome genome = make_buffer_genome(pattern_text(512), 128, 2);
  auto a = genome.acquire(0);
  auto b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): moved-from query is the point
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.page(), 0u);
  b.release();
  EXPECT_FALSE(b.valid());
  // The pin is gone: both slots are evictable again.
  (void)genome.acquire(1);
  (void)genome.acquire(2);
  ASSERT_NO_THROW((void)genome.acquire(3));
}

TEST(PagedGenome, FileSourceServesExactBytes) {
  const std::string text = pattern_text(3000);
  const std::string path = ::testing::TempDir() + "hetopt_paged_file_test.raw";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    ASSERT_TRUE(out.good());
  }
  PagedGenomeOptions options;
  options.page_bytes = 512;
  options.resident_pages = 2;
  PagedGenome genome(std::make_unique<FilePageSource>(path), options);
  EXPECT_EQ(genome.size(), text.size());
  std::string reassembled;
  for (std::size_t p = 0; p < genome.page_count(); ++p) {
    reassembled.append(genome.acquire(p).payload());
  }
  EXPECT_EQ(reassembled, text);
  EXPECT_GE(genome.stats().bytes_read, text.size());
  std::remove(path.c_str());
}

TEST(PagedGenome, FileSourceMissingFileThrows) {
  EXPECT_THROW(FilePageSource("/nonexistent/hetopt-no-such-file.raw"),
               std::runtime_error);
}

TEST(PagedGenome, ColdStallsCountConsumerLoadsOnly) {
  PagedGenome genome = make_buffer_genome(pattern_text(1024), 256, 4);
  (void)genome.acquire(0);            // consumer load: a cold stall
  (void)genome.acquire_prefetch(1);   // prefetch load: not a stall
  const CacheStats stats = genome.stats();
  EXPECT_EQ(stats.loads, 2u);
  EXPECT_EQ(stats.cold_stalls, 1u);
  genome.reset_stats();
  EXPECT_EQ(genome.stats().loads, 0u);
}

TEST(PagedGenome, RecycledSlotsServeExactViews) {
  // A corpus over 4x the resident budget, odd page size, short last page and
  // a halo-less page 0: every load after the first three reuses an evicted
  // slot's buffer, so every view must still be byte-exact and exactly
  // halo + payload long — stale bytes past a short page must never show.
  constexpr std::size_t kPage = 1000;
  constexpr std::size_t kHalo = 16;
  const std::string text = pattern_text(4 * 3 * kPage + 517);
  PagedGenome genome = make_buffer_genome(text, kPage, /*resident=*/3, kHalo);
  ASSERT_EQ(genome.page_count(), 13u);
  const auto scan = [&](bool reverse) {
    std::vector<std::string> views(genome.page_count());
    for (std::size_t i = 0; i < genome.page_count(); ++i) {
      const std::size_t p = reverse ? genome.page_count() - 1 - i : i;
      const auto ref = genome.acquire(p);
      const std::size_t halo = p == 0 ? 0 : kHalo;
      const std::size_t payload = genome.page_payload_bytes(p);
      EXPECT_EQ(ref.halo(), halo) << "page " << p;
      EXPECT_EQ(ref.view().size(), halo + payload) << "page " << p;
      EXPECT_EQ(ref.view(), std::string_view(text).substr(p * kPage - halo, halo + payload))
          << "page " << p;
      EXPECT_EQ(ref.end(), p * kPage + payload) << "page " << p;
      views[p] = std::string(ref.view());
    }
    return views;
  };
  const auto first = scan(/*reverse=*/false);
  EXPECT_EQ(first.back().size(), kHalo + 517);
  EXPECT_EQ(scan(/*reverse=*/false), first);
  // Reversed, the short last page and halo-less page 0 land in slots whose
  // buffers last held full pages (and the other way round).
  EXPECT_EQ(scan(/*reverse=*/true), first);
  EXPECT_EQ(genome.stats().loads, 3 * genome.page_count() - 3);  // 3 stay warm across the turn
}

/// A page source whose reads block until opened, so a test can hold a load
/// in flight while other threads pile up behind it.
class GatedSource final : public PageSource {
 public:
  explicit GatedSource(std::string bytes) : inner_(std::move(bytes)) {}
  [[nodiscard]] std::size_t size() const noexcept override { return inner_.size(); }
  void read(std::size_t offset, char* out, std::size_t n) const override {
    reads_.fetch_add(1, std::memory_order_acq_rel);
    while (!open_.load(std::memory_order_acquire)) std::this_thread::yield();
    inner_.read(offset, out, n);
  }
  [[nodiscard]] std::string describe() const override { return "gated"; }
  void open() { open_.store(true, std::memory_order_release); }
  [[nodiscard]] int reads() const { return reads_.load(std::memory_order_acquire); }

 private:
  BufferPageSource inner_;
  mutable std::atomic<int> reads_{0};
  std::atomic<bool> open_{false};
};

TEST(PagedGenome, WaitersOnOneLoadCountOneColdStall) {
  // One demand load, three consumers queued behind it: one cold stall (the
  // loader's), the rest are waiter stalls (or hits, if a thread arrives
  // after the load finished) — never more cold stalls than loads.
  auto source = std::make_unique<GatedSource>(pattern_text(1024));
  GatedSource* gate = source.get();
  PagedGenomeOptions options;
  options.page_bytes = 256;
  options.resident_pages = 4;
  PagedGenome genome(std::move(source), options);
  std::thread loader([&] { EXPECT_EQ(genome.acquire(1).payload().size(), 256u); });
  while (gate->reads() == 0) std::this_thread::yield();
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&] { EXPECT_EQ(genome.acquire(1).payload().size(), 256u); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate->open();
  loader.join();
  for (std::thread& t : waiters) t.join();
  const CacheStats stats = genome.stats();
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_EQ(stats.cold_stalls, 1u);
  EXPECT_EQ(stats.waiter_stalls + stats.hits, 3u);
  EXPECT_GE(stats.waiter_stall_seconds, 0.0);
}

// --- PrefetchReader ----------------------------------------------------------

TEST(PrefetchReader, LoadsAheadOfThePublishedFrontier) {
  const std::string text = pattern_text(2048);
  PagedGenome genome = make_buffer_genome(text, 256, 6);  // 8 pages
  PrefetchReader reader(genome, 0, genome.page_count(), /*depth=*/2);
  // Pages 0..1 load without the consumer asking.
  while (genome.stats().loads < 2) std::this_thread::yield();
  // Publishing page 4 moves the window to [4, 6). The reader chases the
  // frontier: pages 2..3 were passed by the consumer and are skipped, not
  // re-fetched behind it.
  reader.publish(4);
  while (genome.stats().loads < 4) std::this_thread::yield();
  reader.stop();
  EXPECT_EQ(genome.stats().loads, 4u);  // pages 0, 1, 4, 5 only
  const PrefetchStats stats = reader.stats();
  EXPECT_GE(stats.pages_prefetched, 4u);
  // Everything the reader loaded was a prefetch, not a consumer stall.
  EXPECT_EQ(genome.stats().cold_stalls, 0u);
}

TEST(PrefetchReader, RingFullWaitsUntilFrontierMoves) {
  PagedGenome genome = make_buffer_genome(pattern_text(2048), 256, 6);
  PrefetchReader reader(genome, 0, genome.page_count(), /*depth=*/1);
  while (genome.stats().loads < 1) std::this_thread::yield();
  // Depth 1 with frontier 0: the ring is full after page 0 — the reader
  // must wait rather than run ahead.
  while (reader.stats().ring_full_waits == 0) std::this_thread::yield();
  EXPECT_EQ(genome.stats().loads, 1u);
  // Publishing page 3 moves the one-page window to [3, 4): the reader
  // jumps straight there instead of walking 1..2 behind the consumer.
  reader.publish(3);
  while (genome.stats().loads < 2) std::this_thread::yield();
  reader.stop();
  EXPECT_EQ(genome.stats().loads, 2u);  // pages 0 and 3 only
  EXPECT_GE(reader.stats().pages_prefetched, 2u);
}

TEST(PrefetchReader, DepthZeroStartsNoThread) {
  PagedGenome genome = make_buffer_genome(pattern_text(1024), 256, 4);
  PrefetchReader reader(genome, 0, genome.page_count(), /*depth=*/0);
  reader.publish(2);
  reader.stop();
  EXPECT_EQ(genome.stats().loads, 0u);
  EXPECT_EQ(reader.stats().pages_prefetched, 0u);
}

TEST(PrefetchReader, DepthSelfClampsToTheResidentBudget) {
  PagedGenome genome = make_buffer_genome(pattern_text(2048), 256, 3);
  PrefetchReader reader(genome, 0, genome.page_count(), /*depth=*/100);
  EXPECT_EQ(reader.depth(), 2u);  // resident_pages - 1
  reader.stop();
}

TEST(PrefetchReader, StopCancelsAnAcquireBlockedOnBackpressure) {
  // Budget 3, two consumer pins held for the whole test: after prefetching
  // page 0 the reader's acquire of page 1 blocks on backpressure (all three
  // slots pinned). stop() must cancel that wait and join anyway.
  PagedGenome genome = make_buffer_genome(pattern_text(2560), 256, 3);
  auto pin_a = genome.acquire(8);
  auto pin_b = genome.acquire(9);
  PrefetchReader reader(genome, 0, 8, /*depth=*/2);
  while (genome.stats().loads < 3) std::this_thread::yield();
  while (genome.stats().backpressure_waits == 0) std::this_thread::yield();
  reader.stop();  // joins even though the acquire never completed
  EXPECT_GE(reader.stats().pages_prefetched, 1u);
  EXPECT_EQ(genome.stats().loads, 3u);
}

}  // namespace
}  // namespace hetopt::dna
