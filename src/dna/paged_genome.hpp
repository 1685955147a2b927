// Out-of-core genome storage: a page-granular corpus abstraction so scans
// can stream sequences larger than RAM (the xgboost external-memory page
// idiom).
//
// A PagedGenome cuts a corpus of `size()` bytes into fixed-size pages and
// serves them from a bounded cache of util::AlignedBuffers:
//
//   - pages are filled on demand from a PageSource (an on-disk raw file or
//     an in-memory buffer);
//   - acquire(page) pins a page and returns a RAII PageRef; pinned pages
//     cannot be evicted, unpinned pages are recycled least recently
//     released first when the resident budget is hit;
//   - when every slot is pinned, acquire() blocks until a pin drops — the
//     backpressure that keeps the scan frontier from outrunning the budget;
//   - every page is stored with up to `halo_bytes` of *preceding* corpus
//     bytes in front of its payload, so a chunk scanner can run the PaREM
//     warm-up protocol (engines read synchronization_bound()-1 bytes before
//     a chunk) without ever touching a neighboring page.
//
// Progress guarantee: callers that hold at most one pin each and release it
// before acquiring the next page can always make progress as long as the
// resident budget is at least the number of concurrent callers (the fleet
// executor validates this and clamps its prefetch rings accordingly).
//
// CacheStats separates the costs an out-of-core scan pays — time spent
// *reading* pages (load_seconds, charged to whoever loads), time a consumer
// spent loading a page it needed now (cold_stall_seconds, once per demand
// load), and time other consumers spent waiting on a load already in flight
// (waiter_stall_seconds) — so the bench can measure how much IO a prefetcher
// actually hides without counting one load once per waiting worker.
//
// Page buffers are recycled: a load reuses the evicted slot's buffer, so a
// steady-state scan allocates nothing after the cache fills.
//
// Pinning a resident page takes no lock. Every slot keeps its pin count and
// the page it serves in one atomic word; a hit is one compare-exchange on it,
// a release one fetch_sub, and only loads, evictions and blocking waits take
// the cache mutex. A fleet scan cuts each page into several tickets, so its
// workers re-pin on almost every ticket and reach each page together; behind
// one mutex those pins queued up on every page.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/aligned_buffer.hpp"
#include "util/annotations.hpp"
#include "util/sync.hpp"

namespace hetopt::dna {

/// Source of corpus bytes for a PagedGenome. Implementations must be
/// thread-safe: the cache calls read() concurrently from pool workers and
/// the prefetch thread.
class PageSource {
 public:
  virtual ~PageSource() = default;

  /// Total corpus bytes.
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;
  /// Fills out[0..n) with corpus bytes [offset, offset + n); the caller
  /// guarantees offset + n <= size().
  virtual void read(std::size_t offset, char* out, std::size_t n) const = 0;
  /// Human-readable provenance ("file:/path", "buffer:4096B").
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// An in-memory corpus behind the paging interface — the oracle source for
/// the page-seam parity suites (the same bytes scanned both ways).
class BufferPageSource final : public PageSource {
 public:
  explicit BufferPageSource(std::string bytes) : bytes_(std::move(bytes)) {}

  [[nodiscard]] std::size_t size() const noexcept override { return bytes_.size(); }
  void read(std::size_t offset, char* out, std::size_t n) const override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::string bytes_;
};

/// A raw on-disk corpus (one byte per base, no records). Reads are served
/// through one seekable stream under a mutex: cold loads serialize on the
/// device anyway, and the single-stream shape keeps the source trivially
/// thread-safe.
class FilePageSource final : public PageSource {
 public:
  /// Opens `path`; throws std::runtime_error when the file cannot be opened.
  explicit FilePageSource(std::string path);

  [[nodiscard]] std::size_t size() const noexcept override { return size_; }
  void read(std::size_t offset, char* out, std::size_t n) const override;
  [[nodiscard]] std::string describe() const override { return "file:" + path_; }

 private:
  std::string path_;
  std::size_t size_ = 0;
  mutable util::Mutex mutex_;
  mutable std::ifstream file_ HETOPT_GUARDED_BY(mutex_);
};

struct PagedGenomeOptions {
  /// Payload bytes per page.
  std::size_t page_bytes = std::size_t{1} << 20;
  /// Cache budget: pages resident at once. Must cover the maximum number of
  /// simultaneous pins (scan workers + prefetch ring) or acquire() blocks.
  std::size_t resident_pages = 8;
  /// Warm-up context stored before each page's payload. Must be at least
  /// the scanning engine's synchronization_bound() - 1 (the paged fleet
  /// scan validates this).
  std::size_t halo_bytes = 63;
};

/// Cache telemetry. Counts are cumulative since construction (or the last
/// reset_stats()); a caller that wants one run's activity resets before it.
struct CacheStats {
  std::uint64_t hits = 0;    // acquires served without waiting
  std::uint64_t loads = 0;   // pages read from the source
  std::uint64_t evictions = 0;
  /// Demand loads: consumer acquires that read the page themselves. At most
  /// one per load. Prefetch acquires never count: prefetching IS the load.
  std::uint64_t cold_stalls = 0;
  /// Consumer acquires that waited for a load another thread had in flight
  /// (a demand load or a prefetch).
  std::uint64_t waiter_stalls = 0;
  /// Acquires that waited for a pin to drop (budget full).
  std::uint64_t backpressure_waits = 0;
  std::uint64_t bytes_read = 0;
  double load_seconds = 0.0;          // time inside PageSource::read
  double cold_stall_seconds = 0.0;    // demand loaders' wall time, acquire to pin
  double waiter_stall_seconds = 0.0;  // summed wall time of the waiter stalls

  /// Fraction of page-load time hidden from the consumers: 1 minus the
  /// demand loads' stall time over all load time, clamped to [0, 1] (1 when
  /// nothing was loaded). Waiter stalls are left out, so N workers blocked
  /// on one load do not count it N times. The io_bound bench's overlap
  /// metric.
  [[nodiscard]] double overlap_efficiency() const noexcept {
    if (load_seconds <= 0.0) return 1.0;
    const double ratio = cold_stall_seconds / load_seconds;
    return ratio >= 1.0 ? 0.0 : 1.0 - ratio;
  }
};

class PagedGenome {
 public:
  /// A pinned page: while any PageRef to a page is alive the page cannot be
  /// evicted and its bytes are stable. Move-only; unpins on destruction.
  class PageRef {
   public:
    PageRef() noexcept = default;
    PageRef(PageRef&& other) noexcept { *this = std::move(other); }
    PageRef& operator=(PageRef&& other) noexcept;
    PageRef(const PageRef&) = delete;
    PageRef& operator=(const PageRef&) = delete;
    ~PageRef() { release(); }

    [[nodiscard]] bool valid() const noexcept { return owner_ != nullptr; }
    [[nodiscard]] std::size_t page() const noexcept { return page_; }
    /// Global offset of the first payload byte.
    [[nodiscard]] std::size_t begin() const noexcept { return begin_; }
    [[nodiscard]] std::size_t end() const noexcept { return begin_ + view_.size() - halo_; }
    /// Context bytes stored before the payload (= corpus bytes
    /// [begin() - halo(), begin())).
    [[nodiscard]] std::size_t halo() const noexcept { return halo_; }
    /// halo + payload, i.e. corpus bytes [begin() - halo(), end()).
    [[nodiscard]] std::string_view view() const noexcept { return view_; }
    [[nodiscard]] std::string_view payload() const noexcept {
      return view_.substr(halo_);
    }

    /// Unpins early (idempotent).
    void release() noexcept;

   private:
    friend class PagedGenome;
    PageRef(PagedGenome* owner, std::size_t slot, std::size_t page, std::size_t begin,
            std::size_t halo, std::string_view view) noexcept
        : owner_(owner), slot_(slot), page_(page), begin_(begin), halo_(halo),
          view_(view) {}

    PagedGenome* owner_ = nullptr;
    std::size_t slot_ = 0;
    std::size_t page_ = 0;
    std::size_t begin_ = 0;
    std::size_t halo_ = 0;
    std::string_view view_;
  };

  /// Takes ownership of `source`. Throws std::invalid_argument on a null
  /// source, zero page_bytes, or zero resident_pages.
  explicit PagedGenome(std::unique_ptr<PageSource> source, PagedGenomeOptions options = {});

  PagedGenome(const PagedGenome&) = delete;
  PagedGenome& operator=(const PagedGenome&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t page_count() const noexcept { return page_count_; }
  [[nodiscard]] const PagedGenomeOptions& options() const noexcept { return options_; }
  [[nodiscard]] std::string describe_source() const { return source_->describe(); }
  [[nodiscard]] std::size_t page_begin(std::size_t page) const noexcept {
    return page * options_.page_bytes;
  }
  [[nodiscard]] std::size_t page_payload_bytes(std::size_t page) const noexcept;

  /// Pins page `page`, loading it if cold; blocks while the budget is
  /// exhausted (every slot pinned or loading). Throws std::out_of_range on
  /// an invalid index; exceptions from the source propagate (the slot is
  /// returned to the free pool).
  [[nodiscard]] PageRef acquire(std::size_t page);
  /// Same, but accounted as prefetch: a load here is the IO the background
  /// reader is hiding, never a cold stall. `cancel` (optional) makes the
  /// blocking waits cooperative: when the flag turns true — pair the store
  /// with wake_waiters() — an acquire that is still waiting gives up and
  /// returns an invalid PageRef instead of a pin. This is how a prefetch
  /// thread stuck behind backpressure shuts down cleanly.
  [[nodiscard]] PageRef acquire_prefetch(std::size_t page,
                                         const std::atomic<bool>* cancel = nullptr);

  /// Wakes every blocked acquire so it re-checks its cancel flag (and the
  /// cache state). Call after storing true into a flag passed to
  /// acquire_prefetch.
  void wake_waiters();

  /// Pages currently resident (racy snapshot).
  [[nodiscard]] std::size_t resident_pages() const;
  [[nodiscard]] CacheStats stats() const;
  void reset_stats();

 private:
  static constexpr std::size_t kNoPage = static_cast<std::size_t>(-1);

  /// The mutex-guarded half of a slot: what loads and evictions manage.
  struct Slot {
    std::size_t page = kNoPage;
    util::AlignedBuffer<char> bytes;  // halo + payload, possibly oversized (recycled)
    bool loading = false;
  };

  /// The lock-free half of a slot: what a pin reads and writes.
  ///
  /// `word` is (tag << kTagShift) | pins, where tag is page + 1 while the
  /// slot serves a loaded page and 0 while it is free or loading. A pin is a
  /// compare-exchange that adds 1 only while the tag names the wanted page;
  /// an eviction is a compare-exchange from (tag, 0 pins) to (0, 1 pin, the
  /// loader's), under the mutex, so a pin and an eviction cannot both win.
  /// The loader writes `view` and `halo` and then publishes the tag with a
  /// release store; a pin's acquire makes them visible, and they stay put
  /// until the pin is dropped. Every pin is a live PageRef, so the count
  /// stays far below 2^kTagShift. One cache line per slot, so pins of
  /// different slots never share a line.
  struct alignas(64) Pin {
    std::atomic<std::uint64_t> word{0};
    /// The cache clock at the last release that dropped the pins to zero —
    /// the eviction order.
    std::atomic<std::uint64_t> last_release{0};
    /// Lock-free hits on this slot since the last reset_stats().
    std::atomic<std::uint64_t> hits{0};
    std::string_view view;  // halo + payload of the page the tag names
    std::size_t halo = 0;
  };
  static constexpr unsigned kTagShift = 24;
  static constexpr std::uint64_t kPinMask = (std::uint64_t{1} << kTagShift) - 1;

  [[nodiscard]] PageRef acquire_impl(std::size_t page, bool prefetch,
                                     const std::atomic<bool>* cancel);
  /// Pins `page` if slot `slot` serves it loaded; an invalid PageRef if not.
  [[nodiscard]] PageRef try_pin(std::size_t slot, std::size_t page) noexcept;
  /// Claims a free slot, or evicts the least recently released unpinned
  /// one, holding the loader's pin; kNoPage when every slot is pinned or
  /// loading.
  [[nodiscard]] std::size_t claim_slot_locked() HETOPT_REQUIRES(mutex_);
  void unpin(std::size_t slot) noexcept;

  std::unique_ptr<PageSource> source_;
  PagedGenomeOptions options_;
  std::size_t size_ = 0;
  std::size_t page_count_ = 0;

  mutable util::Mutex mutex_;
  util::CondVar cv_;  // signaled on load completion and on a freed slot
  std::vector<Slot> slots_ HETOPT_GUARDED_BY(mutex_);
  std::unique_ptr<Pin[]> pins_;  // one per slot; the protocol on Pin
  /// slot_of_[p] = slot holding page p, or kNoPage. Written under the mutex,
  /// read without it by the lock-free pin, which checks the slot's tag. Dense:
  /// page_count_ is bounded by corpus/page_bytes, and one word per page is
  /// noise next to the pages themselves.
  std::unique_ptr<std::atomic<std::size_t>[]> slot_of_;
  /// Ticks once per release that drops a slot's pins to zero.
  std::atomic<std::uint64_t> clock_{0};
  /// Acquires blocked because every slot is pinned. A release that frees a
  /// slot takes the mutex to wake them only while this is nonzero.
  std::atomic<std::size_t> budget_waiters_{0};
  CacheStats stats_ HETOPT_GUARDED_BY(mutex_);
};

}  // namespace hetopt::dna
