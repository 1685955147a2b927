#include "dna/paged_genome.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/timer.hpp"

namespace hetopt::dna {

// --- BufferPageSource -------------------------------------------------------

void BufferPageSource::read(std::size_t offset, char* out, std::size_t n) const {
  std::memcpy(out, bytes_.data() + offset, n);
}

std::string BufferPageSource::describe() const {
  return "buffer:" + std::to_string(bytes_.size()) + "B";
}

// --- FilePageSource ---------------------------------------------------------

FilePageSource::FilePageSource(std::string path) : path_(std::move(path)) {
  file_.open(path_, std::ios::binary);
  if (!file_) {
    throw std::runtime_error("FilePageSource: cannot open '" + path_ + "'");
  }
  file_.seekg(0, std::ios::end);
  const auto end = file_.tellg();
  if (end < 0) {
    throw std::runtime_error("FilePageSource: cannot size '" + path_ + "'");
  }
  size_ = static_cast<std::size_t>(end);
}

void FilePageSource::read(std::size_t offset, char* out, std::size_t n) const {
  const util::MutexLock lock(mutex_);
  file_.clear();
  file_.seekg(static_cast<std::streamoff>(offset));
  file_.read(out, static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(file_.gcount()) != n) {
    throw std::runtime_error("FilePageSource: short read from '" + path_ + "'");
  }
}

// --- PagedGenome ------------------------------------------------------------

PagedGenome::PageRef& PagedGenome::PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    release();
    owner_ = std::exchange(other.owner_, nullptr);
    slot_ = other.slot_;
    page_ = other.page_;
    begin_ = other.begin_;
    halo_ = other.halo_;
    view_ = other.view_;
  }
  return *this;
}

void PagedGenome::PageRef::release() noexcept {
  if (owner_ != nullptr) {
    owner_->unpin(slot_);
    owner_ = nullptr;
  }
}

PagedGenome::PagedGenome(std::unique_ptr<PageSource> source, PagedGenomeOptions options)
    : source_(std::move(source)), options_(options) {
  if (source_ == nullptr) throw std::invalid_argument("PagedGenome: null source");
  if (options_.page_bytes == 0) throw std::invalid_argument("PagedGenome: zero page size");
  if (options_.resident_pages == 0) {
    throw std::invalid_argument("PagedGenome: zero resident budget");
  }
  size_ = source_->size();
  page_count_ = (size_ + options_.page_bytes - 1) / options_.page_bytes;
  // A slot's tag, page + 1, must fit above the pin count in the pin word.
  if (page_count_ >= (std::size_t{1} << (64 - kTagShift))) {
    throw std::invalid_argument("PagedGenome: more pages than a pin word can name");
  }
  const std::size_t slots =
      std::min(options_.resident_pages, std::max<std::size_t>(page_count_, 1));
  slots_.resize(slots);
  pins_ = std::make_unique<Pin[]>(slots);
  slot_of_ = std::make_unique<std::atomic<std::size_t>[]>(page_count_);
  for (std::size_t p = 0; p < page_count_; ++p) {
    slot_of_[p].store(kNoPage, std::memory_order_relaxed);
  }
}

std::size_t PagedGenome::page_payload_bytes(std::size_t page) const noexcept {
  const std::size_t begin = page_begin(page);
  return std::min(options_.page_bytes, size_ - begin);
}

PagedGenome::PageRef PagedGenome::acquire(std::size_t page) {
  return acquire_impl(page, /*prefetch=*/false, /*cancel=*/nullptr);
}

PagedGenome::PageRef PagedGenome::acquire_prefetch(std::size_t page,
                                                   const std::atomic<bool>* cancel) {
  return acquire_impl(page, /*prefetch=*/true, cancel);
}

void PagedGenome::wake_waiters() {
  // Empty critical section: orders the caller's flag store before the
  // waiters' re-check, so no wait can miss the wake.
  { const util::MutexLock lock(mutex_); }
  cv_.notify_all();
}

PagedGenome::PageRef PagedGenome::try_pin(std::size_t slot, std::size_t page) noexcept {
  Pin& pin = pins_[slot];
  const std::uint64_t tag = static_cast<std::uint64_t>(page) + 1;
  // Relaxed first look: the compare-exchange re-validates the word.
  std::uint64_t word = pin.word.load(std::memory_order_relaxed);
  while ((word >> kTagShift) == tag) {
    // Acquire on success pairs with the loader's release of the tag, so the
    // view written before it is visible here.
    if (pin.word.compare_exchange_weak(word, word + 1, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      return PageRef(this, slot, page, page_begin(page), pin.halo, pin.view);
    }
  }
  return PageRef();
}

std::size_t PagedGenome::claim_slot_locked() {
  for (;;) {
    std::size_t best = kNoPage;
    std::uint64_t best_word = 0;
    std::uint64_t best_release = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].page == kNoPage) {
        // Free: its tag is 0, so no lock-free pin can race this claim.
        pins_[i].word.store(1, std::memory_order_relaxed);
        return i;
      }
      // seq_cst: a blocked acquire's re-scan must see a release that missed
      // its budget_waiters_ announcement (see unpin).
      const std::uint64_t word = pins_[i].word.load(std::memory_order_seq_cst);
      if ((word & kPinMask) != 0) continue;  // pinned, or loading (the loader's pin)
      const std::uint64_t released = pins_[i].last_release.load(std::memory_order_relaxed);
      if (best == kNoPage || released < best_release) {
        best = i;
        best_word = word;
        best_release = released;
      }
    }
    if (best == kNoPage) return kNoPage;
    // Acquire: the evicted page's last readers released their pins before
    // the reload overwrites the buffer. A lock-free pin that took the victim
    // since the scan fails the exchange; scan again.
    if (pins_[best].word.compare_exchange_strong(best_word, 1, std::memory_order_acq_rel,
                                                 std::memory_order_relaxed)) {
      return best;
    }
  }
}

PagedGenome::PageRef PagedGenome::acquire_impl(std::size_t page, bool prefetch,
                                               const std::atomic<bool>* cancel) {
  if (page >= page_count_) {
    throw std::out_of_range("PagedGenome: page " + std::to_string(page) + " of " +
                            std::to_string(page_count_));
  }
  if (cancel != nullptr && cancel->load(std::memory_order_acquire)) return PageRef();
  // A hit takes no lock. slot_of_ may be stale; try_pin checks the tag.
  if (const std::size_t slot = slot_of_[page].load(std::memory_order_relaxed);
      slot != kNoPage) {
    if (PageRef ref = try_pin(slot, page); ref.valid()) {
      pins_[slot].hits.fetch_add(1, std::memory_order_relaxed);
      return ref;
    }
  }
  const util::Timer waited;
  bool stalled = false;       // waited for a load in flight
  bool backpressured = false;
  for (;;) {
    if (cancel != nullptr && cancel->load(std::memory_order_acquire)) return PageRef();
    std::size_t slot = kNoPage;
    util::AlignedBuffer<char> bytes;  // the claimed slot's buffer, refilled below
    {
      util::MutexLock lock(mutex_);
      if (const std::size_t resident = slot_of_[page].load(std::memory_order_relaxed);
          resident != kNoPage) {
        if (slots_[resident].loading) {
          stalled = true;
          cv_.wait(mutex_);
          continue;
        }
        // Loaded: the tag changes only under the mutex, so the pin wins.
        PageRef ref = try_pin(resident, page);
        // Waiting on another thread's load is a waiter stall, not a cold
        // stall: that load is counted once, by whoever performs it.
        if (stalled && !prefetch) {
          ++stats_.waiter_stalls;
          stats_.waiter_stall_seconds += waited.seconds();
        } else if (!stalled) {
          ++stats_.hits;
        }
        return ref;
      }
      slot = claim_slot_locked();
      if (slot == kNoPage) {
        // Announce the wait, then look once more: a release that dropped
        // its pins before the announcement did not see it (see unpin).
        budget_waiters_.fetch_add(1, std::memory_order_seq_cst);
        slot = claim_slot_locked();
        if (slot == kNoPage) {
          if (!backpressured) {
            ++stats_.backpressure_waits;
            backpressured = true;
          }
          cv_.wait(mutex_);
        }
        budget_waiters_.fetch_sub(1, std::memory_order_relaxed);
        if (slot == kNoPage) continue;
      }
      Slot& s = slots_[slot];
      if (s.page != kNoPage) {
        slot_of_[s.page].store(kNoPage, std::memory_order_relaxed);
        ++stats_.evictions;
      }
      s.page = page;
      s.loading = true;
      slot_of_[page].store(slot, std::memory_order_relaxed);
      // Recycle the evicted page's buffer: the claim left the slot with no
      // pin but the loader's, so no PageRef can still read it.
      bytes = std::move(s.bytes);
    }
    // Load outside the lock: other pages stay acquirable, waiters for this
    // page sleep on cv_ until the loading flag clears.
    const std::size_t begin = page_begin(page);
    const std::size_t halo = std::min(options_.halo_bytes, begin);
    const std::size_t length = halo + page_payload_bytes(page);
    if (bytes.size() < length) {
      bytes = util::AlignedBuffer<char>(options_.halo_bytes + options_.page_bytes);
    }
    const util::Timer load_timer;
    try {
      source_->read(begin - halo, bytes.data(), length);
    } catch (...) {
      // Return the slot to the free pool so waiters re-try (and re-throw
      // from their own load) instead of hanging on a forever-loading page.
      {
        const util::MutexLock lock(mutex_);
        Slot& s = slots_[slot];
        s.bytes = std::move(bytes);
        slot_of_[page].store(kNoPage, std::memory_order_relaxed);
        s.page = kNoPage;
        s.loading = false;
        pins_[slot].word.store(0, std::memory_order_relaxed);
      }
      cv_.notify_all();
      throw;
    }
    const double load_seconds = load_timer.seconds();
    PageRef ref;
    {
      const util::MutexLock lock(mutex_);
      Slot& s = slots_[slot];
      s.bytes = std::move(bytes);
      s.loading = false;
      Pin& pin = pins_[slot];
      pin.view = std::string_view(s.bytes.data(), length);
      pin.halo = halo;
      // Release publishes the view with the tag; the loader keeps its pin.
      pin.word.store(((static_cast<std::uint64_t>(page) + 1) << kTagShift) | 1,
                     std::memory_order_release);
      ++stats_.loads;
      stats_.bytes_read += length;
      stats_.load_seconds += load_seconds;
      if (!prefetch) {
        ++stats_.cold_stalls;
        stats_.cold_stall_seconds += waited.seconds();
      }
      ref = PageRef(this, slot, page, begin, halo, pin.view);
    }
    cv_.notify_all();
    return ref;
  }
}

void PagedGenome::unpin(std::size_t slot) noexcept {
  Pin& pin = pins_[slot];
  // seq_cst, against the blocked acquire's announce-then-rescan: either its
  // re-scan sees this release, or the load below sees its announcement. It
  // is also a release: this pin's reads of the view precede an eviction.
  const std::uint64_t before = pin.word.fetch_sub(1, std::memory_order_seq_cst);
  if ((before & kPinMask) != 1) return;
  pin.last_release.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  if (budget_waiters_.load(std::memory_order_seq_cst) == 0) return;
  // Empty critical section: a waiter that announced itself is either
  // inside cv_.wait or has not yet released the mutex to enter it.
  { const util::MutexLock lock(mutex_); }
  cv_.notify_all();  // budget waiters can now evict this slot
}

std::size_t PagedGenome::resident_pages() const {
  const util::MutexLock lock(mutex_);
  std::size_t n = 0;
  for (const Slot& s : slots_) {
    if (s.page != kNoPage && !s.loading) ++n;
  }
  return n;
}

CacheStats PagedGenome::stats() const {
  const util::MutexLock lock(mutex_);
  CacheStats out = stats_;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    out.hits += pins_[i].hits.load(std::memory_order_relaxed);
  }
  return out;
}

void PagedGenome::reset_stats() {
  const util::MutexLock lock(mutex_);
  stats_ = CacheStats{};
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    pins_[i].hits.store(0, std::memory_order_relaxed);
  }
}

}  // namespace hetopt::dna
