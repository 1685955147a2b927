#include "dna/paged_genome.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"
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

// --- GeneratorPageSource ----------------------------------------------------

GeneratorPageSource::GeneratorPageSource(std::size_t size, std::uint64_t seed,
                                         MarkovParams params,
                                         std::vector<std::string> motifs,
                                         std::size_t copies_per_block)
    : generator_(params), size_(size), seed_(seed), motifs_(std::move(motifs)),
      copies_per_block_(copies_per_block), cached_index_(kNoBlock) {
  for (const std::string& m : motifs_) {
    if (m.empty()) throw std::invalid_argument("GeneratorPageSource: empty motif");
  }
}

std::string GeneratorPageSource::make_block(std::size_t index) const {
  const std::size_t begin = index * kBlockBytes;
  const std::size_t len = std::min(kBlockBytes, size_ - begin);
  std::string block = generator_.generate(len, util::hash_combine(seed_, index));
  if (!motifs_.empty() && copies_per_block_ > 0) {
    util::Xoshiro256 rng(
        util::hash_combine(util::hash_combine(seed_, 0x70616765ULL), index));
    std::vector<std::pair<std::size_t, std::size_t>> used;
    for (const std::string& m : motifs_) {
      if (m.size() > len) continue;
      for (std::size_t c = 0; c < copies_per_block_; ++c) {
        for (std::size_t attempt = 0; attempt < 16; ++attempt) {
          const std::size_t pos = rng.bounded(len - m.size() + 1);
          const bool overlaps =
              std::any_of(used.begin(), used.end(), [&](const auto& r) {
                return pos < r.second && r.first < pos + m.size();
              });
          if (overlaps) continue;
          block.replace(pos, m.size(), m);
          used.emplace_back(pos, pos + m.size());
          break;
        }
      }
    }
  }
  return block;
}

void GeneratorPageSource::read(std::size_t offset, char* out, std::size_t n) const {
  const util::MutexLock lock(mutex_);
  std::size_t done = 0;
  while (done < n) {
    const std::size_t pos = offset + done;
    const std::size_t block_index = pos / kBlockBytes;
    if (cached_index_ != block_index) {
      cached_block_ = make_block(block_index);
      cached_index_ = block_index;
    }
    const std::size_t in_block = pos - block_index * kBlockBytes;
    const std::size_t take = std::min(n - done, cached_block_.size() - in_block);
    std::memcpy(out + done, cached_block_.data() + in_block, take);
    done += take;
  }
}

std::string GeneratorPageSource::describe() const {
  return "generator:seed=" + std::to_string(seed_) + ",bytes=" + std::to_string(size_);
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
  slots_.resize(std::min(options_.resident_pages,
                         std::max<std::size_t>(page_count_, 1)));
  slot_of_.assign(page_count_, kNoPage);
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

std::size_t PagedGenome::pick_slot_locked() {
  std::size_t best = kNoPage;
  std::uint64_t best_tick = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (s.page == kNoPage) return i;
    if (s.pins > 0 || s.loading) continue;
    if (best == kNoPage || s.last_use < best_tick) {
      best = i;
      best_tick = s.last_use;
    }
  }
  return best;
}

PagedGenome::PageRef PagedGenome::acquire_impl(std::size_t page, bool prefetch,
                                               const std::atomic<bool>* cancel) {
  if (page >= page_count_) {
    throw std::out_of_range("PagedGenome: page " + std::to_string(page) + " of " +
                            std::to_string(page_count_));
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
      if (const std::size_t resident = slot_of_[page]; resident != kNoPage) {
        Slot& s = slots_[resident];
        if (s.loading) {
          stalled = true;
          cv_.wait(mutex_);
          continue;
        }
        ++s.pins;
        s.last_use = ++tick_;
        // Waiting on another thread's load is a waiter stall, not a cold
        // stall: that load is counted once, by whoever performs it.
        if (stalled && !prefetch) {
          ++stats_.waiter_stalls;
          stats_.waiter_stall_seconds += waited.seconds();
        } else if (!stalled) {
          ++stats_.hits;
        }
        return PageRef(this, resident, page, page_begin(page), s.halo,
                       std::string_view(s.bytes.data(), s.length));
      }
      slot = pick_slot_locked();
      if (slot == kNoPage) {
        if (!backpressured) {
          ++stats_.backpressure_waits;
          backpressured = true;
        }
        cv_.wait(mutex_);
        continue;
      }
      Slot& s = slots_[slot];
      if (s.page != kNoPage) {
        slot_of_[s.page] = kNoPage;
        ++stats_.evictions;
      }
      s.page = page;
      s.loading = true;
      s.pins = 1;
      s.last_use = ++tick_;
      slot_of_[page] = slot;
      // Recycle the evicted page's buffer: the slot had no pins and was not
      // loading, so no PageRef can still read it.
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
        slot_of_[page] = kNoPage;
        s.page = kNoPage;
        s.loading = false;
        s.pins = 0;
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
      s.length = length;
      s.halo = halo;
      s.loading = false;
      ++stats_.loads;
      stats_.bytes_read += length;
      stats_.load_seconds += load_seconds;
      if (!prefetch) {
        ++stats_.cold_stalls;
        stats_.cold_stall_seconds += waited.seconds();
      }
      ref = PageRef(this, slot, page, begin, halo,
                    std::string_view(s.bytes.data(), s.length));
    }
    cv_.notify_all();
    return ref;
  }
}

void PagedGenome::unpin(std::size_t slot) noexcept {
  bool last = false;
  {
    const util::MutexLock lock(mutex_);
    Slot& s = slots_[slot];
    if (s.pins > 0) --s.pins;
    last = s.pins == 0;
  }
  if (last) cv_.notify_all();  // budget waiters can now evict this slot
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
  return stats_;
}

void PagedGenome::reset_stats() {
  const util::MutexLock lock(mutex_);
  stats_ = CacheStats{};
}

}  // namespace hetopt::dna
