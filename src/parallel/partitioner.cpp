#include "parallel/partitioner.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/thread_pool.hpp"

namespace hetopt::parallel {

std::vector<std::size_t> share_bounds(std::size_t total, const std::vector<double>& shares) {
  double sum = 0.0;
  for (const double s : shares) {
    if (!(s >= 0.0 && s <= 100.0)) {
      throw std::invalid_argument("share_bounds: share out of [0,100]");
    }
    sum += s;
  }
  if (std::abs(sum - 100.0) > 1e-6) {
    throw std::invalid_argument("share_bounds: shares must sum to 100");
  }
  std::vector<std::size_t> bounds(shares.size() + 1, 0);
  double cumulative = 0.0;
  for (std::size_t i = 0; i + 1 < shares.size(); ++i) {
    cumulative += shares[i];
    const auto cut = static_cast<std::size_t>(
        std::llround(static_cast<double>(total) * cumulative / 100.0));
    bounds[i + 1] = std::max(bounds[i], std::min(total, cut));
  }
  bounds.back() = total;
  return bounds;
}

std::vector<Chunk> make_chunks(std::size_t total, std::size_t count) {
  std::vector<Chunk> chunks;
  if (total == 0 || count == 0) return chunks;
  count = std::min(count, total);
  chunks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    chunks.push_back({chunk_begin(total, count, i), chunk_begin(total, count, i + 1)});
  }
  return chunks;
}

std::vector<Chunk> make_chunks_guided(std::size_t total, std::size_t workers,
                                      std::size_t min_chunk) {
  std::vector<Chunk> chunks;
  if (total == 0 || workers == 0) return chunks;
  if (min_chunk == 0) min_chunk = 1;
  std::size_t begin = 0;
  while (begin < total) {
    const std::size_t remaining = total - begin;
    std::size_t len = std::max(min_chunk, (remaining + 2 * workers - 1) / (2 * workers));
    len = std::min(len, remaining);
    chunks.push_back({begin, begin + len});
    begin += len;
  }
  return chunks;
}

}  // namespace hetopt::parallel
