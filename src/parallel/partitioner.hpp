// Work partitioning: the share split across an ordered fleet of pools (the
// paper's "DNA sequence fraction" parameter, generalized to N pools) and the
// chunk layouts the scans deal out as tickets. Chunks carry no overlap: a
// chunk scan warms up over the bytes before its begin (the PaREM warm-up), so
// matches spanning a cut are still counted exactly once.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace hetopt::parallel {

/// Cuts [0, total) into one contiguous segment per share: segment i is
/// [bounds[i], bounds[i+1]). Every cut is the cumulative share rounded to the
/// nearest item (llround), clamped to stay monotone; the last bound is always
/// `total`, absorbing the rounding. Throws std::invalid_argument when a share
/// is outside [0, 100] or the shares do not sum to 100 (within 1e-6).
[[nodiscard]] std::vector<std::size_t> share_bounds(std::size_t total,
                                                    const std::vector<double>& shares);

/// A contiguous piece of the input, [begin, end). A chunk owns the matches
/// whose *end* offsets lie in (begin, end], which keeps counts exact: each
/// match ends in exactly one chunk of a tiling.
struct Chunk {
  std::size_t begin = 0;  // first byte
  std::size_t end = 0;    // one past the last byte
};

/// Splits [0, total) into `count` chunks (fewer if total < count). Chunks tile
/// the range exactly: chunk[i].end == chunk[i+1].begin.
[[nodiscard]] std::vector<Chunk> make_chunks(std::size_t total, std::size_t count);

/// Guided chunking (the OpenMP `guided` shape) for demand-driven pulls: each
/// chunk takes half of what an even split of the *remaining* bytes across
/// `workers` would give, clamped below at `min_chunk`, so sizes decrease
/// from a coarse head (low queue traffic while everyone is busy) to a fine
/// tail (the last pulls can balance stragglers). Chunks tile [0, total)
/// exactly and sizes are non-increasing.
[[nodiscard]] std::vector<Chunk> make_chunks_guided(std::size_t total, std::size_t workers,
                                                    std::size_t min_chunk);

/// The tail granularity every scheduling layer uses for guided layouts: a
/// quarter of what an even `chunks`-way split would give (at least 1), so a
/// requested chunk count keeps meaning "this fine, or finer at the tail".
/// Kept here so the matcher- and executor-level guided schedules can never
/// silently diverge on the shape.
[[nodiscard]] constexpr std::size_t guided_min_chunk(std::size_t total,
                                                     std::size_t chunks) noexcept {
  const std::size_t quarter = total / (4 * (chunks == 0 ? 1 : chunks));
  return quarter == 0 ? 1 : quarter;
}

}  // namespace hetopt::parallel
