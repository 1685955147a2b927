#include "automata/simd_engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace hetopt::automata {

// --- BitapSimdEngine --------------------------------------------------------

BitapSimdEngine::BitapSimdEngine(const std::vector<std::string>& patterns,
                                 std::optional<util::IsaLevel> isa)
    : matcher_(patterns),
      isa_(simd::resolve_isa(isa)),
      kernel_(&simd::bitap_kernel(isa_)) {}

std::uint64_t BitapSimdEngine::count_chunk(std::string_view text, std::size_t begin,
                                           std::size_t end) const {
  bool bad = false;
  const std::uint64_t count = kernel_->count_range(
      matcher_.tables(), text, begin, end, matcher_.synchronization_bound(), &bad);
  if (bad) {
    // Cold path: replay the scalar matcher over the same warm-up lead and
    // body so the thrown exception names the first invalid byte in scan
    // order with BitapMatcher's message, whatever the ISA.
    std::uint64_t state = 0;
    const std::size_t lead = std::min(matcher_.synchronization_bound() - 1, begin);
    if (lead > 0) (void)matcher_.scan(text.substr(begin - lead, lead), state);
    (void)matcher_.scan(text.substr(begin, end - begin), state);
    throw std::logic_error("bitap-simd: kernel flagged invalid input the scalar "
                           "replay did not reproduce");
  }
  return count;
}

std::uint64_t BitapSimdEngine::collect_chunk(std::string_view text, std::size_t begin,
                                             std::size_t end,
                                             std::vector<Match>& out) const {
  // Collection is event-append-bound, not scan-bound: events must land in
  // one ordered vector anyway, so this path runs the scalar matcher directly
  // over the warm-up lead and the chunk body.
  std::uint64_t state = 0;
  const std::size_t lead = std::min(matcher_.synchronization_bound() - 1, begin);
  if (lead > 0) (void)matcher_.scan(text.substr(begin - lead, lead), state);
  return matcher_.collect(text.substr(begin, end - begin), begin, out, state);
}

}  // namespace hetopt::automata
