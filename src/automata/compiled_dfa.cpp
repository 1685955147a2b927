#include "automata/compiled_dfa.hpp"

#include <algorithm>
#include <stdexcept>

#include "dna/alphabet.hpp"

namespace hetopt::automata {

namespace {

constexpr std::uint8_t kInvalidCode = 0xFF;
/// Block size for the paired kernel's byte->code translation buffer. Must be
/// even so pair parity is preserved across blocks.
constexpr std::size_t kTranslateBlock = 8192;
/// count() switches from the byte kernel to the paired kernel at this length
/// (below it the translation buffer overhead is not worth it).
constexpr std::size_t kPairedMin = 256;
/// Quads per sub-stream the split path packs at a time: 4 KiB of text per
/// stream, so the packed block of all kMaxStreams streams (8 KiB) and the
/// quad table of a typical automaton share L1.
constexpr std::size_t kQuadBlock = 1024;
/// A quad-table entry's low byte holds the step's accept sum; the rest the
/// premultiplied next state.
constexpr std::uint32_t kQuadCountMask = 0xFF;

/// Advances `K` interleaved scan streams by `steps` bytes. K is a compile-time
/// constant so the inner loop fully unrolls and each stream's state chain
/// lives in its own register — the K dependent-load chains then overlap in
/// the out-of-order window instead of serializing.
template <std::size_t K>
void step_streams(const std::uint32_t* nx, const std::uint32_t* ac,
                  const unsigned char** p, std::uint32_t* s, std::uint64_t* c,
                  std::size_t steps) {
  std::uint32_t st[K];
  std::uint64_t cn[K];
  const unsigned char* pp[K];
  for (std::size_t k = 0; k < K; ++k) {
    st[k] = s[k];
    cn[k] = c[k];
    pp[k] = p[k];
  }
  for (std::size_t i = 0; i < steps; ++i) {
    for (std::size_t k = 0; k < K; ++k) {
      st[k] = nx[(static_cast<std::size_t>(st[k]) << 8) | pp[k][i]];
      cn[k] += ac[st[k]];
    }
  }
  for (std::size_t k = 0; k < K; ++k) {
    s[k] = st[k];
    c[k] = cn[k];
    p[k] += steps;
  }
}

/// Advances `K` interleaved sub-streams by `steps` quads each on the quad
/// table: idx[k] is stream k's premultiplied state (state << 8) and
/// quads[k] its packed block. Returns the streams' summed accept count.
template <std::size_t K>
std::uint64_t step_quads(const std::uint32_t* qn, const std::uint8_t (*quads)[kQuadBlock],
                         std::uint32_t* idx, std::size_t steps) {
  std::uint32_t ix[K];
  std::uint64_t cn[K];
  for (std::size_t k = 0; k < K; ++k) {
    ix[k] = idx[k];
    cn[k] = 0;
  }
  for (std::size_t i = 0; i < steps; ++i) {
    for (std::size_t k = 0; k < K; ++k) {
      const std::uint32_t v = qn[ix[k] | quads[k][i]];
      cn[k] += v & kQuadCountMask;
      ix[k] = v & ~kQuadCountMask;
    }
  }
  std::uint64_t count = 0;
  for (std::size_t k = 0; k < K; ++k) {
    idx[k] = ix[k];
    count += cn[k];
  }
  return count;
}

}  // namespace

CompiledDfa::CompiledDfa(const DenseDfa& dfa) {
  const std::string err = dfa.validate();
  if (!err.empty()) throw std::invalid_argument("CompiledDfa: " + err);

  state_count_ = dfa.state_count();
  start_ = dfa.start();
  sync_bound_ = dfa.synchronization_bound();
  const std::size_t states = static_cast<std::size_t>(state_count_) + 1;  // + sink
  const std::uint32_t sink = state_count_;

  // Byte -> 2-bit code (both cases), everything else invalid.
  std::fill(std::begin(code_), std::end(code_), kInvalidCode);
  for (unsigned b = 0; b < dna::kAlphabetSize; ++b) {
    const char upper = dna::to_char(static_cast<dna::Base>(b));
    code_[static_cast<unsigned char>(upper)] = static_cast<std::uint8_t>(b);
    code_[static_cast<unsigned char>(upper - 'A' + 'a')] = static_cast<std::uint8_t>(b);
  }

  // Accept metadata in flat unchecked arrays; the sink accepts nothing.
  accept_count_.assign(states, 0);
  accept_mask_.assign(states, 0);
  for (StateId s = 0; s < state_count_; ++s) {
    accept_count_[s] = dfa.accept_count(s);
    accept_mask_[s] = dfa.accept_mask(s);
  }

  // Byte table with the decode and the sink fused in. The sink row maps every
  // byte back to the sink, making it absorbing.
  byte_next_.assign(states * 256, sink);
  for (StateId s = 0; s < state_count_; ++s) {
    for (unsigned byte = 0; byte < 256; ++byte) {
      const std::uint8_t code = code_[byte];
      if (code == kInvalidCode) continue;
      byte_next_[(static_cast<std::size_t>(s) << 8) | byte] =
          dfa.step(s, static_cast<dna::Base>(code));
    }
  }

  // Paired table: one step consumes codes (c0, c1); pair_count_ carries the
  // accept counts of both intermediate states so position sums stay exact.
  pair_next_.assign(states * 16, sink);
  pair_count_.assign(states * 16, 0);
  for (StateId s = 0; s < state_count_; ++s) {
    for (unsigned c0 = 0; c0 < dna::kAlphabetSize; ++c0) {
      const StateId mid = dfa.step(s, static_cast<dna::Base>(c0));
      for (unsigned c1 = 0; c1 < dna::kAlphabetSize; ++c1) {
        const StateId end = dfa.step(mid, static_cast<dna::Base>(c1));
        const std::size_t idx = (static_cast<std::size_t>(s) << 4) | (c0 << 2) | c1;
        pair_next_[idx] = end;
        pair_count_[idx] = accept_count_[mid] + accept_count_[end];
      }
    }
  }

  // Quad table, composed from two pair steps (the sink row stays absorbing
  // with no accepts). Only the split path reads it, so an automaton whose
  // bound is not set gets none; nor does one whose premultiplied states
  // overflow 32 bits or whose four-step accept sum overflows the low byte.
  if (sync_bound_ > 0 && states <= (std::size_t{1} << 24)) {
    quad_next_.assign(states * 256, 0);
    std::uint32_t max_sum = 0;
    for (std::size_t s = 0; s < states; ++s) {
      for (std::size_t p0 = 0; p0 < 16; ++p0) {
        const std::uint32_t mid = pair_next_[(s << 4) | p0];
        const std::uint32_t lead_sum = pair_count_[(s << 4) | p0];
        for (std::size_t p1 = 0; p1 < 16; ++p1) {
          const std::size_t pair = (static_cast<std::size_t>(mid) << 4) | p1;
          const std::uint32_t sum = lead_sum + pair_count_[pair];
          max_sum = std::max(max_sum, sum);
          quad_next_[(s << 8) | (p0 << 4) | p1] =
              (pair_next_[pair] << 8) | (sum & kQuadCountMask);
        }
      }
    }
    if (max_sum > kQuadCountMask) quad_next_ = {};
  }
  pack_ = simd::quad_pack(simd::resolve_isa(std::nullopt));
}

void CompiledDfa::check_entry(StateId state) const {
  if (state >= state_count_) throw std::out_of_range("CompiledDfa: bad state");
}

void CompiledDfa::throw_invalid(std::string_view text) const {
  // The cold path every kernel dispatches to once per failing scan — the
  // designated exception to the kernel-throw rule (the hot loops themselves
  // stay throw-free and branch-free on the validity plane).
  for (const char c : text) {
    if (code_[static_cast<unsigned char>(c)] == kInvalidCode) {
      // The seed scanner's exact exception (scan_count_naive / require_base).
      throw std::invalid_argument("scan: invalid base '" +  // hetopt-lint: allow(kernel-throw)
                                  std::string(1, c) + "'");
    }
  }
  throw std::invalid_argument("scan: invalid base");  // unreachable for sink entries
}

std::size_t CompiledDfa::split_streams(std::size_t bytes) const noexcept {
  if (sync_bound_ == 0) return 1;
  const std::size_t min_len = std::max(kSplitMinBytes, 8 * sync_bound_);
  return std::clamp<std::size_t>(bytes / min_len, 1, kMaxStreams);
}

ScanResult CompiledDfa::count(std::string_view text, StateId state) const {
  if (const std::size_t streams = split_streams(text.size()); streams > 1) {
    return count_split(text, state, streams);
  }
  return text.size() >= kPairedMin ? count_paired(text, state)
                                   : count_fused(text, state);
}

ScanResult CompiledDfa::count_split(std::string_view text, StateId state,
                                    std::size_t streams) const {
  check_entry(state);
  const std::size_t lead = sync_bound_ - 1;
  const std::size_t len = text.size() / streams;
  std::string_view views[kMaxStreams];
  StateId entries[kMaxStreams];
  ScanResult res[kMaxStreams];
  // Warm-up pass: sub-stream 0 enters at `state` (empty lead), every later
  // one runs from start() over the lead bytes before its cut. Cuts are at
  // least 8 leads into the text, so the lead never runs off its front.
  entries[0] = state;
  for (std::size_t k = 1; k < streams; ++k) {
    views[k] = text.substr(k * len - lead, lead);
    entries[k] = start_;
  }
  count_multi_batch(views, entries, res, streams);
  // Body pass from the warmed states; the last body takes the remainder.
  // With a quad table, every body's first 4 * (len / 4) bytes step four
  // bases per load, and the byte loop finishes the rest of each body.
  for (std::size_t k = 0; k < streams; ++k) entries[k] = res[k].final_state;
  const std::size_t quads = quad_next_.empty() ? 0 : len / 4;
  // Without a quad table the states need not fit count_quads' 24 bits.
  const std::uint64_t quad_count =
      quads > 0 ? count_quads(text, len, quads, streams, entries) : 0;
  for (std::size_t k = 0; k < streams; ++k) {
    views[k] = text.substr(k * len + 4 * quads,
                           k + 1 < streams ? len - 4 * quads : std::string_view::npos);
  }
  count_multi_batch(views, entries, res, streams);
  ScanResult out{res[streams - 1].final_state, quad_count};
  bool bad = false;
  for (std::size_t k = 0; k < streams; ++k) {
    out.match_count += res[k].match_count;
    bad |= res[k].final_state == sink();
  }
  // The sink is absorbing, so a bad byte anywhere (a body or a lead) leaves
  // some sub-stream in it; report the whole text's first bad byte.
  if (bad) throw_invalid(text);
  return out;
}

std::uint64_t CompiledDfa::count_quads(std::string_view text, std::size_t len,
                                       std::size_t quads, std::size_t streams,
                                       StateId* states) const {
  alignas(64) std::uint8_t packed[kMaxStreams][kQuadBlock];
  std::uint32_t idx[kMaxStreams];
  for (std::size_t k = 0; k < streams; ++k) idx[k] = states[k] << 8;
  const std::uint32_t* const qn = quad_next_.data();
  std::uint64_t count = 0;
  for (std::size_t done = 0; done < quads; done += kQuadBlock) {
    const std::size_t block = std::min(kQuadBlock, quads - done);
    for (std::size_t k = 0; k < streams; ++k) {
      // A flagged block's bad byte need not be the text's first; find that one.
      if (!pack_(text.data() + k * len + 4 * done, block, packed[k])) throw_invalid(text);
    }
    switch (streams) {
      case 2: count += step_quads<2>(qn, packed, idx, block); break;
      case 3: count += step_quads<3>(qn, packed, idx, block); break;
      case 4: count += step_quads<4>(qn, packed, idx, block); break;
      case 5: count += step_quads<5>(qn, packed, idx, block); break;
      case 6: count += step_quads<6>(qn, packed, idx, block); break;
      case 7: count += step_quads<7>(qn, packed, idx, block); break;
      default: count += step_quads<8>(qn, packed, idx, block); break;
    }
  }
  for (std::size_t k = 0; k < streams; ++k) states[k] = idx[k] >> 8;
  return count;
}

ScanResult CompiledDfa::count_fused(std::string_view text, StateId state) const {
  check_entry(state);
  const std::uint32_t* const nx = byte_next_.data();
  const std::uint32_t* const ac = accept_count_.data();
  const auto* const p = reinterpret_cast<const unsigned char*>(text.data());
  std::uint32_t s = state;
  std::uint64_t count = 0;
  const std::size_t n = text.size();
  for (std::size_t i = 0; i < n; ++i) {
    s = nx[(static_cast<std::size_t>(s) << 8) | p[i]];
    count += ac[s];
  }
  if (s == sink()) throw_invalid(text);
  return ScanResult{s, count};
}

ScanResult CompiledDfa::count_paired(std::string_view text, StateId state) const {
  check_entry(state);
  const std::uint32_t* const pn = pair_next_.data();
  const std::uint32_t* const pc = pair_count_.data();
  const auto* const p = reinterpret_cast<const unsigned char*>(text.data());
  const std::size_t n = text.size();
  std::uint32_t s = state;
  std::uint64_t count = 0;
  std::uint8_t codes[kTranslateBlock];
  std::size_t pos = 0;
  while (pos < n) {
    const std::size_t len = std::min(kTranslateBlock, n - pos);
    // Translate and validate the whole block up front (branch-free: invalid
    // codes poison `bad` past the 2-bit range).
    unsigned bad = 0;
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint8_t code = code_[p[pos + i]];
      bad |= code;
      codes[i] = code;
    }
    // Earlier blocks were clean, so the block's first bad byte is the text's.
    if (bad > 3) throw_invalid(text.substr(pos));
    const std::size_t pairs = len / 2;
    for (std::size_t i = 0; i < pairs; ++i) {
      const std::size_t idx = (static_cast<std::size_t>(s) << 4) |
                              (static_cast<std::size_t>(codes[2 * i]) << 2) |
                              codes[2 * i + 1];
      count += pc[idx];
      s = pn[idx];
    }
    if (len & 1) {  // odd tail — only possible in the final block
      s = byte_next_[(static_cast<std::size_t>(s) << 8) | p[pos + len - 1]];
      count += accept_count_[s];
    }
    pos += len;
  }
  return ScanResult{s, count};
}

void CompiledDfa::count_multi_batch(const std::string_view* texts,
                                    const StateId* entries, ScanResult* results,
                                    std::size_t n) const noexcept {
  const std::uint32_t* const nx = byte_next_.data();
  const std::uint32_t* const ac = accept_count_.data();
  const unsigned char* p[kMaxStreams];
  const unsigned char* e[kMaxStreams];
  std::uint32_t s[kMaxStreams];
  std::uint64_t c[kMaxStreams];
  std::size_t which[kMaxStreams];
  for (std::size_t k = 0; k < n; ++k) {
    p[k] = reinterpret_cast<const unsigned char*>(texts[k].data());
    e[k] = p[k] + texts[k].size();
    s[k] = entries[k];
    c[k] = 0;
    which[k] = k;
  }
  std::size_t active = n;
  while (active > 0) {
    // Retire finished streams and compact the arrays so the interleave loop
    // only touches live ones.
    std::size_t live = 0;
    for (std::size_t k = 0; k < active; ++k) {
      if (p[k] == e[k]) {
        results[which[k]] = ScanResult{s[k], c[k]};
      } else {
        p[live] = p[k];
        e[live] = e[k];
        s[live] = s[k];
        c[live] = c[k];
        which[live] = which[k];
        ++live;
      }
    }
    active = live;
    if (active == 0) break;
    std::size_t steps = static_cast<std::size_t>(-1);
    for (std::size_t k = 0; k < active; ++k) {
      steps = std::min(steps, static_cast<std::size_t>(e[k] - p[k]));
    }
    switch (active) {
      case 1: step_streams<1>(nx, ac, p, s, c, steps); break;
      case 2: step_streams<2>(nx, ac, p, s, c, steps); break;
      case 3: step_streams<3>(nx, ac, p, s, c, steps); break;
      case 4: step_streams<4>(nx, ac, p, s, c, steps); break;
      case 5: step_streams<5>(nx, ac, p, s, c, steps); break;
      case 6: step_streams<6>(nx, ac, p, s, c, steps); break;
      case 7: step_streams<7>(nx, ac, p, s, c, steps); break;
      default: step_streams<8>(nx, ac, p, s, c, steps); break;
    }
  }
}

ScanResult CompiledDfa::collect(std::string_view text, StateId state,
                                std::size_t base_offset, std::vector<Match>& out) const {
  check_entry(state);
  const std::uint32_t* const nx = byte_next_.data();
  const std::uint32_t* const ac = accept_count_.data();
  const std::uint64_t* const am = accept_mask_.data();
  const auto* const p = reinterpret_cast<const unsigned char*>(text.data());
  std::uint32_t s = state;
  std::uint64_t count = 0;
  const std::size_t n = text.size();
  for (std::size_t i = 0; i < n; ++i) {
    s = nx[(static_cast<std::size_t>(s) << 8) | p[i]];
    const std::uint32_t hits = ac[s];
    if (hits != 0) {
      count += hits;
      out.push_back(Match{base_offset + i + 1, am[s]});
    }
  }
  // The sink accepts nothing, so on invalid input `out` holds exactly the
  // matches the seed scanner appended before its throw.
  if (s == sink()) throw_invalid(text);
  return ScanResult{s, count};
}

}  // namespace hetopt::automata
