#include "automata/match_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "automata/hopcroft.hpp"
#include "automata/regex.hpp"
#include "automata/simd_engine.hpp"
#include "automata/subset.hpp"

namespace hetopt::automata {

// --- DenseDfaEngine ---------------------------------------------------------

DenseDfaEngine::DenseDfaEngine(DenseDfa dfa) : dfa_(std::move(dfa)) {
  if (dfa_.synchronization_bound() == 0) {
    throw std::invalid_argument(
        "DenseDfaEngine: the automaton's synchronization bound is not set; "
        "chunked scans warm up over it");
  }
  kernel_ = CompiledDfa(dfa_);
}

StateId DenseDfaEngine::entry_state(std::string_view text, std::size_t begin) const {
  const std::size_t lead = std::min(dfa_.synchronization_bound() - 1, begin);
  if (lead == 0) return kernel_.start();
  return kernel_.count(text.substr(begin - lead, lead), kernel_.start()).final_state;
}

std::uint64_t DenseDfaEngine::count_chunk(std::string_view text, std::size_t begin,
                                          std::size_t end) const {
  return kernel_.count(text.substr(begin, end - begin), entry_state(text, begin))
      .match_count;
}

std::uint64_t DenseDfaEngine::collect_chunk(std::string_view text, std::size_t begin,
                                            std::size_t end, std::vector<Match>& out) const {
  return kernel_
      .collect(text.substr(begin, end - begin), entry_state(text, begin), begin, out)
      .match_count;
}

// --- Applicability + factory ------------------------------------------------

std::string engine_gap(EngineKind kind, const std::vector<std::string>& motifs) {
  if (motifs.empty()) return "no motifs";
  switch (kind) {
    case EngineKind::kCompiledDfa:
      // The full motif language; syntax errors surface from compile_motifs.
      return "";
    case EngineKind::kBitapSimd: {
      std::string why;
      if (!BitapMatcher::supports(motifs, &why)) return why;
      return "";
    }
  }
  return "unknown engine kind";
}

std::unique_ptr<const MatchEngine> try_lower(EngineKind kind,
                                             const std::vector<std::string>& motifs,
                                             std::string* why) {
  std::string gap = engine_gap(kind, motifs);
  if (!gap.empty()) {
    if (why != nullptr) *why = std::move(gap);
    return nullptr;
  }
  switch (kind) {
    case EngineKind::kCompiledDfa: {
      const CompiledMotifs compiled = compile_motifs(motifs);
      return std::make_unique<DenseDfaEngine>(
          minimize(determinize(compiled.nfa, compiled.synchronization_bound)));
    }
    case EngineKind::kBitapSimd:
      return std::make_unique<BitapSimdEngine>(motifs);
  }
  return nullptr;
}

std::unique_ptr<const MatchEngine> lower(EngineKind kind,
                                         const std::vector<std::string>& motifs) {
  std::string why;
  auto engine = try_lower(kind, motifs, &why);
  if (engine == nullptr) {
    throw std::invalid_argument("lower: engine '" + std::string(to_string(kind)) +
                                "' cannot execute the motif set: " + why);
  }
  return engine;
}

}  // namespace hetopt::automata
