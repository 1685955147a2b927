// Compiler from a motif expression language to a Thompson NFA.
//
// The language is a regex subset over IUPAC nucleotide classes, sufficient
// for the fixed-length motif searches the paper's DNA application performs
// (PaREM is a "parallel regular expression matching" engine):
//
//   expr    := term ('|' term)*
//   term    := factor*
//   factor  := atom '?'?
//   atom    := IUPAC-char | '(' expr ')'
//
// Examples: "TATAWAW", "GGG(ACG)?TTT", "GC(N|NN)GC", "CCWGG|GGWCC".
//
// There is no '*' or '+': every pattern has a longest match, so every motif
// set has a positive synchronization bound.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "automata/nfa.hpp"

namespace hetopt::automata {

/// Deepest group nesting a motif may use. Real motifs nest a few levels;
/// the cap keeps the recursive-descent parser's stack bounded.
inline constexpr std::size_t kMaxMotifNesting = 256;

/// A set of motif patterns compiled into one NFA that recognizes
/// "Σ* (p_0 | ... | p_{k-1})", with accepting states tagged by pattern index.
/// Scanning the resulting automaton over a text reports, at every position,
/// which patterns end there.
struct CompiledMotifs {
  Nfa nfa;
  /// Longest match of any pattern (at least 1): the synchronization bound
  /// every chunked scan warms up over.
  std::size_t synchronization_bound = 0;
};

/// Compiles the given motif expressions (at most kMaxPatterns). Throws
/// std::invalid_argument with a position-annotated message on syntax errors,
/// on '*' or '+', on nesting deeper than kMaxMotifNesting, and on a pattern
/// that matches the empty string.
[[nodiscard]] CompiledMotifs compile_motifs(const std::vector<std::string>& patterns);

}  // namespace hetopt::automata
