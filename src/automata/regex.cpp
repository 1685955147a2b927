#include "automata/regex.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>

namespace hetopt::automata {

namespace {

/// An NFA fragment under construction: entry state and a single exit state
/// (Thompson construction keeps one of each by inserting epsilons), plus the
/// shortest and longest match it spans.
struct Fragment {
  StateId entry = kInvalidState;
  StateId exit = kInvalidState;
  std::size_t min_len = 0;
  std::size_t max_len = 0;
};

class Parser {
 public:
  Parser(std::string_view pattern, Nfa& nfa) : pattern_(pattern), nfa_(nfa) {}

  Fragment parse() {
    if (pattern_.empty()) fail("empty pattern");
    Fragment f = parse_expr();
    if (pos_ != pattern_.size()) fail("unexpected character");
    return f;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("motif '" + std::string(pattern_) + "': " + what +
                                " at position " + std::to_string(pos_));
  }

  [[nodiscard]] bool eof() const noexcept { return pos_ >= pattern_.size(); }
  [[nodiscard]] char peek() const noexcept { return pattern_[pos_]; }

  Fragment parse_expr() {
    Fragment first = parse_term();
    if (eof() || peek() != '|') return first;
    // Alternation: fresh entry/exit with epsilons to/from each branch.
    Fragment alt{nfa_.add_state(), nfa_.add_state(), first.min_len, first.max_len};
    nfa_.add_epsilon(alt.entry, first.entry);
    nfa_.add_epsilon(first.exit, alt.exit);
    while (!eof() && peek() == '|') {
      ++pos_;
      const Fragment branch = parse_term();
      nfa_.add_epsilon(alt.entry, branch.entry);
      nfa_.add_epsilon(branch.exit, alt.exit);
      alt.min_len = std::min(alt.min_len, branch.min_len);
      alt.max_len = std::max(alt.max_len, branch.max_len);
    }
    return alt;
  }

  Fragment parse_term() {
    // A term may be empty (e.g. "(|A)"): create a pass-through fragment.
    Fragment acc;
    acc.entry = nfa_.add_state();
    acc.exit = acc.entry;
    while (!eof() && peek() != '|' && peek() != ')') {
      const Fragment f = parse_factor();
      nfa_.add_epsilon(acc.exit, f.entry);
      acc.exit = f.exit;
      acc.min_len += f.min_len;
      acc.max_len += f.max_len;
    }
    return acc;
  }

  Fragment parse_factor() {
    Fragment atom = parse_atom();
    if (eof()) return atom;
    if (peek() == '*' || peek() == '+') {
      fail(std::string("unbounded repetition '") + peek() + "' is not supported");
    }
    if (peek() != '?') return atom;
    ++pos_;
    const Fragment opt{nfa_.add_state(), nfa_.add_state(), 0, atom.max_len};
    nfa_.add_epsilon(opt.entry, atom.entry);
    nfa_.add_epsilon(atom.exit, opt.exit);
    nfa_.add_epsilon(opt.entry, opt.exit);
    return opt;
  }

  Fragment parse_atom() {
    if (eof()) fail("expected atom");
    const char c = peek();
    if (c == '(') {
      if (depth_ == kMaxMotifNesting) {
        fail("groups nested deeper than " + std::to_string(kMaxMotifNesting));
      }
      ++pos_;
      ++depth_;
      Fragment inner = parse_expr();
      if (eof() || peek() != ')') fail("missing ')'");
      ++pos_;
      --depth_;
      return inner;
    }
    if (c == ')' || c == '|' || c == '?' || c == '*' || c == '+') {
      fail(std::string("unexpected operator '") + c + "'");
    }
    const auto cls = dna::iupac_from_char(c);
    if (!cls) fail("invalid IUPAC character '" + std::string(1, c) + "'");
    ++pos_;
    const Fragment f{nfa_.add_state(), nfa_.add_state(), 1, 1};
    nfa_.add_transition(f.entry, *cls, f.exit);
    return f;
  }

  std::string_view pattern_;
  Nfa& nfa_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open groups around pos_
};

}  // namespace

CompiledMotifs compile_motifs(const std::vector<std::string>& patterns) {
  if (patterns.empty()) throw std::invalid_argument("compile_motifs: no patterns");
  if (patterns.size() > kMaxPatterns) {
    throw std::invalid_argument("compile_motifs: more than " +
                                std::to_string(kMaxPatterns) + " patterns");
  }
  CompiledMotifs out;
  Nfa& nfa = out.nfa;

  // Σ* prefix: start state loops on every base, then forks into each pattern.
  const StateId start = nfa.add_state();
  nfa.set_start(start);
  nfa.add_transition(start, dna::BaseSet::all(), start);

  for (std::size_t i = 0; i < patterns.size(); ++i) {
    Parser parser(patterns[i], nfa);
    const Fragment frag = parser.parse();
    if (frag.min_len == 0) {
      throw std::invalid_argument("motif '" + patterns[i] +
                                  "': may match the empty string, which is not a "
                                  "meaningful motif");
    }
    nfa.add_epsilon(start, frag.entry);
    nfa.set_accepting(frag.exit, i);
    out.synchronization_bound = std::max(out.synchronization_bound, frag.max_len);
  }
  return out;
}

}  // namespace hetopt::automata
