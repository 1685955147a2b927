#include "lint/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace hetopt::lint {

namespace {

// ---------------------------------------------------------------------------
// The layer DAG. A layer may include itself and everything in its entry —
// the exact edge set, not "anything lower": dna may not reach ml even though
// both sit above util, which is what "no cross-layer includes" means.
// Mirrors the diagram in docs/ARCHITECTURE.md ("Analysis gates").
// ---------------------------------------------------------------------------
struct Layer {
  std::string_view name;
  std::vector<std::string_view> allowed;
};

const std::vector<Layer>& layers() {
  static const std::vector<Layer> table = {
      {"util", {}},
      {"parallel", {"util"}},
      {"dna", {"util"}},
      {"ml", {"util"}},
      {"sim", {"util", "parallel"}},
      {"automata", {"util", "parallel", "dna"}},
      {"opt", {"util", "parallel", "automata"}},
      {"core", {"util", "parallel", "dna", "ml", "sim", "automata", "opt"}},
  };
  return table;
}

const Layer* find_layer(std::string_view name) {
  for (const Layer& layer : layers()) {
    if (layer.name == name) return &layer;
  }
  return nullptr;
}

// Scan-kernel translation units for the kernel-throw rule (basenames within
// the automata layer). The SIMD kernel TUs inherit the same discipline: the
// vector loops report invalid input through a flag, never a throw.
constexpr std::array<std::string_view, 4> kKernelFiles = {
    "compiled_dfa.cpp", "bitap.cpp", "simd_scalar.cpp", "simd_avx2.cpp"};

[[nodiscard]] bool is_ident_char(char c) noexcept {
  return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
}

// ---------------------------------------------------------------------------
// Source model: raw text, a stripped copy (comments and string/char literals
// blanked to spaces, newlines kept so offsets and line numbers agree), line
// starts, and the per-line suppression sets.
// ---------------------------------------------------------------------------
struct Source {
  std::string display_path;
  std::string_view raw;
  std::string stripped;
  std::vector<std::size_t> line_starts;          // offset of each line's first char
  std::map<std::size_t, std::set<std::string>> allows;  // line -> suppressed rules

  std::string_view layer;       // "" when no path component names a layer
  std::string_view basename;
  bool is_header = false;
  bool is_kernel_file = false;
  bool in_simd_dir = false;     // under automata/simd/: may use raw intrinsics

  [[nodiscard]] std::size_t line_of(std::size_t offset) const {
    const auto it =
        std::upper_bound(line_starts.begin(), line_starts.end(), offset);
    return static_cast<std::size_t>(it - line_starts.begin());
  }

  [[nodiscard]] bool suppressed(std::size_t line, std::string_view rule) const {
    const auto it = allows.find(line);
    return it != allows.end() && it->second.count(std::string(rule)) > 0;
  }
};

std::string strip(std::string_view raw) {
  std::string out(raw);
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const char c = raw[i];
    const char next = i + 1 < raw.size() ? raw[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;  // keep the quote: a token boundary
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == quote) {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

void parse_allows(Source& source) {
  static constexpr std::string_view kMarker = "hetopt-lint: allow(";
  std::size_t line = 1;
  std::size_t pos = 0;
  while (pos < source.raw.size()) {
    const std::size_t eol = source.raw.find('\n', pos);
    const std::string_view text =
        source.raw.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                             : eol - pos);
    const std::size_t marker = text.find(kMarker);
    if (marker != std::string_view::npos) {
      const std::size_t open = marker + kMarker.size();
      const std::size_t close = text.find(')', open);
      if (close != std::string_view::npos) {
        std::string rules(text.substr(open, close - open));
        std::replace(rules.begin(), rules.end(), ',', ' ');
        std::istringstream split(rules);
        std::string rule;
        while (split >> rule) source.allows[line].insert(rule);
      }
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
    ++line;
  }
}

Source make_source(std::string_view display_path, std::string_view content) {
  Source source;
  source.display_path = std::string(display_path);
  source.raw = content;
  source.stripped = strip(content);
  source.line_starts.push_back(0);
  for (std::size_t i = 0; i < content.size(); ++i) {
    if (content[i] == '\n') source.line_starts.push_back(i + 1);
  }
  parse_allows(source);

  // Split the path; the layer is the component nearest the file that names
  // a known layer, so /tmp/fixture/core/bad.cpp lints exactly like
  // src/core/bad.cpp.
  std::vector<std::string_view> components;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= display_path.size(); ++i) {
    if (i == display_path.size() || display_path[i] == '/' ||
        display_path[i] == '\\') {
      if (i > begin) components.push_back(display_path.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  source.basename = components.empty() ? display_path : components.back();
  for (std::size_t i = components.size(); i-- > 1;) {
    if (find_layer(components[i - 1]) != nullptr) {
      source.layer = components[i - 1];
      break;
    }
  }
  source.is_header = source.basename.size() > 4 &&
                     source.basename.substr(source.basename.size() - 4) == ".hpp";
  source.is_kernel_file =
      source.layer == "automata" &&
      std::find(kKernelFiles.begin(), kKernelFiles.end(), source.basename) !=
          kKernelFiles.end();
  // A *directory* component "simd" inside the automata layer (the basename
  // itself does not count): automata/simd/** is the intrinsics enclave.
  if (source.layer == "automata") {
    for (std::size_t i = 0; i + 1 < components.size(); ++i) {
      if (components[i] == "simd") {
        source.in_simd_dir = true;
        break;
      }
    }
  }
  return source;
}

void report(const Source& source, std::vector<Diagnostic>& out, std::size_t offset,
            std::string_view rule, std::string message) {
  const std::size_t line = source.line_of(offset);
  if (source.suppressed(line, rule)) return;
  out.push_back({source.display_path, line, std::string(rule), std::move(message)});
}

// ---------------------------------------------------------------------------
// Token search helpers over the stripped text.
// ---------------------------------------------------------------------------

/// Offsets of `word` appearing as a whole identifier.
std::vector<std::size_t> find_identifiers(std::string_view text, std::string_view word) {
  std::vector<std::size_t> hits;
  std::size_t pos = text.find(word);
  while (pos != std::string_view::npos) {
    const char prev = pos > 0 ? text[pos - 1] : '\0';
    const std::size_t end = pos + word.size();
    const char next = end < text.size() ? text[end] : '\0';
    if (!is_ident_char(prev) && !is_ident_char(next)) hits.push_back(pos);
    pos = text.find(word, pos + 1);
  }
  return hits;
}

/// True when the next non-space character at/after `pos` is '('; returns its
/// offset through `open`.
bool followed_by_call(std::string_view text, std::size_t pos, std::size_t& open) {
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  if (pos < text.size() && text[pos] == '(') {
    open = pos;
    return true;
  }
  return false;
}

/// Offset one past the parenthesis matching the '(' at `open` (or npos).
std::size_t matching_paren_end(std::string_view text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && --depth == 0) return i + 1;
  }
  return std::string_view::npos;
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

void rule_layer_dag(const Source& source, std::vector<Diagnostic>& out) {
  const Layer* layer = find_layer(source.layer);
  if (layer == nullptr) return;
  const std::string_view text = source.stripped;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::size_t len = eol == std::string_view::npos ? text.size() - pos : eol - pos;
    std::string_view line = text.substr(pos, len);
    const std::size_t hash = line.find_first_not_of(" \t");
    if (hash != std::string_view::npos && line[hash] == '#' &&
        line.find("include", hash) != std::string_view::npos) {
      // The quotes survive stripping but the literal's *contents* are
      // blanked; recover the include path from the raw text at the same
      // offsets (stripped and raw are position-aligned by construction).
      const std::size_t quote = line.find('"');
      const std::size_t close =
          quote == std::string_view::npos ? std::string_view::npos
                                          : line.find('"', quote + 1);
      if (close != std::string_view::npos) {
        const std::string_view target =
            source.raw.substr(pos + quote + 1, close - quote - 1);
        const std::size_t slash = target.find('/');
        if (slash != std::string_view::npos) {
          const std::string_view dir = target.substr(0, slash);
          const bool ok =
              dir == layer->name ||
              std::find(layer->allowed.begin(), layer->allowed.end(), dir) !=
                  layer->allowed.end();
          if (!ok) {
            std::string message = "layer '";
            message.append(layer->name);
            message.append("' must not include \"");
            message.append(target);
            message.append("\" — its layer-DAG reach is {");
            message.append(layer->name);
            for (const std::string_view a : layer->allowed) {
              message.append(", ");
              message.append(a);
            }
            message.append("} (docs/ARCHITECTURE.md: Analysis gates)");
            report(source, out, pos + quote, "layer-dag", std::move(message));
          }
        }
      }
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
}

void rule_nondeterminism(const Source& source, std::vector<Diagnostic>& out) {
  if (source.layer == "util") return;  // the one layer allowed to touch clocks/entropy
  const std::string_view text = source.stripped;
  static constexpr std::string_view kRule = "nondeterminism";
  for (const std::size_t pos : find_identifiers(text, "random_device")) {
    report(source, out, pos, kRule,
           "std::random_device draws real entropy; all randomness flows through "
           "util::rng so seeded runs reproduce bit-exactly");
  }
  for (const std::string_view fn : {std::string_view("rand"), std::string_view("srand")}) {
    for (const std::size_t pos : find_identifiers(text, fn)) {
      std::size_t open = 0;
      if (followed_by_call(text, pos + fn.size(), open)) {
        std::string message(fn);
        message.append("() is global, unseeded state; draw from util::rng instead");
        report(source, out, pos, kRule, std::move(message));
      }
    }
  }
  for (const std::size_t pos : find_identifiers(text, "time")) {
    std::size_t open = 0;
    if (followed_by_call(text, pos + 4, open)) {
      report(source, out, pos, kRule,
             "time() reads the wall clock; timing belongs to util::Timer, seeds to "
             "util::rng");
    }
  }
  for (const std::size_t pos : find_identifiers(text, "system_clock")) {
    report(source, out, pos, kRule,
           "std::chrono::system_clock is settable wall-clock time; util::Timer "
           "(steady_clock, util/ only) is the one clock in the tree");
  }
}

void rule_atomic_order(const Source& source, std::vector<Diagnostic>& out) {
  if (source.layer != "parallel" && source.layer != "core") return;
  static constexpr std::array<std::string_view, 10> kOps = {
      "load",          "store",          "exchange",  "fetch_add",
      "fetch_sub",     "fetch_and",      "fetch_or",  "fetch_xor",
      "compare_exchange_weak", "compare_exchange_strong"};
  const std::string_view text = source.stripped;
  for (const std::string_view op : kOps) {
    for (const std::size_t pos : find_identifiers(text, op)) {
      const bool member_call =
          (pos >= 1 && text[pos - 1] == '.') ||
          (pos >= 2 && text[pos - 2] == '-' && text[pos - 1] == '>');
      if (!member_call) continue;
      std::size_t open = 0;
      if (!followed_by_call(text, pos + op.size(), open)) continue;
      const std::size_t end = matching_paren_end(text, open);
      if (end == std::string_view::npos) continue;
      if (text.substr(open, end - open).find("memory_order") == std::string_view::npos) {
        std::string message = "atomic .";
        message.append(op);
        message.append(
            "() defaults to seq_cst — name the std::memory_order explicitly "
            "and justify it in a comment (model: parallel/chunk_queue.cpp)");
        report(source, out, pos, "atomic-order", std::move(message));
      }
    }
  }
}

void rule_kernel_throw(const Source& source, std::vector<Diagnostic>& out) {
  if (!source.is_kernel_file) return;
  const std::string_view text = source.stripped;
  std::vector<bool> loop_scope;   // one entry per open brace
  std::size_t loop_depth = 0;     // open braces that belong to a loop
  int paren_depth = 0;
  bool pending_loop = false;      // saw for/while, its '{' not reached yet
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (is_ident_char(c)) {
      std::size_t end = i;
      while (end < text.size() && is_ident_char(text[end])) ++end;
      const std::string_view token = text.substr(i, end - i);
      if (token == "for" || token == "while") {
        pending_loop = true;
      } else if (token == "throw" && (pending_loop || loop_depth > 0)) {
        report(source, out, i, "kernel-throw",
               "`throw` inside a scan-kernel loop body; detect the error "
               "branch-free and dispatch to the cold helper after the loop "
               "(model: CompiledDfa::throw_invalid)");
      }
      i = end;
      continue;
    }
    switch (c) {
      case '(': ++paren_depth; break;
      case ')': --paren_depth; break;
      case '{':
        loop_scope.push_back(pending_loop);
        if (pending_loop) ++loop_depth;
        pending_loop = false;
        break;
      case '}':
        if (!loop_scope.empty()) {
          if (loop_scope.back()) --loop_depth;
          loop_scope.pop_back();
        }
        break;
      case ';':
        // Ends a braceless loop body (or a do-while tail); the semicolons
        // inside a `for (...)` header sit at paren_depth > 0.
        if (paren_depth == 0) pending_loop = false;
        break;
      default: break;
    }
    ++i;
  }
}

void rule_raw_intrinsics(const Source& source, std::vector<Diagnostic>& out) {
  if (source.in_simd_dir) return;  // the one directory allowed raw vector code
  static constexpr std::array<std::string_view, 6> kPrefixes = {
      "_mm_", "_mm256_", "_mm512_", "__m128", "__m256", "__m512"};
  const std::string_view text = source.stripped;
  std::size_t i = 0;
  while (i < text.size()) {
    if (!is_ident_char(text[i])) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < text.size() && is_ident_char(text[end])) ++end;
    const std::string_view token = text.substr(i, end - i);
    for (const std::string_view prefix : kPrefixes) {
      if (token.size() >= prefix.size() && token.substr(0, prefix.size()) == prefix) {
        std::string message = "raw vector intrinsic/type '";
        message.append(token);
        message.append(
            "' outside automata/simd/ — all vector code lives behind the "
            "kernel tables in automata/simd/simd_kernels.hpp so scalar builds "
            "stub one directory");
        report(source, out, i, "raw-intrinsics", std::move(message));
        break;
      }
    }
    i = end;
  }
}

void rule_silent_catch(const Source& source, std::vector<Diagnostic>& out) {
  if (source.layer != "parallel" && source.layer != "core") return;
  // A handler counts as non-silent when its body rethrows (`throw`) or calls
  // into the error-recording machinery — identified by an identifier carrying
  // one of these substrings (record_worker_error, mark_failed, retries,
  // current_exception, ...). Comments are stripped before matching, so prose
  // about errors cannot satisfy the rule.
  static constexpr std::array<std::string_view, 6> kHandlingTokens = {
      "record", "report", "fail", "error", "retr", "current_exception"};
  const std::string_view text = source.stripped;
  for (const std::size_t pos : find_identifiers(text, "catch")) {
    std::size_t open = 0;
    if (!followed_by_call(text, pos + 5, open)) continue;
    const std::size_t params_end = matching_paren_end(text, open);
    if (params_end == std::string_view::npos) continue;
    std::size_t brace = params_end;
    while (brace < text.size() &&
           (text[brace] == ' ' || text[brace] == '\t' || text[brace] == '\n')) {
      ++brace;
    }
    if (brace >= text.size() || text[brace] != '{') continue;
    int depth = 0;
    std::size_t body_end = std::string_view::npos;
    for (std::size_t i = brace; i < text.size(); ++i) {
      if (text[i] == '{') ++depth;
      if (text[i] == '}' && --depth == 0) {
        body_end = i;
        break;
      }
    }
    if (body_end == std::string_view::npos) continue;
    const std::string_view body = text.substr(brace + 1, body_end - brace - 1);
    bool handled = false;
    std::size_t i = 0;
    while (i < body.size() && !handled) {
      if (!is_ident_char(body[i])) {
        ++i;
        continue;
      }
      std::size_t end = i;
      while (end < body.size() && is_ident_char(body[end])) ++end;
      const std::string_view token = body.substr(i, end - i);
      if (token == "throw") {
        handled = true;
      } else {
        for (const std::string_view needle : kHandlingTokens) {
          if (token.find(needle) != std::string_view::npos) {
            handled = true;
            break;
          }
        }
      }
      i = end;
    }
    if (!handled) {
      report(source, out, pos, "silent-catch",
             "catch body neither rethrows nor records the error; in parallel/ "
             "and core/ a swallowed exception silently corrupts recovery "
             "telemetry — rethrow, record/report it, or justify with "
             "`// hetopt-lint: allow(silent-catch)` on the catch line");
    }
  }
}

void rule_pragma_once(const Source& source, std::vector<Diagnostic>& out) {
  if (!source.is_header) return;
  if (source.stripped.find("#pragma once") == std::string::npos) {
    report(source, out, 0, "pragma-once",
           "header is missing `#pragma once` (every hetopt header starts with it)");
  }
}

}  // namespace

std::string to_string(const Diagnostic& diagnostic) {
  // append() rather than chained operator+ — GCC 12's -Wrestrict false
  // positive (PR105651) rejects the temporaries chain under -Werror.
  std::string out = diagnostic.file;
  out.append(":");
  out.append(std::to_string(diagnostic.line));
  out.append(": ");
  out.append(diagnostic.rule);
  out.append(": ");
  out.append(diagnostic.message);
  return out;
}

std::vector<Diagnostic> lint_source(std::string_view display_path,
                                    std::string_view content) {
  const Source source = make_source(display_path, content);
  std::vector<Diagnostic> out;
  rule_layer_dag(source, out);
  rule_nondeterminism(source, out);
  rule_atomic_order(source, out);
  rule_kernel_throw(source, out);
  rule_raw_intrinsics(source, out);
  rule_silent_catch(source, out);
  rule_pragma_once(source, out);
  return out;
}

std::vector<Diagnostic> lint_tree(const std::filesystem::path& root) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(root)) {
    throw std::runtime_error("hetopt_lint: not a directory: " + root.string());
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".hpp" || ext == ".cpp") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());

  std::vector<Diagnostic> out;
  for (const fs::path& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("hetopt_lint: cannot read " + path.string());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string content = buffer.str();
    for (Diagnostic& d : lint_source(path.generic_string(), content)) {
      out.push_back(std::move(d));
    }
  }
  return out;
}

}  // namespace hetopt::lint
