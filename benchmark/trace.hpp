// Benchmark-side span recorder. Spans are recorded around calls *into* the
// library's public functions from the benchmark's own code; nothing inside
// src/ is instrumented.
//
// A Tracer owns one preallocated span buffer. While it is disabled a Scope
// costs one branch and allocates nothing, so the untraced runs time the same
// code path as the traced ones. When the buffer is full further spans are
// counted as dropped, never allocated.
//
// Each span carries a name, its id, its parent's id (0 for a root), an op id
// (inherited from the parent unless given), start and end times and the
// recording thread. write_chrome_json() exports the spans as Chrome
// trace-event JSON, which Perfetto and chrome://tracing open directly.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace hetopt::bench {

struct Span {
  const char* name = "";  // static storage; spans never own strings
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;  // since the tracer was constructed
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;

  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Completed spans in completion order (children before their parents).
  /// Only call while no Scope is open on another thread.
  [[nodiscard]] std::span<const Span> spans() const noexcept;
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Spans named `name` that belong to op `op`.
  [[nodiscard]] std::vector<const Span*> find(std::string_view name, std::uint64_t op) const;
  /// A span's duration minus the part of it its children cover.
  [[nodiscard]] double self_seconds(const Span& span) const;

  /// Writes every span as a Chrome trace-event "X" event. Throws
  /// std::runtime_error when the file cannot be written.
  void write_chrome_json(const std::string& path) const;

 private:
  friend class Scope;
  [[nodiscard]] std::int64_t now_ns() const noexcept;
  void record(const Span& span) noexcept;

  std::atomic<bool> enabled_{false};
  std::vector<Span> buffer_;
  std::atomic<std::size_t> next_slot_{0};
  std::atomic<std::uint32_t> next_id_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::int64_t epoch_ns_ = 0;
};

/// One span, open for the lifetime of the object. Scopes on one thread nest:
/// a Scope's parent is the innermost Scope still open on its thread.
class Scope {
 public:
  static constexpr std::uint64_t kInheritOp = ~std::uint64_t{0};

  Scope(Tracer& tracer, const char* name, std::uint64_t op = kInheritOp) noexcept;
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_ = nullptr;  // null while tracing is off
  Span span_;
  std::uint32_t saved_parent_ = 0;
  std::uint64_t saved_op_ = 0;
};

}  // namespace hetopt::bench
