#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

#include "util/json.hpp"

namespace hetopt::bench {

namespace {

[[nodiscard]] std::int64_t steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The innermost open span and its op on this thread.
thread_local std::uint32_t t_parent = 0;
thread_local std::uint64_t t_op = 0;

[[nodiscard]] std::uint32_t thread_number() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t number = next.fetch_add(1, std::memory_order_relaxed);
  return number;
}

}  // namespace

Tracer::Tracer(std::size_t capacity) : buffer_(capacity), epoch_ns_(steady_ns()) {}

std::int64_t Tracer::now_ns() const noexcept { return steady_ns() - epoch_ns_; }

void Tracer::record(const Span& span) noexcept {
  const std::size_t slot = next_slot_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= buffer_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer_[slot] = span;
}

std::span<const Span> Tracer::spans() const noexcept {
  const std::size_t n = std::min(next_slot_.load(std::memory_order_acquire), buffer_.size());
  return {buffer_.data(), n};
}

std::vector<const Span*> Tracer::find(std::string_view name, std::uint64_t op) const {
  std::vector<const Span*> out;
  for (const Span& s : spans()) {
    if (s.op == op && name == s.name) out.push_back(&s);
  }
  std::sort(out.begin(), out.end(),
            [](const Span* a, const Span* b) { return a->start_ns < b->start_ns; });
  return out;
}

double Tracer::self_seconds(const Span& span) const {
  std::vector<std::pair<std::int64_t, std::int64_t>> children;
  for (const Span& s : spans()) {
    if (s.parent == span.id) {
      children.emplace_back(std::max(s.start_ns, span.start_ns),
                            std::min(s.end_ns, span.end_ns));
    }
  }
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t reach = span.start_ns;
  for (const auto& [begin, end] : children) {
    const std::int64_t from = std::max(begin, reach);
    if (end > from) covered += end - from;
    reach = std::max(reach, end);
  }
  return static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-9;
}

void Tracer::write_chrome_json(const std::string& path) const {
  util::JsonWriter json;
  json.begin_object().member("displayTimeUnit", "ms").key("traceEvents").begin_array();
  for (const Span& s : spans()) {
    json.begin_object()
        .member("name", s.name)
        .member("ph", "X")
        .member("pid", 1)
        .member("tid", s.thread)
        .member("ts", static_cast<double>(s.start_ns) * 1e-3)
        .member("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        .key("args")
        .begin_object()
        .member("id", s.id)
        .member("parent", s.parent)
        .member("op", s.op)
        .end_object()
        .end_object();
  }
  json.end_array()
      .key("otherData")
      .begin_object()
      .member("dropped_spans", dropped())
      .end_object()
      .end_object();
  std::ofstream out(path, std::ios::trunc);
  out << json.str() << '\n';
  if (!out) throw std::runtime_error("trace: cannot write " + path);
}

Scope::Scope(Tracer& tracer, const char* name, std::uint64_t op) noexcept {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  span_.name = name;
  span_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  span_.parent = t_parent;
  span_.op = op == kInheritOp ? t_op : op;
  span_.thread = thread_number();
  saved_parent_ = t_parent;
  saved_op_ = t_op;
  t_parent = span_.id;
  t_op = span_.op;
  span_.start_ns = tracer.now_ns();
}

Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->now_ns();
  t_parent = saved_parent_;
  t_op = saved_op_;
  tracer_->record(span_);
}

}  // namespace hetopt::bench
