// In-memory span log for the traced half of the benchmark.
//
// A span is one timed call into a layer: its name, start and end on the
// steady clock, the span that was open when it began (its parent), and
// the id of the simulated run or serving window it belongs to (its
// trace). Spans stay in memory while the benchmark runs and are written
// out as JSON lines once it ends, so the file I/O never lands inside a
// timed interval.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";       ///< static string: the layer boundary
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;    ///< index into SpanLog::spans(), -1 = root
  std::uint64_t trace = 0;     ///< run/window the span belongs to

  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class SpanLog {
 public:
  /// Opens a span whose parent is the innermost open span.
  std::size_t begin(const char* name);
  /// Closes the innermost open span, which must be `index`.
  void end(std::size_t index);

  /// Every span of the current trace starts a new id from here on.
  void set_trace(std::uint64_t trace) noexcept { trace_ = trace; }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Total seconds of the closed spans named `name`.
  [[nodiscard]] double total_seconds(const char* name) const;
  /// Total seconds of `name` spans minus the time their children cover
  /// (a layer's self time).
  [[nodiscard]] double self_seconds(const char* name) const;
  /// Number of spans named `name`.
  [[nodiscard]] std::size_t count(const char* name) const;

  /// One JSON object per line: name, start_ns, end_ns, parent, trace.
  /// Returns false when the file cannot be written.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::uint64_t trace_ = 0;
};

/// RAII span: begins on construction, ends on destruction. A null log
/// records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->begin(name) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
};

}  // namespace perfbench
