#pragma once

/// \file spans.h
/// In-memory span log for the traced benchmark run. A span is one timed
/// call into a layer: its name (the per-layer table's row), start and end
/// on std::chrono::steady_clock, the span that was open when it began (its
/// parent, so self time = duration minus the children's cover), and the
/// step it belongs to — the number of step records that had reached the
/// runner's observer when it opened, so one step's spans share an id.
///
/// Spans are recorded only while a log is active (SpanLog::activate), so
/// wrappers and shims cost one pointer test when tracing is off.

#include <cstdint>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the log; -1 = top level
  std::uint32_t step = 0;
};

class SpanLog {
 public:
  /// The log spans go to, or nullptr while tracing is off.
  [[nodiscard]] static SpanLog* active() { return active_; }
  static void activate(SpanLog* log) { active_ = log; }

  [[nodiscard]] std::int32_t open(const char* name);
  void close(std::int32_t id);
  void set_step(std::uint32_t step) { step_ = step; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  static SpanLog* active_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint32_t step_ = 0;
};

/// Opens a span on the active log (if any) for the enclosing scope.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : log_(SpanLog::active()), id_(log_ ? log_->open(name) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::int32_t id_;
};

[[nodiscard]] std::int64_t now_ns();

}  // namespace perfbench
