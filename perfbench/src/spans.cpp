#include "spans.h"

#include <chrono>

namespace perfbench {

SpanLog* SpanLog::active_ = nullptr;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t SpanLog::open(const char* name) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(
      Span{name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(), step_});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Spans close in LIFO order (they are scopes); tolerate a mismatch
  // rather than corrupt the parent chain.
  while (!stack_.empty()) {
    const std::int32_t top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

}  // namespace perfbench
