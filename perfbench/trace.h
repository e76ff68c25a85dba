#ifndef MINTRI_PERFBENCH_TRACE_H_
#define MINTRI_PERFBENCH_TRACE_H_

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span recorder for the traced run. Spans nest by call order
/// (one thread); each records its name, its parent span, the instance it
/// belongs to, and its start and end. Nothing is written until
/// WriteChromeTrace, so recording costs two clock reads and a push.
class Tracer {
 public:
  struct Span {
    const char* name;  // a string literal: "<layer>" or "<layer>.<op>"
    int parent;        // index into spans(), -1 for a root
    int instance;
    double start_us;
    double end_us;
  };

  static constexpr size_t kMaxWrittenSpans = 50000;

  Tracer();

  /// Opens a span under the innermost open one; returns its index.
  int Begin(const char* name, int instance);
  void End(int span);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name in milliseconds: each span's duration minus
  /// the part of it its child spans cover.
  std::map<std::string, double> SelfTimeMs() const;

  /// Writes Chrome trace-event JSON (viewable in chrome://tracing or
  /// Perfetto) with `metadata` as otherData: the probe pass and the first
  /// kMaxWrittenSpans other spans, which keeps a file within about 10 MB.
  /// Returns false on I/O error.
  bool WriteChromeTrace(
      const std::string& path,
      const std::map<std::string, std::string>& metadata) const;

 private:
  double NowUs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int instance)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->Begin(name, instance) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

}  // namespace perfbench

#endif  // MINTRI_PERFBENCH_TRACE_H_
