// In-memory span recorder for the benchmark's traced runs.
//
// A Span brackets one call the benchmark makes into a library layer. The
// span's name starts with the layer ("model.", "core.", "persist.", ...),
// its parent is the span open on the same thread when it began, and
// spans that belong to one wire request share that request's id. Spans
// are kept in memory and written out once, when the run ends; with
// tracing off a Span only tests a flag.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock), the time base of every record.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // wire request id, 0 when not part of a request
};

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  bool enabled() const { return enabled_; }
  /// Set before any worker thread starts; not changed while spans run.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  uint64_t NextId() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++last_id_;
  }

  void Record(const SpanRecord& record) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(record);
  }

  std::vector<SpanRecord> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  bool enabled_ = false;
  std::mutex mu_;
  uint64_t last_id_ = 0;  // guarded by mu_
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span; `name` must be a string literal (records keep the pointer).
class Span {
 public:
  /// `sampled` = false skips this span even in a traced run (the open-loop
  /// client traces every other request, so traced and untraced requests
  /// of one step can be compared).
  explicit Span(const char* name, uint64_t request = 0, bool sampled = true) {
    Tracer& tracer = Tracer::Get();
    if (!sampled || !tracer.enabled()) return;
    active_ = true;
    record_.name = name;
    record_.request = request;
    record_.id = tracer.NextId();
    record_.parent = open_span_;
    open_span_ = record_.id;
    record_.start_ns = NowNs();
  }
  ~Span() {
    if (!active_) return;
    record_.end_ns = NowNs();
    open_span_ = record_.parent;
    Tracer::Get().Record(record_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static inline thread_local uint64_t open_span_ = 0;
  bool active_ = false;
  SpanRecord record_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
