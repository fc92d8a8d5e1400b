// Host-time spans for the traced run, written once at exit as Chrome
// trace_event JSON (opens in Perfetto and chrome://tracing).
//
// Spans are recorded from the benchmark's side of each call into a
// simulator module, so the simulator itself carries no instrumentation.
// (obs::TraceRecorder stamps simulated cycles on fixed component lanes;
// these spans need host time, thread lanes and parent links.) Every span
// has a name, a start and end on the steady clock, the span enclosing it
// on the main thread, and the job or variant id it belongs to. Storage
// is reserved up front; once full, further spans are counted as dropped
// instead of growing without bound.
#ifndef SCT_PERFBENCH_SPANS_H
#define SCT_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline double secondsBetween(SteadyClock::time_point a,
                             SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

  /// Nanoseconds since the log was created.
  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SteadyClock::now() - origin_)
        .count();
  }

  /// Record a finished span under the innermost open Scope.
  void add(const char* name, std::int64_t startNs, std::int64_t endNs,
           std::int64_t job = -1, std::uint32_t tid = 0) {
    push(nextId_++, name, startNs, endNs, job, tid);
  }

  /// RAII span on the main thread; Scopes opened inside it (and spans
  /// added while it is open) become its children. A null log records
  /// nothing.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, std::int64_t job = -1)
        : log_(log), name_(name), job_(job) {
      if (log_ == nullptr) return;
      id_ = log_->nextId_++;
      start_ = log_->now();
      log_->open_.push_back(id_);
    }
    ~Scope() {
      if (log_ == nullptr) return;
      log_->open_.pop_back();
      log_->push(id_, name_, start_, log_->now(), job_, 0);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    const char* name_;
    std::int64_t job_;
    std::uint32_t id_ = 0;
    std::int64_t start_ = 0;
  };

  std::size_t size() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  bool writeChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"host\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%u,\"parent\":%u,\"job\":%lld}}",
                   i ? ",\n" : "", s.name, s.tid,
                   static_cast<double>(s.startNs) / 1e3,
                   static_cast<double>(s.endNs - s.startNs) / 1e3, s.id,
                   s.parent, static_cast<long long>(s.job));
    }
    std::fprintf(f, "\n],\"otherData\":{\"dropped_spans\":%llu}}\n",
                 static_cast<unsigned long long>(dropped_));
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;  ///< String literal.
    std::int64_t startNs;
    std::int64_t endNs;
    std::uint32_t id;      ///< 1-based, in opening order.
    std::uint32_t parent;  ///< 0 = top level.
    std::uint32_t tid;     ///< 0 = main thread, 1.. = serve terminals.
    std::int64_t job;      ///< Job / variant / sample id, -1 if none.
  };

  void push(std::uint32_t id, const char* name, std::int64_t startNs,
            std::int64_t endNs, std::int64_t job, std::uint32_t tid) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{name, startNs, endNs, id,
                          open_.empty() ? 0u : open_.back(), tid, job});
  }

  SteadyClock::time_point origin_ = SteadyClock::now();
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::uint32_t nextId_ = 1;
  std::uint64_t dropped_ = 0;
};

} // namespace perfbench

#endif // SCT_PERFBENCH_SPANS_H
