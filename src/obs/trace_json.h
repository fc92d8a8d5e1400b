// Timeline recorder: transaction lifecycle spans and kernel events in
// Chrome trace_event JSON, loadable in Perfetto / chrome://tracing.
//
// Events are recorded into a bounded ring of preallocated slots — no
// allocation on the hot path, no unbounded growth on long runs. When
// the ring wraps, the oldest events are overwritten and a drop counter
// advances, so a truncated trace is detectable rather than silently
// misleading. Timestamps are bus-clock cycle numbers (the simulation's
// native time base); `displayTimeUnit` is nanoseconds so one cycle
// renders as one nanosecond tick in the viewer.
//
// Spans are emitted at completion with their begin cycle looked up from
// the transaction record ('X' complete events), which fits the
// event-driven TL2 bus: phase end cycles are resolved at accept time,
// so a span can be written the moment the retire point is reached even
// when the kernel warped over the intervening cycles.
#ifndef SCT_OBS_TRACE_JSON_H
#define SCT_OBS_TRACE_JSON_H

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace sct::obs {

/// Well-known track ids (`tid` in the trace): one lane per component.
enum class Track : std::uint8_t {
  Kernel = 0,
  Clock = 1,
  Bus = 2,
  AddrPhase = 3,
  DataPhase = 4,
  Master = 5,
};

/// Optional small payload attached to an event; rendered into the
/// trace_event "args" object. Name pointers must be string literals
/// (they are stored, not copied).
struct TraceArg {
  const char* name = nullptr;
  std::uint64_t value = 0;
};

class TraceRecorder {
 public:
  struct Event {
    const char* cat = nullptr;
    const char* name = nullptr;
    std::uint64_t ts = 0;   ///< Begin cycle.
    std::uint64_t dur = 0;  ///< Span length in cycles; unused for instants.
    Track track = Track::Kernel;
    char phase = 'X';  ///< 'X' complete span, 'i' instant.
    TraceArg a0;
    TraceArg a1;
  };

  /// `capacity` is the ring size; the recorder never allocates after
  /// construction.
  explicit TraceRecorder(std::size_t capacity = 1u << 16);

  /// Record a completed span [beginCycle, endCycle]. Category and name
  /// must be string literals.
  void span(const char* cat, const char* name, std::uint64_t beginCycle,
            std::uint64_t endCycle, Track track, TraceArg a0 = {},
            TraceArg a1 = {}) {
    Event& e = push();
    e.cat = cat;
    e.name = name;
    e.ts = beginCycle;
    e.dur = endCycle >= beginCycle ? endCycle - beginCycle : 0;
    e.track = track;
    e.phase = 'X';
    e.a0 = a0;
    e.a1 = a1;
  }

  /// Record a point event (clock warp, park, wake).
  void instant(const char* cat, const char* name, std::uint64_t cycle,
               Track track, TraceArg a0 = {}, TraceArg a1 = {}) {
    Event& e = push();
    e.cat = cat;
    e.name = name;
    e.ts = cycle;
    e.dur = 0;
    e.track = track;
    e.phase = 'i';
    e.a0 = a0;
    e.a1 = a1;
  }

  /// Events currently held (<= capacity).
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return ring_.size(); }
  /// Events overwritten because the ring was full.
  std::uint64_t dropped() const { return dropped_; }

  /// i = 0 is the oldest retained event.
  const Event& event(std::size_t i) const {
    return ring_[(head_ + i) % ring_.size()];
  }

  /// Write the retained events as a Chrome trace_event JSON document.
  void writeJson(std::ostream& os) const;

  void clear() {
    head_ = 0;
    size_ = 0;
    dropped_ = 0;
  }

 private:
  Event& push() {
    const std::size_t cap = ring_.size();
    std::size_t slot;
    if (size_ < cap) {
      slot = (head_ + size_) % cap;
      ++size_;
    } else {
      slot = head_;
      head_ = (head_ + 1) % cap;
      ++dropped_;
    }
    return ring_[slot];
  }

  std::vector<Event> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

} // namespace sct::obs

#endif // SCT_OBS_TRACE_JSON_H
