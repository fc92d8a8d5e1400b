#include "obs/trace_json.h"

#include <ostream>

namespace sct::obs {

namespace {

void writeArgs(std::ostream& os, const TraceArg& a0, const TraceArg& a1) {
  if (a0.name == nullptr && a1.name == nullptr) return;
  os << ",\"args\":{";
  bool first = true;
  for (const TraceArg* a : {&a0, &a1}) {
    if (a->name == nullptr) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << a->name << "\":" << a->value;
  }
  os << '}';
}

} // namespace

TraceRecorder::TraceRecorder(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void TraceRecorder::writeJson(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ns\",\"droppedEvents\":" << dropped_
     << ",\"traceEvents\":[";
  for (std::size_t i = 0; i < size_; ++i) {
    const Event& e = event(i);
    if (i != 0) os << ',';
    os << "{\"name\":\"" << e.name << "\",\"cat\":\"" << e.cat
       << "\",\"ph\":\"" << e.phase << "\",\"ts\":" << e.ts;
    if (e.phase == 'X') os << ",\"dur\":" << e.dur;
    if (e.phase == 'i') os << ",\"s\":\"t\"";
    os << ",\"pid\":0,\"tid\":" << static_cast<unsigned>(e.track);
    writeArgs(os, e.a0, e.a1);
    os << '}';
  }
  os << "]}";
}

} // namespace sct::obs
