#include "trace/bus_trace.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace sct::trace {

namespace {

std::string kindToken(bus::Kind k) {
  switch (k) {
    case bus::Kind::InstrFetch: return "I";
    case bus::Kind::Read: return "R";
    case bus::Kind::Write: return "W";
  }
  return "?";
}

bus::Kind kindFromToken(const std::string& t) {
  if (t == "I") return bus::Kind::InstrFetch;
  if (t == "R") return bus::Kind::Read;
  if (t == "W") return bus::Kind::Write;
  throw std::runtime_error("BusTrace: bad kind token '" + t + "'");
}

bus::AccessSize sizeFromInt(unsigned v) {
  switch (v) {
    case 1: return bus::AccessSize::Byte;
    case 2: return bus::AccessSize::Half;
    case 4: return bus::AccessSize::Word;
    default:
      throw std::runtime_error("BusTrace: bad access size");
  }
}

} // namespace

void BusTrace::append(const BusTrace& other, std::uint64_t cycleOffset) {
  for (TraceEntry e : other.entries_) {
    e.issueCycle += cycleOffset;
    entries_.push_back(e);
  }
}

std::uint64_t BusTrace::totalBeats() const {
  std::uint64_t n = 0;
  for (const TraceEntry& e : entries_) n += e.beats;
  return n;
}

std::uint64_t BusTrace::countOf(bus::Kind k) const {
  std::uint64_t n = 0;
  for (const TraceEntry& e : entries_) {
    if (e.kind == k) ++n;
  }
  return n;
}

void BusTrace::save(std::ostream& os) const {
  os << "# cycle kind addr size beats w0 w1 w2 w3\n";
  for (const TraceEntry& e : entries_) {
    os << e.issueCycle << ' ' << kindToken(e.kind) << ' ' << std::hex << "0x"
       << e.address << std::dec << ' ' << static_cast<unsigned>(e.size) << ' '
       << static_cast<unsigned>(e.beats);
    if (e.kind == bus::Kind::Write) {
      for (unsigned b = 0; b < e.beats; ++b) {
        os << ' ' << std::hex << "0x" << e.writeData[b] << std::dec;
      }
    }
    os << '\n';
  }
}

BusTrace BusTrace::load(std::istream& is) {
  BusTrace t;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    TraceEntry e;
    std::string kind;
    unsigned size = 0;
    unsigned beats = 0;
    if (!(ls >> e.issueCycle >> kind >> std::hex >> e.address >> std::dec >>
          size >> beats)) {
      throw std::runtime_error("BusTrace: malformed line: " + line);
    }
    e.kind = kindFromToken(kind);
    e.size = sizeFromInt(size);
    if (beats == 0 || beats > bus::kMaxBurstBeats) {
      throw std::runtime_error("BusTrace: bad beat count");
    }
    // An EC burst is word-sized: every layer must see the same request.
    if (beats > 1 && e.size != bus::AccessSize::Word) {
      throw std::runtime_error("BusTrace: burst of non-word size: " + line);
    }
    e.beats = static_cast<std::uint8_t>(beats);
    if (e.kind == bus::Kind::Write) {
      for (unsigned b = 0; b < beats; ++b) {
        std::uint64_t w = 0;
        if (!(ls >> std::hex >> w >> std::dec)) {
          throw std::runtime_error("BusTrace: missing write data: " + line);
        }
        e.writeData[b] = static_cast<bus::Word>(w);
      }
    }
    t.append(e);
  }
  return t;
}

} // namespace sct::trace
