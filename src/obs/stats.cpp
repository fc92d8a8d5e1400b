#include "obs/stats.h"

#include <algorithm>
#include <ostream>

namespace sct::obs {

namespace {

void writeJsonString(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: os << c;
    }
  }
  os << '"';
}

void writeUintArray(std::ostream& os, const std::vector<std::uint64_t>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) os << ',';
    os << v[i];
  }
  os << ']';
}

const char* typeName(SnapshotEntry::Type t) {
  switch (t) {
    case SnapshotEntry::Type::Counter: return "counter";
    case SnapshotEntry::Type::Gauge: return "gauge";
    case SnapshotEntry::Type::Histogram: return "histogram";
  }
  return "?";
}

void writeEntry(std::ostream& os, const SnapshotEntry& e) {
  os << '{';
  os << "\"name\":";
  writeJsonString(os, e.name);
  os << ",\"type\":\"" << typeName(e.type) << '"';
  switch (e.type) {
    case SnapshotEntry::Type::Counter:
      os << ",\"value\":" << e.count;
      break;
    case SnapshotEntry::Type::Gauge:
      os << ",\"value\":" << e.value;
      break;
    case SnapshotEntry::Type::Histogram:
      os << ",\"count\":" << e.count << ",\"sum\":" << e.value
         << ",\"bounds\":";
      writeUintArray(os, e.bounds);
      os << ",\"buckets\":";
      writeUintArray(os, e.buckets);
      break;
  }
  os << '}';
}

} // namespace

const SnapshotEntry* Snapshot::find(const std::string& name) const {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), name,
      [](const SnapshotEntry& e, const std::string& n) { return e.name < n; });
  if (it == entries.end() || it->name != name) return nullptr;
  return &*it;
}

void Snapshot::writeJson(std::ostream& os) const {
  os << "{\"stats\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i != 0) os << ',';
    writeEntry(os, entries[i]);
  }
  os << "]}";
}

void merge(Snapshot& into, const Snapshot& from) {
  for (const SnapshotEntry& e : from.entries) {
    auto it = std::lower_bound(into.entries.begin(), into.entries.end(),
                               e.name,
                               [](const SnapshotEntry& a,
                                  const std::string& n) { return a.name < n; });
    if (it == into.entries.end() || it->name != e.name) {
      into.entries.insert(it, e);
      continue;
    }
    if (it->type != e.type) continue;  // Name collision across types.
    it->count += e.count;
    it->value += e.value;
    if (e.type == SnapshotEntry::Type::Histogram &&
        it->bounds == e.bounds) {
      for (std::size_t b = 0; b < it->buckets.size() && b < e.buckets.size();
           ++b) {
        it->buckets[b] += e.buckets[b];
      }
    }
  }
}

Counter& StatsRegistry::counter(const std::string& name) {
  auto it = index_.find(name);
  if (it != index_.end()) return *static_cast<Counter*>(it->second.stat);
  Counter& c = counters_.emplace_back();
  index_.emplace(name, Slot{SnapshotEntry::Type::Counter, &c});
  return c;
}

Gauge& StatsRegistry::gauge(const std::string& name) {
  auto it = index_.find(name);
  if (it != index_.end()) return *static_cast<Gauge*>(it->second.stat);
  Gauge& g = gauges_.emplace_back();
  index_.emplace(name, Slot{SnapshotEntry::Type::Gauge, &g});
  return g;
}

Histogram& StatsRegistry::histogram(const std::string& name,
                                    std::vector<std::uint64_t> bounds) {
  auto it = index_.find(name);
  if (it != index_.end()) return *static_cast<Histogram*>(it->second.stat);
  Histogram& h = histograms_.emplace_back(std::move(bounds));
  index_.emplace(name, Slot{SnapshotEntry::Type::Histogram, &h});
  return h;
}

Snapshot StatsRegistry::snapshot() const {
  Snapshot snap;
  snap.entries.reserve(index_.size());
  // std::map iterates in name order, so the snapshot is born sorted.
  for (const auto& [name, slot] : index_) {
    SnapshotEntry e;
    e.name = name;
    e.type = slot.type;
    switch (slot.type) {
      case SnapshotEntry::Type::Counter:
        e.count = static_cast<const Counter*>(slot.stat)->value();
        break;
      case SnapshotEntry::Type::Gauge:
        e.value = static_cast<const Gauge*>(slot.stat)->value();
        break;
      case SnapshotEntry::Type::Histogram: {
        const auto* h = static_cast<const Histogram*>(slot.stat);
        e.count = h->count();
        e.value = static_cast<double>(h->sum());
        e.bounds = h->bounds();
        e.buckets = h->bucketCounts();
        break;
      }
    }
    snap.entries.push_back(std::move(e));
  }
  return snap;
}

void StatsRegistry::writeJson(std::ostream& os) const {
  snapshot().writeJson(os);
}

} // namespace sct::obs
