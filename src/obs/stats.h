// Runtime metrics: hierarchically named counters, gauges and
// fixed-bucket histograms.
//
// A module resolves its handles once at attach time (StatsRegistry
// hands out stable references — storage is a deque, so registering more
// stats never invalidates earlier handles) and then updates them with a
// plain add/record on the hot path: no name lookup, no lock, no
// allocation per event. The registry itself is single-threaded like the
// simulation kernel; parallel sweeps give every worker its own registry
// and merge the snapshots afterwards (obs::merge), mirroring how
// sim::ParallelRunner keeps one kernel per task.
//
// Snapshots are plain data sorted by name, so two runs of the same
// deterministic simulation produce byte-identical JSON.
#ifndef SCT_OBS_STATS_H
#define SCT_OBS_STATS_H

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace sct::obs {

/// Monotonic event count (transactions issued, warps taken, ...).
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written real value (energy totals, ratios, positions).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram over unsigned samples. Bucket `i` counts
/// samples <= bounds[i] (and greater than the previous bound); one
/// implicit overflow bucket catches the rest. Bounds are fixed at
/// creation — recording is a linear scan over a handful of bounds,
/// which for the short bucket lists used here (wait states, burst
/// lengths, queue depths, warp lengths) beats a binary search.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds)
      : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {}

  void record(std::uint64_t v) {
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    ++counts_[i];
    ++count_;
    sum_ += v;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }
  const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::uint64_t>& bucketCounts() const { return counts_; }

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// One stat flattened to plain data (see StatsRegistry::snapshot).
struct SnapshotEntry {
  enum class Type : std::uint8_t { Counter, Gauge, Histogram };

  std::string name;
  Type type = Type::Counter;
  std::uint64_t count = 0;  ///< Counter value / histogram sample count.
  double value = 0.0;       ///< Gauge value / histogram sample sum.
  std::vector<std::uint64_t> bounds;   ///< Histogram only.
  std::vector<std::uint64_t> buckets;  ///< Histogram only.
};

/// Plain-data view of a registry (or a merge of several), sorted by
/// name. This is what crosses thread boundaries in exploration sweeps.
struct Snapshot {
  std::vector<SnapshotEntry> entries;

  const SnapshotEntry* find(const std::string& name) const;
  void writeJson(std::ostream& os) const;
};

/// Accumulate `from` into `into`: entries are matched by name (counter
/// values, gauge values, histogram buckets all sum; histograms must
/// share bounds). Unmatched entries are appended. Keeps `into` sorted.
void merge(Snapshot& into, const Snapshot& from);

/// Registry of named stats. Names are hierarchical dotted paths
/// ("ecbus.txn_latency_cycles", "clk.warps"); the hierarchy is a naming
/// convention, not a tree structure — flat storage keeps handles cheap.
class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  /// Create-or-get. References stay valid for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` must be ascending; it is fixed by the first caller and
  /// ignored on later lookups of the same name.
  Histogram& histogram(const std::string& name,
                       std::vector<std::uint64_t> bounds);

  std::size_t size() const { return index_.size(); }

  Snapshot snapshot() const;
  void writeJson(std::ostream& os) const;

 private:
  struct Slot {
    SnapshotEntry::Type type;
    void* stat;
  };

  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::map<std::string, Slot> index_;
};

} // namespace sct::obs

#endif // SCT_OBS_STATS_H
