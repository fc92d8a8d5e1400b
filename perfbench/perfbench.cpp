// perfbench — one program for the simulator's end-to-end and per-layer
// performance figures (see METRICS.md beside this file).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir>
//
// Workloads: table3_dense, spa_idle. Every run prints every end-to-end
// metric (--trace 0) or every per-layer metric (--trace 1); the
// workload picks the bus trace the replay family runs. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// Sampling rules (each was needed to make the figures repeat):
//  - every rate and setup_s is the median of many short samples, taken
//    round-robin through the run rather than in sequential blocks;
//  - the main thread runs each sample on the next CPU in turn;
//  - serve sessions never share a block with other work, keep both
//    workers busy, and are timed per window of consecutive sessions;
//  - set-up repetitions are spread over the whole run.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "bus/tl1_bus.h"
#include "bus/tl2_bus.h"
#include "ckpt/checkpoint.h"
#include "eh/sweep.h"
#include "enc/codecs.h"
#include "enc/sweep.h"
#include "hier/fidelity_controller.h"
#include "hier/hybrid_bus.h"
#include "hier/roi_trigger.h"
#include "obs/ledger.h"
#include "obs/stats.h"
#include "power/tl1_power_model.h"
#include "power/tl2_power_model.h"
#include "rig.h"
#include "sca/corpus.h"
#include "sca/corpus_runner.h"
#include "serve/card_instance.h"
#include "serve/daemon.h"
#include "serve/json.h"
#include "serve/scenario.h"
#include "soc/assembler.h"
#include "spans.h"

namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// Options, statistics, checks

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;
  bool trace = false;
  std::string scratch = ".";
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    m = (m + *std::max_element(v.begin(),
                               v.begin() + static_cast<std::ptrdiff_t>(mid))) /
        2.0;
  }
  return m;
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

/// Every checked operation counts as attempted; a failed check counts
/// against it. The first failures are described on stderr.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) fail(what);
  }
  void fail(const std::string& what) {
    ++failed_;
    if (failed_ <= 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  /// An operation that threw: it was attempted and it failed.
  void threw(const std::string& what, const std::exception& e) {
    ++attempted_;
    fail(what + ": " + e.what());
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Spreads the main thread's samples over every CPU the process may run
/// on: next() pins the calling thread to another CPU of the set it
/// started with, and release() gives it that whole set back. On a
/// shared host each CPU's speed swings by up to half over seconds, each
/// on its own; a thread left where the scheduler put it reads whichever
/// CPU it sat on (per-2 s medians of one replay rung varied by 12-17%),
/// while one moved on every sample reads their average (4-5%). The move
/// is to a CPU drawn by a fixed hash of the turn, never the current one,
/// so every sample starts equally cold and no cycle of rungs or
/// families lines up with a cycle of CPUs. A move costs tens of
/// microseconds of cache refill, so only millisecond samples are moved.
/// Threads inherit their creator's mask, so nothing that starts threads
/// (a ServeEngine) may run while the thread is pinned.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() { release(); }

  void next() {
    const std::size_t n = cpus_.size();
    if (n < 2) return;
    at_ = (at_ + 1 + sim::hash64(0x43505553, turn_++) % (n - 1)) % n;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[at_], &one);
    // A refused move leaves the thread where it is, which only costs
    // steadiness.
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0 || pinned_;
  }
  void release() {
    if (pinned_) sched_setaffinity(0, sizeof(all_), &all_);
    pinned_ = false;
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::uint64_t turn_ = 0;
  std::size_t at_ = 0;
  bool pinned_ = false;
};

/// Runs samples under a deficit round-robin until `until`: each call
/// goes to the family that has used the least of its share of host
/// time, so the families' samples interleave finely. `spent` carries
/// over between calls. Every sample runs on the next CPU of `cpus`.
struct Family {
  double share;
  std::function<void()> unit;
  double spent = 0;
};

void interleave(std::vector<Family>& families, SteadyClock::time_point until,
                CpuRotation& cpus) {
  for (auto now = SteadyClock::now(); now < until; now = SteadyClock::now()) {
    Family* pick = &families.front();
    for (Family& f : families) {
      if (f.spent / f.share < pick->spent / pick->share) pick = &f;
    }
    cpus.next();
    pick->unit();
    pick->spent += secondsBetween(now, SteadyClock::now());
  }
  cpus.release();
}

SteadyClock::time_point after(SteadyClock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<SteadyClock::duration>(
                 std::chrono::duration<double>(seconds));
}

// ---------------------------------------------------------------------------
// Replay family: one trace through each bus layer, with and without
// energy estimation, plus the single-attachment ladder rungs.

enum class Rung {
  Tl1,        ///< Tl1Bus + replay master.
  Tl1Est,     ///< + Tl1PowerModel.
  Tl1Ledger,  ///< + Tl1PowerModel::attachLedger.
  Tl1Codec,   ///< + a bus codec via Tl1Bus::setCodec.
  Tl2,        ///< Tl2Bus + replay master.
  Tl2Est,     ///< + Tl2PowerModel.
  Tl2Stats,   ///< + attachObs on the clock and the TL2 bus.
  HybridEst,  ///< HybridBus + FidelityController + both models.
};

const char* spanName(Rung r) {
  switch (r) {
    case Rung::Tl1: return "bus.tl1";
    case Rung::Tl1Est: return "power.tl1_est";
    case Rung::Tl1Ledger: return "obs.ledger";
    case Rung::Tl1Codec: return "enc.codec";
    case Rung::Tl2: return "bus.tl2";
    case Rung::Tl2Est: return "power.tl2_est";
    case Rung::Tl2Stats: return "obs.stats";
    case Rung::HybridEst: return "hier.hybrid_est";
  }
  return "?";
}

struct ReplayRun {
  double seconds = 0;
  std::uint64_t cycles = 0;
  std::uint64_t completed = 0;
  double energy_fJ = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t parks = 0;
  std::uint64_t switches = 0;
  std::uint64_t roiCycles = 0;
};

/// Times the replay itself (runToCompletion plus the energy read);
/// building the platform is not part of the sample.
template <typename Master, typename Platform, typename EnergyFn>
void timeReplay(Master& master, Platform& p, ReplayRun& out, EnergyFn energy) {
  const auto t0 = SteadyClock::now();
  out.cycles = master.runToCompletion();
  out.energy_fJ = energy();
  out.seconds = secondsBetween(t0, SteadyClock::now());
  out.completed = master.stats().completed;
  out.dispatched = p.kernel.dispatchedEvents();
}

/// One replay of `t` on `rung`. `codec` names the Tl1Codec rung's codec;
/// `countParks` attaches a stats registry to the clock for the park count.
ReplayRun replay(Rung rung, const trace::BusTrace& t,
                 const power::SignalEnergyTable& table,
                 const char* codec = "bus-invert", bool countParks = false) {
  ReplayRun out;
  switch (rung) {
    case Rung::Tl1:
    case Rung::Tl1Est:
    case Rung::Tl1Ledger:
    case Rung::Tl1Codec: {
      ReplayPlatform<bus::Tl1Bus> p;
      obs::EnergyLedger ledger;
      std::optional<power::Tl1PowerModel> pm;
      std::unique_ptr<bus::BusCodec> c;
      if (rung != Rung::Tl1) {
        pm.emplace(table);
        p.ecbus.addObserver(*pm);
      }
      if (rung == Rung::Tl1Ledger) pm->attachLedger(ledger);
      if (rung == Rung::Tl1Codec) {
        c = enc::makeCodec(codec);
        p.ecbus.setCodec(c.get());
      }
      trace::ReplayMaster m(p.clk, "master", p.ecbus, p.ecbus, t);
      timeReplay(m, p, out, [&] { return pm ? pm->totalEnergy_fJ() : 0.0; });
      break;
    }
    case Rung::Tl2:
    case Rung::Tl2Est:
    case Rung::Tl2Stats: {
      ReplayPlatform<bus::Tl2Bus> p;
      obs::StatsRegistry reg;
      std::optional<power::Tl2PowerModel> pm;
      if (rung != Rung::Tl2) {
        pm.emplace(table);
        p.ecbus.addObserver(*pm);
      }
      if (rung == Rung::Tl2Stats || countParks) p.clk.attachObs(reg);
      if (rung == Rung::Tl2Stats) p.ecbus.attachObs(reg);
      trace::Tl2ReplayMaster m(p.clk, "master", p.ecbus, t);
      timeReplay(m, p, out, [&] { return pm ? pm->totalEnergy_fJ() : 0.0; });
      if (const obs::SnapshotEntry* e = reg.snapshot().find("clk.parks")) {
        out.parks = e->count;
      }
      break;
    }
    case Rung::HybridEst: {
      ReplayPlatform<hier::HybridBus> p;
      power::Tl1PowerModel pm1(table);
      p.ecbus.tl1().addObserver(pm1);
      power::Tl2PowerModel pm2(table);
      p.ecbus.tl2().addObserver(pm2);
      hier::AddressWatchTrigger watch(
          {{soc::memmap::kCryptoBase, soc::memmap::kSfrWindow}},
          /*holdCycles=*/48);
      hier::FidelityController ctrl(p.clk, p.ecbus);
      ctrl.addTrigger(watch);
      ctrl.attachPower(pm1, pm2);
      trace::ReplayMaster m(p.clk, "master", p.ecbus, p.ecbus, t);
      timeReplay(m, p, out, [&] {
        ctrl.finalize();
        double e = 0;
        for (const auto& r : ctrl.regions()) e += r.energy_fJ;
        return e;
      });
      out.switches = ctrl.switches();
      out.roiCycles = ctrl.roiCycles();
      break;
    }
  }
  return out;
}

void noopEdge(void*) {}

/// Kernel + clock alone: one no-op rising-edge handler for `cycles`.
double clockOnlySeconds(std::uint64_t cycles) {
  sim::Kernel kernel;
  sim::Clock clk(kernel, "clk", 10);
  clk.onRisingRaw(&noopEdge, nullptr);
  const auto t0 = SteadyClock::now();
  clk.runCycles(cycles);
  return secondsBetween(t0, SteadyClock::now());
}

/// Per-rung samples, checked against the rung's first run: every replay
/// completes every transaction and repeats its cycles and energy
/// exactly; estimation and attachments leave a layer's cycles unchanged.
class ReplayFamily {
 public:
  ReplayFamily(const trace::BusTrace& t, const power::SignalEnergyTable& table,
               std::vector<Rung> rungs, Checks& checks)
      : trace_(t), table_(table), rungs_(std::move(rungs)), checks_(checks) {}

  void sampleNext(SpanLog* spans = nullptr) {
    const Rung r = rungs_[next_++ % rungs_.size()];
    ReplayRun run;
    {
      SpanLog::Scope span(spans, spanName(r), static_cast<std::int64_t>(next_));
      run = replay(r, trace_, table_);
    }
    check(r, run);
    seconds_[r].push_back(run.seconds);
  }

  /// The first (reference) run of each rung.
  const ReplayRun& first(Rung r) {
    auto it = first_.find(r);
    if (it == first_.end()) {
      const ReplayRun run = replay(r, trace_, table_);
      check(r, run);
      it = first_.find(r);
    }
    return it->second;
  }

  double medianSeconds(Rung r) const {
    auto it = seconds_.find(r);
    return it == seconds_.end() ? 0.0 : median(it->second);
  }
  double mtps(Rung r) const {
    const double s = medianSeconds(r);
    return s > 0 ? static_cast<double>(trace_.size()) / s / 1e6 : 0.0;
  }
  double nsPerTxn(Rung r) const {
    return medianSeconds(r) * 1e9 / static_cast<double>(trace_.size());
  }
  std::size_t samples(Rung r) const {
    auto it = seconds_.find(r);
    return it == seconds_.end() ? 0 : it->second.size();
  }
  const trace::BusTrace& busTrace() const { return trace_; }

 private:
  static bool tl1Layer(Rung r) {
    return r == Rung::Tl1 || r == Rung::Tl1Est || r == Rung::Tl1Ledger ||
           r == Rung::Tl1Codec;
  }
  static bool tl2Layer(Rung r) {
    return r == Rung::Tl2 || r == Rung::Tl2Est || r == Rung::Tl2Stats;
  }

  void check(Rung r, const ReplayRun& run) {
    const std::string what = std::string("replay ") + spanName(r);
    checks_.expect(run.completed == trace_.size(),
                   what + ": " + std::to_string(run.completed) + " of " +
                       std::to_string(trace_.size()) + " transactions");
    auto [it, inserted] = first_.emplace(r, run);
    if (!inserted) {
      checks_.expect(run.cycles == it->second.cycles &&
                         run.energy_fJ == it->second.energy_fJ,
                     what + ": cycles or energy differ between repetitions");
    }
    // Estimation and observability attach to a layer without changing
    // its simulated timing.
    const Rung base = tl1Layer(r) ? Rung::Tl1 : tl2Layer(r) ? Rung::Tl2 : r;
    if (inserted && base != r) {
      checks_.expect(run.cycles == first(base).cycles,
                     what + ": simulated cycles differ from the bare layer");
    }
  }

  const trace::BusTrace& trace_;
  const power::SignalEnergyTable& table_;
  std::vector<Rung> rungs_;
  Checks& checks_;
  std::size_t next_ = 0;
  std::map<Rung, ReplayRun> first_;
  std::map<Rung, std::vector<double>> seconds_;
};

double errPct(double model, double reference) {
  return std::abs(model - reference) / reference * 100.0;
}

/// The bus trace a workload's replay family runs.
trace::BusTrace workloadTrace(const std::string& workload, std::uint64_t seed) {
  return workload == "spa_idle" ? spaTrace(seed) : denseTrace(seed);
}

struct Accuracy {
  double l1 = 0, l2 = 0, hybrid = 0;
};

/// Traces pooled per accuracy figure. One trace's error moves by up to
/// a third with its seed; pooling brings the seed-to-seed spread of
/// every error under 7%. The spa hybrid error (~0.6%) needs the most.
std::uint64_t accuracyTraces(const std::string& workload) {
  return workload == "spa_idle" ? 128 : 32;
}

/// Accuracy against layer 0: the error of the summed energies over the
/// run's replay trace and accuracyTraces() - 1 more seeded traces of
/// the same shape. Also checks that an identity codec changes no energy
/// and, where the hybrid never enters an ROI, that it is exactly layer 2.
Accuracy accuracy(ReplayFamily& fam, const Options& o,
                  const power::SignalEnergyTable& table, Checks& checks) {
  Accuracy a;
  double ref = 0, l1 = 0, l2 = 0, hybrid = 0;
  for (std::uint64_t k = 0; k < accuracyTraces(o.workload); ++k) {
    const trace::BusTrace extra =
        k == 0 ? trace::BusTrace{}
               : workloadTrace(o.workload, sim::hash64(o.seed, 100 + k));
    const trace::BusTrace& t = k == 0 ? fam.busTrace() : extra;
    ReplayRun r[3];
    const Rung rungs[3] = {Rung::Tl1Est, Rung::Tl2Est, Rung::HybridEst};
    for (int i = 0; i < 3; ++i) {
      r[i] = k == 0 ? fam.first(rungs[i]) : replay(rungs[i], t, table);
      checks.expect(r[i].completed == t.size(),
                    std::string("accuracy replay ") + spanName(rungs[i]) +
                        " incomplete");
    }
    if (r[2].switches == 0) {
      checks.expect(r[2].energy_fJ == r[1].energy_fJ,
                    "hybrid without switches differs from layer 2");
    }
    ref += referenceSwitching_fJ(t);
    l1 += r[0].energy_fJ;
    l2 += r[1].energy_fJ;
    hybrid += r[2].energy_fJ;
  }
  a.l1 = errPct(l1, ref);
  a.l2 = errPct(l2, ref);
  a.hybrid = errPct(hybrid, ref);
  const ReplayRun identity =
      replay(Rung::Tl1Codec, fam.busTrace(), table, "identity");
  checks.expect(identity.energy_fJ == fam.first(Rung::Tl1Est).energy_fJ &&
                    identity.cycles == fam.first(Rung::Tl1Est).cycles,
                "identity codec changed TL1 energy or cycles");
  return a;
}

// ---------------------------------------------------------------------------
// Serve family: NDJSON jobs through ServeEngine::submitLine from three
// closed-loop terminals (each waits for its reply before sending the
// next job) onto two pool workers.

struct JobSpec {
  std::string scenario;
  std::uint64_t seed = 0;
};

JobSpec jobFor(std::uint64_t seed, std::uint64_t i) {
  static const char* const kScenarios[] = {"auth", "wrong_pin", "challenge",
                                           "mixed"};
  return {kScenarios[sim::hash64(seed, 7, i) % 4],
          sim::hash64(seed, 8, i) % 1'000'000};
}

std::string jobLine(std::uint64_t id, const JobSpec& job) {
  return "{\"id\":\"j" + std::to_string(id) + "\",\"scenario\":\"" +
         job.scenario + "\",\"seed\":" + std::to_string(job.seed) +
         ",\"fidelity\":\"tl1\"}";
}

/// A result line is correct when it parses, reports ok and expected,
/// and carries exactly the status words the scenario script expects.
bool resultMatches(const std::string& line, const JobSpec& job) {
  try {
    const serve::JsonValue v = serve::parseJson(line);
    const serve::JsonValue* event = v.find("event");
    const serve::JsonValue* ok = v.find("ok");
    const serve::JsonValue* expected = v.find("expected");
    const serve::JsonValue* sw = v.find("sw");
    if (event == nullptr || !event->isString() ||
        event->asString() != "result" || ok == nullptr || !ok->asBool() ||
        expected == nullptr || !expected->asBool() || sw == nullptr) {
      return false;
    }
    const std::vector<serve::Step> steps =
        serve::buildScenario(job.scenario, job.seed);
    const auto& words = sw->asArray();
    if (words.size() != steps.size()) return false;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      char want[8];
      std::snprintf(want, sizeof(want), "%04X", steps[i].expectSw);
      if (words[i].asString() != want) return false;
    }
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// Serve figures are taken per window of kWindowSessions consecutive
/// replies: the window's rate and latency percentiles are one sample
/// each, and a run reports the median over its windows. A stall of a
/// few milliseconds (a preempted worker or terminal) then costs one
/// window rather than shifting every figure of the run. A full window's
/// p99 has ten sessions beyond it. A block's last window counts if it
/// holds at least half the sessions, so a short run still has windows.
constexpr std::size_t kWindowSessions = 1024;

/// The first replies of every block are checked but not timed: the
/// work run between blocks has evicted the card instances from cache.
constexpr std::size_t kWarmupSessions = 64;

/// Three terminals on two workers keep a job queued behind each running
/// one, so a worker that finishes finds its next job at once. With one
/// terminal per worker every session began by waking a sleeping worker,
/// and how long that took on a shared host decided the figures.
constexpr int kTerminals = 3;

struct ServeStats {
  std::vector<double> windowRates;        ///< Sessions/s per window.
  std::vector<double> tracedWindowRates;  ///< Same, spans on (traced run).
  std::vector<double> windowP50Us, windowP99Us;  ///< Latency per window.
  std::vector<double> submitUs;
  std::uint64_t sessions = 0;
  std::uint64_t failed = 0;
};

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// One serve block: kTerminals closed-loop terminals drive `engine`
/// until `until`, and every result line is checked. The main thread
/// plays every terminal and polls for replies instead of sleeping, so a
/// reply is answered at once and no wake-up of the main thread enters
/// the session loop. Windows end within the block. With `spans` set,
/// the submit calls and sessions are recorded as spans and the window
/// rates count as traced.
void runTerminals(serve::ServeEngine& engine, std::uint64_t seed,
                  std::uint64_t& nextJob, SteadyClock::time_point until,
                  ServeStats& st, Checks& checks, SpanLog* spans = nullptr) {
  struct Terminal {
    std::uint64_t id = 0;
    JobSpec job;
    SteadyClock::time_point sent;
    std::int64_t sentNs = 0;
    bool active = true;
    // Written by the pool worker that ran the session, published by
    // `ready`; the main thread reads them only after it sees `ready`.
    std::string reply;
    SteadyClock::time_point repliedAt;
    std::atomic<bool> ready{false};
  };
  Terminal term[kTerminals];
  const bool tracing = spans != nullptr;

  auto send = [&](int k) {
    Terminal& t = term[k];
    t.id = nextJob++;
    t.job = jobFor(seed, t.id);
    const std::string line = jobLine(t.id, t.job);
    t.sent = SteadyClock::now();
    if (tracing) t.sentNs = spans->now();
    engine.submitLine(line, [&t](const std::string& out) {
      t.repliedAt = SteadyClock::now();
      t.reply = out;
      t.ready.store(true, std::memory_order_release);
    });
    if (tracing) {
      const std::int64_t end = spans->now();
      spans->add("serve.submit", t.sentNs, end, static_cast<std::int64_t>(t.id),
                 static_cast<std::uint32_t>(k + 1));
      st.submitUs.push_back(static_cast<double>(end - t.sentNs) / 1e3);
    }
  };

  std::vector<double> window;
  window.reserve(kWindowSessions);
  auto windowStart = SteadyClock::now();
  auto closeWindow = [&](SteadyClock::time_point end) {
    (tracing ? st.tracedWindowRates : st.windowRates)
        .push_back(static_cast<double>(window.size()) /
                   secondsBetween(windowStart, end));
    st.windowP50Us.push_back(percentile(window, 0.50));
    st.windowP99Us.push_back(percentile(window, 0.99));
    window.clear();
    windowStart = end;
  };
  auto lastAt = windowStart;
  std::size_t replies = 0;
  int busy = kTerminals;
  for (int k = 0; k < kTerminals; ++k) send(k);
  while (busy > 0) {
    bool any = false;
    for (int k = 0; k < kTerminals; ++k) {
      Terminal& t = term[k];
      if (!t.active || !t.ready.load(std::memory_order_acquire)) continue;
      any = true;
      t.ready.store(false, std::memory_order_relaxed);
      const std::string line = std::move(t.reply);
      const auto at = t.repliedAt;
      const JobSpec job = t.job;
      const std::uint64_t id = t.id;
      const auto sent = t.sent;
      const std::int64_t sentNs = t.sentNs;
      if (SteadyClock::now() < until) {
        send(k);
      } else {
        t.active = false;
        --busy;
      }
      lastAt = std::max(lastAt, at);
      if (++replies <= kWarmupSessions) {
        windowStart = lastAt;
      } else {
        window.push_back(
            std::chrono::duration<double, std::micro>(at - sent).count());
        if (window.size() == kWindowSessions) closeWindow(lastAt);
      }
      if (tracing) {
        spans->add("serve.session", sentNs,
                   sentNs + std::chrono::duration_cast<std::chrono::nanoseconds>(
                                at - sent)
                                .count(),
                   static_cast<std::int64_t>(id), static_cast<std::uint32_t>(k + 1));
      }
      ++st.sessions;
      if (resultMatches(line, job)) {
        checks.expect(true, {});
      } else {
        ++st.failed;
        checks.expect(false, "serve job " + std::to_string(id) + " (" +
                                 job.scenario + "): " + line.substr(0, 200));
      }
    }
    if (!any) cpuRelax();
  }
  if (window.size() >= kWindowSessions / 2) closeWindow(lastAt);
  // Every sink has returned once the pool is idle; only then may the
  // terminals it wrote to go out of scope.
  engine.drain();
}

// ---------------------------------------------------------------------------
// Fork family: sca corpus generation, eh scheme x field grid and enc
// codec x workload grid, each forking variants from one boot snapshot
// at threads=1.

constexpr std::uint64_t kScaBatch = 32;
constexpr unsigned kEhBlocks = 16;  // As the eh sweep bench.

struct ForkRig {
  power::SignalEnergyTable table;  // eh::SweepRunner keeps a pointer to it.
  sca::CorpusConfig scaCfg;
  sca::CorpusRunner scaRunner;
  eh::SweepRunner ehRunner;
  enc::SweepRunner encRunner;
  std::vector<eh::SweepVariant> ehGrid;
  std::vector<enc::EncVariant> encGrid;

  static sca::CorpusConfig scaConfig(std::uint64_t seed) {
    sca::CorpusConfig cfg;
    cfg.traces = kScaBatch;
    cfg.plaintextSeed = sim::hash64(seed, 3);
    cfg.noiseSeed = sim::hash64(seed, 4);
    return cfg;
  }

  ForkRig(power::SignalEnergyTable t, std::uint64_t seed)
      : table(std::move(t)),
        scaCfg(scaConfig(seed)),
        scaRunner(table, scaCfg),
        ehRunner(table, kEhBlocks),
        encRunner(table),
        ehGrid(eh::defaultGrid()),
        encGrid(enc::defaultGrid()) {
    for (std::size_t i = 0; i < ehGrid.size(); ++i) {
      ehGrid[i].seed = sim::hash64(seed, 5, i);
    }
  }
};

struct ForkStats {
  std::vector<double> scaRate, ehRate, encRate;
  std::vector<double> scaSecondsPerTrace;
};

class ForkFamily {
 public:
  ForkFamily(ForkRig& rig, std::string corpusPath, Checks& checks)
      : rig_(rig), path_(std::move(corpusPath)), checks_(checks) {}
  ~ForkFamily() { std::remove(path_.c_str()); }
  ForkFamily(const ForkFamily&) = delete;
  ForkFamily& operator=(const ForkFamily&) = delete;

  /// One whole batch or grid of the next sweep, round-robin.
  void sampleNext(SpanLog* spans = nullptr) {
    switch (next_++ % 3) {
      case 0: scaBatch(spans); break;
      case 1: ehGrid(spans); break;
      case 2: encGrid(spans); break;
    }
  }

  /// CorpusRunner::generate over one batch; every trace read back must
  /// carry its full sample count.
  void scaBatch(SpanLog* spans) {
    try {
      const auto t0 = SteadyClock::now();
      sca::GenerateStats g;
      {
        SpanLog::Scope span(spans, "sca.generate");
        g = rig_.scaRunner.generate(path_, 1);
      }
      const double s = secondsBetween(t0, SteadyClock::now());
      stats.scaRate.push_back(static_cast<double>(g.traces) / s);
      stats.scaSecondsPerTrace.push_back(s / static_cast<double>(g.traces));
      sca::TraceCorpusReader reader(path_);
      sca::TraceRecord rec;
      std::uint64_t n = 0;
      while (reader.next(rec)) {
        checks_.expect(rec.samples.size() == rig_.scaCfg.samplesPerTrace,
                       "sca trace " + std::to_string(n) + " has " +
                           std::to_string(rec.samples.size()) + " samples");
        ++n;
      }
      checks_.expect(n == rig_.scaCfg.traces && g.traces == n,
                     "sca batch wrote " + std::to_string(n) + " traces");
    } catch (const std::exception& e) {
      checks_.threw("sca batch", e);
    }
  }

  void ehGrid(SpanLog* spans) {
    try {
      const auto t0 = SteadyClock::now();
      std::vector<eh::SweepOutcome> out;
      {
        SpanLog::Scope span(spans, "eh.grid");
        out = rig_.ehRunner.run(rig_.ehGrid, 1);
      }
      const double s = secondsBetween(t0, SteadyClock::now());
      stats.ehRate.push_back(static_cast<double>(out.size()) / s);
      for (const eh::SweepOutcome& o : out) {
        checks_.expect(o.result.progressWord > 0,
                       "eh variant " + o.variant.scheme + "/" +
                           o.variant.profile + " made no progress");
      }
    } catch (const std::exception& e) {
      checks_.threw("eh grid", e);
    }
  }

  void encGrid(SpanLog* spans) {
    try {
      const auto t0 = SteadyClock::now();
      std::vector<enc::EncOutcome> out;
      {
        SpanLog::Scope span(spans, "enc.grid");
        out = rig_.encRunner.run(rig_.encGrid, 1);
      }
      const double s = secondsBetween(t0, SteadyClock::now());
      stats.encRate.push_back(static_cast<double>(out.size()) / s);
      for (const enc::EncOutcome& o : out) {
        checks_.expect(o.transactions ==
                               rig_.encRunner.workload(o.variant.workload).size() &&
                           o.total_fJ > 0,
                       "enc variant " + o.variant.codec + "/" +
                           o.variant.workload + " incomplete");
      }
    } catch (const std::exception& e) {
      checks_.threw("enc grid", e);
    }
  }

  ForkStats stats;

 private:
  ForkRig& rig_;
  std::string path_;
  Checks& checks_;
  std::size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads

const char* const kWorkloads[] = {"table3_dense", "spa_idle"};

/// A run is kRounds rounds. Each round starts with one full set-up,
/// whose engine then serves one contiguous block of sessions, and
/// interleaves replay and fork samples until the round ends. Every round
/// splits its time between the families in the same shares, so every
/// family samples the whole run.
constexpr int kRounds = 16;
constexpr double kReplayShare = 0.5;
constexpr double kServeShare = 0.25;
constexpr double kForkShare = 0.25;

struct RunContext {
  Options opt;
  Checks checks;
  std::vector<double> setupSeconds;
  std::vector<Metric> metrics;
  SteadyClock::time_point start = SteadyClock::now();

  SteadyClock::time_point at(double fraction) const {
    return after(start, opt.seconds * fraction);
  }
  std::string corpusPath() const {
    return opt.scratch + "/sca-" + std::to_string(::getpid()) + ".sctcorp";
  }
};

const std::vector<Rung> kEndToEndRungs = {Rung::Tl1Est, Rung::Tl1, Rung::Tl2Est,
                                          Rung::Tl2, Rung::HybridEst};

void timedSetup(RunContext& ctx, const std::function<void()>& setup) {
  try {
    const auto t0 = SteadyClock::now();
    setup();
    ctx.setupSeconds.push_back(secondsBetween(t0, SteadyClock::now()));
    ctx.checks.expect(true, "");
  } catch (const std::exception& e) {
    ctx.checks.threw("set-up", e);
  }
}

/// The high-water mark of this process image's resident set (VmHWM).
/// getrusage's ru_maxrss would also count what the launching process
/// had resident when it forked: 18 MB under run.py, 7 MB from a shell.
double peakRssMb() {
  double kib = 0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) {
        kib = std::strtod(line + 6, nullptr);
        break;
      }
    }
    std::fclose(f);
  }
  return kib / 1024.0;
}

void endToEnd(RunContext& ctx) {
  const Options& o = ctx.opt;
  const power::SignalEnergyTable table = characterize();
  const trace::BusTrace t = workloadTrace(o.workload, o.seed);
  ReplayFamily replayFam(t, table, kEndToEndRungs, ctx.checks);
  ForkRig rig(table, o.seed);
  ForkFamily forkFam(rig, ctx.corpusPath(), ctx.checks);
  ServeStats serveSt;
  std::uint64_t nextJob = 0;

  const Accuracy acc = accuracy(replayFam, o, table, ctx.checks);
  if (o.workload != "spa_idle") {  // The Table 3 mix never enters the ROI.
    ctx.checks.expect(acc.hybrid == acc.l2,
                      "hybrid_energy_err_pct differs from l2 on the Table 3 mix");
  }

  std::vector<Family> fams{{kReplayShare, [&] { replayFam.sampleNext(); }},
                           {kForkShare, [&] { forkFam.sampleNext(); }}};
  std::optional<serve::ServeEngine> engine;
  CpuRotation cpus;
  const auto begin = SteadyClock::now();
  const double round = secondsBetween(begin, ctx.at(1.0)) / kRounds;
  for (int r = 0; r < kRounds; ++r) {
    // A full set-up: characterization, the serve engine (golden boot,
    // pool start) and the three fork runners (parent boots). The engine
    // serves this round's block; the runners only count as set-up.
    engine.reset();
    timedSetup(ctx, [&] {
      const power::SignalEnergyTable fresh = characterize();
      const ForkRig runners(fresh, o.seed);
      engine.emplace(fresh, 2);
    });
    if (engine) {
      runTerminals(*engine, o.seed, nextJob,
                   after(SteadyClock::now(), round * kServeShare), serveSt,
                   ctx.checks);
    }
    interleave(fams, after(begin, round * (r + 1)), cpus);
  }
  engine.reset();
  // Every figure below is a median over samples; a family that took
  // none in this run would report a zero.
  for (Rung r : kEndToEndRungs) {
    ctx.checks.expect(replayFam.samples(r) > 0,
                      std::string("no samples of ") + spanName(r));
  }
  ctx.checks.expect(!serveSt.windowRates.empty(), "no serve window");
  ctx.checks.expect(!forkFam.stats.scaRate.empty() &&
                        !forkFam.stats.ehRate.empty() &&
                        !forkFam.stats.encRate.empty(),
                    "a fork sweep took no sample");

  std::printf("replay trace: %zu transactions; samples per rung:",
              t.size());
  for (Rung r : kEndToEndRungs) {
    std::printf(" %s=%zu", spanName(r), replayFam.samples(r));
  }
  std::printf("\nserve: %llu sessions, %zu windows of up to %zu, %llu failed\n",
              static_cast<unsigned long long>(serveSt.sessions),
              serveSt.windowRates.size(), kWindowSessions,
              static_cast<unsigned long long>(serveSt.failed));
  std::printf("fork: %zu sca batches of %llu, %zu eh grids of %zu, %zu enc "
              "grids of %zu; set-ups: %zu\n",
              forkFam.stats.scaRate.size(),
              static_cast<unsigned long long>(kScaBatch),
              forkFam.stats.ehRate.size(), rig.ehGrid.size(),
              forkFam.stats.encRate.size(), rig.encGrid.size(),
              ctx.setupSeconds.size());

  auto& m = ctx.metrics;
  m.push_back({"tl1_est_mtps", replayFam.mtps(Rung::Tl1Est), "M/s"});
  m.push_back({"tl1_noest_mtps", replayFam.mtps(Rung::Tl1), "M/s"});
  m.push_back({"tl2_est_mtps", replayFam.mtps(Rung::Tl2Est), "M/s"});
  m.push_back({"tl2_noest_mtps", replayFam.mtps(Rung::Tl2), "M/s"});
  m.push_back({"hybrid_est_mtps", replayFam.mtps(Rung::HybridEst), "M/s"});
  m.push_back({"l1_energy_err_pct", acc.l1, "%"});
  m.push_back({"l2_energy_err_pct", acc.l2, "%"});
  m.push_back({"hybrid_energy_err_pct", acc.hybrid, "%"});
  m.push_back({"sessions_per_s", median(serveSt.windowRates), "1/s"});
  m.push_back({"session_p50_us", median(serveSt.windowP50Us), "us"});
  m.push_back({"session_p99_us", median(serveSt.windowP99Us), "us"});
  m.push_back({"sca_traces_per_s", median(forkFam.stats.scaRate), "1/s"});
  m.push_back({"eh_variants_per_s", median(forkFam.stats.ehRate), "1/s"});
  m.push_back({"enc_variants_per_s", median(forkFam.stats.encRate), "1/s"});
  m.push_back({"setup_s", median(ctx.setupSeconds), "s"});
  m.push_back({"peak_rss_mb", peakRssMb(), "MB"});
}

// ---------------------------------------------------------------------------
// Traced run: spans around every call into a layer, the attachment
// ladder, and exact counts from stats registries and module counters.

constexpr const char* kProbeFirmware = R"(
    li    $s0, 0x08000000
    addiu $t0, $zero, 256
  fill:
    sw    $t0, 0($s0)
    addiu $s0, $s0, 4
    addiu $t0, $t0, -1
    bne   $t0, $zero, fill
    break
)";

/// The platform every fork consumer assembles: SoC + layer-1 model +
/// checkpoint registry over the SoC sections and the model.
struct ProbeRig {
  soc::SmartCardSoC<bus::Tl1Bus> soc{soc::SocConfig{}};
  power::Tl1PowerModel pm;
  ckpt::CheckpointRegistry registry;

  ProbeRig(const power::SignalEnergyTable& table,
           const soc::AssembledProgram& program)
      : pm(table) {
    soc.bus().addObserver(pm);
    soc.loadProgram(program);
    soc.registerCheckpoint(registry);
    registry.add("pm", pm);
  }
};

constexpr std::uint64_t kProbeJobs = 64;

void traced(RunContext& ctx, SpanLog& spans) {
  const Options& o = ctx.opt;
  Checks& checks = ctx.checks;
  const power::SignalEnergyTable table = characterize();
  const trace::BusTrace t = workloadTrace(o.workload, o.seed);
  const double txns = static_cast<double>(t.size());
  auto& m = ctx.metrics;

  // -- Ladder: each rung adds one public attachment to the one below.
  const std::vector<Rung> ladder = {Rung::Tl1,      Rung::Tl1Est, Rung::Tl1Ledger,
                                    Rung::Tl1Codec, Rung::Tl2,    Rung::Tl2Est,
                                    Rung::Tl2Stats, Rung::HybridEst};
  ReplayFamily fam(t, table, ladder, checks);
  const ReplayRun& tl1 = fam.first(Rung::Tl1);
  std::vector<double> clockSeconds;
  std::vector<double> untracedTl1Est;
  std::size_t turn = 0;
  std::optional<SpanLog::Scope> phase;
  CpuRotation cpus;
  phase.emplace(&spans, "phase.ladder");
  for (auto until = ctx.at(0.4); SteadyClock::now() < until; ++turn) {
    cpus.next();
    switch (turn % (ladder.size() + 2)) {
      case 0: {
        SpanLog::Scope span(&spans, "sim.clock");
        clockSeconds.push_back(clockOnlySeconds(tl1.cycles));
        break;
      }
      case 1:  // The headline replay again with no span around it.
        untracedTl1Est.push_back(replay(Rung::Tl1Est, t, table).seconds);
        break;
      default:
        fam.sampleNext(&spans);
    }
  }
  cpus.release();
  const ReplayRun tl1Est = fam.first(Rung::Tl1Est);
  const ReplayRun tl2Est = fam.first(Rung::Tl2Est);
  const ReplayRun parks = replay(Rung::Tl2Est, t, table, nullptr, true);
  const ReplayRun& hybrid = fam.first(Rung::HybridEst);
  auto delta = [&](Rung r, Rung base) {
    return fam.nsPerTxn(r) - fam.nsPerTxn(base);
  };
  m.push_back({"sim.clock_ns_per_cycle",
               median(clockSeconds) * 1e9 / static_cast<double>(tl1.cycles),
               "ns"});
  m.push_back({"sim.cycles_per_txn", static_cast<double>(tl1.cycles) / txns,
               "cycles"});
  m.push_back({"sim.dispatches_per_txn.tl1_est",
               static_cast<double>(tl1Est.dispatched) / txns, "count"});
  m.push_back({"sim.dispatches_per_txn.tl2_est",
               static_cast<double>(tl2Est.dispatched) / txns, "count"});
  m.push_back({"sim.parks_per_txn.tl2_est",
               static_cast<double>(parks.parks) / txns, "count"});
  m.push_back({"bus.tl1_ns_per_txn", fam.nsPerTxn(Rung::Tl1), "ns"});
  m.push_back({"bus.tl2_ns_per_txn", fam.nsPerTxn(Rung::Tl2), "ns"});
  m.push_back({"power.tl1_est_ns_per_txn", delta(Rung::Tl1Est, Rung::Tl1), "ns"});
  m.push_back({"power.tl2_est_ns_per_txn", delta(Rung::Tl2Est, Rung::Tl2), "ns"});
  m.push_back({"obs.ledger_ns_per_txn", delta(Rung::Tl1Ledger, Rung::Tl1Est),
               "ns"});
  m.push_back({"obs.stats_ns_per_txn", delta(Rung::Tl2Stats, Rung::Tl2Est),
               "ns"});
  m.push_back({"enc.codec_ns_per_txn", delta(Rung::Tl1Codec, Rung::Tl1Est),
               "ns"});
  m.push_back({"hier.controller_ns_per_txn",
               delta(Rung::HybridEst, Rung::Tl2Est), "ns"});
  m.push_back({"hier.switches", static_cast<double>(hybrid.switches), "count"});
  m.push_back({"hier.roi_cycle_share",
               100.0 * static_cast<double>(hybrid.roiCycles) /
                   static_cast<double>(hybrid.cycles),
               "%"});

  // -- Serve: an instance the benchmark owns, then the engine path.
  phase.reset();
  phase.emplace(&spans, "phase.serve");
  std::vector<double> recycleUs, runUs;
  double issSeconds = 0;
  std::uint64_t issInstructions = 0;
  std::uint64_t probeInstructions = 0;
  {
    const ckpt::Snapshot golden = serve::CardInstance::bootGolden(table);
    serve::CardInstance card(table);
    for (std::uint64_t i = 0; i < kProbeJobs || SteadyClock::now() < ctx.at(0.5);
         ++i) {
      const JobSpec job = jobFor(o.seed, i % kProbeJobs);
      const std::vector<serve::Step> steps =
          serve::buildScenario(job.scenario, job.seed);
      auto t0 = SteadyClock::now();
      {
        SpanLog::Scope span(&spans, "ckpt.recycle", static_cast<std::int64_t>(i));
        card.recycle(golden);
      }
      auto t1 = SteadyClock::now();
      serve::SessionOutcome out;
      {
        SpanLog::Scope span(&spans, "serve.run_session",
                            static_cast<std::int64_t>(i));
        out = card.runSession(steps);
      }
      const auto t2 = SteadyClock::now();
      recycleUs.push_back(secondsBetween(t0, t1) * 1e6);
      runUs.push_back(secondsBetween(t1, t2) * 1e6);
      issSeconds += secondsBetween(t1, t2);
      issInstructions += out.instructions;
      if (i < kProbeJobs) probeInstructions += out.instructions;
      checks.expect(out.ok && out.expected,
                    "owned card session " + std::to_string(i) + " failed");
    }
  }
  ServeStats st;
  std::uint64_t nextJob = 0;
  {
    serve::ServeEngine engine(table, 2);
    for (bool traceBlock = true; SteadyClock::now() < ctx.at(0.7);
         traceBlock = !traceBlock) {
      runTerminals(engine, o.seed, nextJob, after(SteadyClock::now(), 0.25), st,
                   checks, traceBlock ? &spans : nullptr);
    }
  }
  const double p50 = median(st.windowP50Us);
  m.push_back({"ckpt.recycle_us", median(recycleUs), "us"});
  m.push_back({"serve.run_session_us", median(runUs), "us"});
  m.push_back({"soc.iss_mips",
               static_cast<double>(issInstructions) / issSeconds / 1e6, "MIPS"});
  m.push_back({"soc.instructions_per_session",
               static_cast<double>(probeInstructions) / kProbeJobs, "count"});
  m.push_back({"serve.submit_us", median(st.submitUs), "us"});
  m.push_back({"serve.overhead_us", p50 - median(recycleUs) - median(runUs),
               "us"});
  m.push_back({"serve.failed_sessions", static_cast<double>(st.failed),
               "count"});

  // -- Fork consumers: rig build + loadAll, then each sweep per variant.
  phase.reset();
  phase.emplace(&spans, "phase.fork");
  const soc::AssembledProgram probeProgram =
      soc::assemble(kProbeFirmware, soc::memmap::kRomBase);
  ckpt::Snapshot booted;
  {
    ProbeRig parent(table, probeProgram);
    checks.expect(parent.soc.run(100'000), "probe firmware did not halt");
    booted = parent.registry.saveAll();
  }
  ForkRig rig(table, o.seed);
  ForkFamily forkFam(rig, ctx.corpusPath(), checks);
  std::vector<double> buildUs, loadUs, captureUs, ehUs, encUs;
  std::vector<double> untracedSca;
  std::uint64_t restores = 0;
  for (const eh::SweepOutcome& out : rig.ehRunner.run(rig.ehGrid, 1)) {
    restores += out.result.restores;
  }
  turn = 0;
  for (auto until = ctx.at(1.0); SteadyClock::now() < until; ++turn) {
    const std::int64_t id = static_cast<std::int64_t>(turn);
    switch (turn % 6) {
      case 0: {
        auto t0 = SteadyClock::now();
        std::optional<ProbeRig> r;
        {
          SpanLog::Scope span(&spans, "ckpt.rig_build", id);
          r.emplace(table, probeProgram);
        }
        auto t1 = SteadyClock::now();
        {
          SpanLog::Scope span(&spans, "ckpt.load_all", id);
          r->registry.loadAll(booted);
        }
        buildUs.push_back(secondsBetween(t0, t1) * 1e6);
        loadUs.push_back(secondsBetween(t1, SteadyClock::now()) * 1e6);
        break;
      }
      case 1: {
        auto t0 = SteadyClock::now();
        sca::TraceRecord rec;
        {
          SpanLog::Scope span(&spans, "sca.capture", id);
          rec = rig.scaRunner.runOne(turn % kScaBatch);
        }
        captureUs.push_back(secondsBetween(t0, SteadyClock::now()) * 1e6);
        checks.expect(rec.samples.size() == rig.scaCfg.samplesPerTrace,
                      "sca runOne sample count");
        break;
      }
      case 2:
        forkFam.scaBatch(&spans);
        break;
      case 3: {  // The fork headline again with no span around it.
        auto t0 = SteadyClock::now();
        (void)rig.scaRunner.generate(ctx.corpusPath(), 1);
        untracedSca.push_back(static_cast<double>(kScaBatch) /
                              secondsBetween(t0, SteadyClock::now()));
        break;
      }
      case 4: {
        const auto& v = rig.ehGrid[turn % rig.ehGrid.size()];
        auto t0 = SteadyClock::now();
        {
          SpanLog::Scope span(&spans, "eh.variant", id);
          (void)rig.ehRunner.run({v}, 1);
        }
        ehUs.push_back(secondsBetween(t0, SteadyClock::now()) * 1e6);
        break;
      }
      case 5: {
        const auto& v = rig.encGrid[turn % rig.encGrid.size()];
        auto t0 = SteadyClock::now();
        {
          SpanLog::Scope span(&spans, "enc.variant", id);
          (void)rig.encRunner.run({v}, 1);
        }
        encUs.push_back(secondsBetween(t0, SteadyClock::now()) * 1e6);
        break;
      }
    }
  }
  const double captureMed = median(captureUs);
  m.push_back({"ckpt.rig_build_us", median(buildUs), "us"});
  m.push_back({"ckpt.load_all_us", median(loadUs), "us"});
  m.push_back({"ckpt.snapshot_kib",
               static_cast<double>(booted.serialize().size()) / 1024.0, "KiB"});
  m.push_back({"sca.capture_us", captureMed, "us"});
  m.push_back({"sca.encode_write_us",
               median(forkFam.stats.scaSecondsPerTrace) * 1e6 - captureMed, "us"});
  m.push_back({"eh.variant_us", median(ehUs), "us"});
  m.push_back({"eh.restores_per_variant",
               static_cast<double>(restores) /
                   static_cast<double>(rig.ehGrid.size()),
               "count"});
  m.push_back({"enc.variant_us", median(encUs), "us"});

  phase.reset();

  // -- Tracing overhead: the largest slowdown of a headline rate (TL1
  // with estimation, sessions/s, sca traces/s) with spans against the
  // same rate without, sampled alternately.
  const double slowdown = std::max(
      {fam.medianSeconds(Rung::Tl1Est) / median(untracedTl1Est),
       median(st.windowRates) / median(st.tracedWindowRates),
       median(untracedSca) / median(forkFam.stats.scaRate)});
  m.push_back({"bench.trace_overhead_pct", (slowdown - 1.0) * 100.0, "%"});
}

// ---------------------------------------------------------------------------

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <table3_dense|spa_idle> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--scratch <dir>]\n");
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool haveWorkload = false, haveSeconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o.workload = v;
      haveWorkload = true;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v, &end);
      haveSeconds = true;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return std::nullopt;
      }
      o.trace = v[0] == '1';
    } else if (k == "--scratch") {
      o.scratch = v;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if (argc % 2 != 1 || !haveWorkload || !haveSeconds || o.seconds <= 0) {
    return std::nullopt;
  }
  if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const char* w) { return o.workload == w; }) ==
      std::end(kWorkloads)) {
    return std::nullopt;
  }
  return o;
}

void printResult(const RunContext& ctx) {
  std::printf("\n%-34s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& mt : ctx.metrics) {
    std::printf("%-34s %16.6g  %s\n", mt.name.c_str(), mt.value,
                mt.unit.c_str());
  }
  const bool correct = ctx.checks.failed() == 0 && ctx.checks.attempted() > 0;
  std::printf("\n{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ctx.checks.attempted()),
              static_cast<unsigned long long>(ctx.checks.failed()));
  for (std::size_t i = 0; i < ctx.metrics.size(); ++i) {
    const Metric& mt = ctx.metrics[i];
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                mt.name.c_str(), mt.value, mt.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#if !(defined(NDEBUG) && defined(__OPTIMIZE__))
  std::fprintf(stderr, "perfbench: refusing to measure a non-optimized build "
                       "(sct_build_type=debug)\n");
  return 2;
#endif
  const std::optional<Options> opt = parse(argc, argv);
  if (!opt) {
    usage();
    return 2;
  }
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              opt->workload.c_str(),
              static_cast<unsigned long long>(opt->seed), opt->seconds,
              opt->trace ? 1 : 0);
  std::printf("build: sct_build_type=release compiler=\"%s\"\n",
              PERFBENCH_COMPILER);
  std::fflush(stdout);

  // glibc raises its mmap threshold (and its heap trim threshold) to the
  // size of the first large block a process frees, so which buffer a run
  // happens to free first decided whether later large allocations fault
  // in fresh pages: sca traces/s read 5.9k or 12k between otherwise
  // identical processes. Freeing one 16 MiB block first starts every
  // run in the state a long-running process settles in.
  void* volatile settle = std::malloc(16u << 20);
  std::free(settle);

  RunContext ctx;
  ctx.opt = *opt;
  try {
    if (ctx.opt.trace) {
      SpanLog spans(1u << 18);
      traced(ctx, spans);
      const std::string path = ctx.opt.scratch + "/trace-" + ctx.opt.workload +
                               ".json";
      if (!spans.writeChromeJson(path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf("spans: %zu recorded, %llu dropped -> %s\n", spans.size(),
                  static_cast<unsigned long long>(spans.dropped()),
                  path.c_str());
    } else {
      endToEnd(ctx);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  printResult(ctx);
  return 0;
}
