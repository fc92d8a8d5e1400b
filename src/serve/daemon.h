// The card-farm serving engine and daemon front-ends.
//
// ServeEngine is the heart: it boots ONE card to a golden quiesce
// snapshot (CardInstance::bootGolden) and starts its worker threads,
// which pull session jobs from one FIFO. Each worker owns one
// CardInstance, built at its first job; every job recycles that
// instance from the golden snapshot (restore ≫ faster than booting,
// and it rewinds the power accumulators for bit-identical deltas), runs
// the scenario script, and streams one NDJSON result line through the
// job's sink as soon as it finishes. Any worker can serve any job: all
// instances recycle from the same snapshot. Sinks are invoked under one
// engine-wide mutex and emit a line atomically, so concurrent workers
// can never interleave partial lines — the shutdown regression test
// reads daemon output mid-kill and every line must still parse.
//
// The daemon front-ends (runDaemon) wrap the engine in a job source:
// newline-delimited JSON on stdin (job files, pipes) or a unix domain
// socket serving multiple concurrent clients, each getting its own
// results back. Both cap a job line at 1 MiB: a longer line gets one
// error line and is discarded up to its newline, so no client can grow
// the daemon's buffers without bound. Both honor a caller-owned stop
// flag (set from SIGINT/SIGTERM handlers): pending jobs are cancelled,
// in-flight sessions drain, partial results flush, and a final summary
// line {"event":"done","completed":N,"dropped":M} precedes a clean
// exit.
//
// Job line:    {"id":"s1","scenario":"auth","seed":7,"fidelity":"tl1"}
// Result line: {"event":"result","id":"s1",...,"energy_fJ":...,
//               "by_class":{...},"by_bundle":{...},...}
// Error line:  {"event":"error","id":"s1","error":"..."}
//
// Only fidelity "tl1" is served: the golden snapshot is a TL1 platform
// image, and per-session energy attribution needs the cycle-accurate
// ledger hookup. Other fidelity strings yield an error line (the field
// exists so TL2 farms can slot in without a protocol change).
#ifndef SCT_SERVE_DAEMON_H
#define SCT_SERVE_DAEMON_H

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "power/coeff_table.h"
#include "serve/card_instance.h"

namespace sct::serve {

/// One parsed session job.
struct Job {
  std::string id;
  std::string scenario;
  std::uint64_t seed = 0;
  std::string fidelity = "tl1";
};

class ServeEngine {
 public:
  /// Receives one complete result/error line (no trailing newline).
  /// Called under the engine's emit lock — implementations must not
  /// re-enter the engine.
  using Sink = std::function<void(const std::string& line)>;

  /// Boots the golden snapshot (the one full card boot the whole farm
  /// pays) and starts `workers` worker threads (0 picks
  /// sim::defaultThreadCount()).
  ServeEngine(const power::SignalEnergyTable& table, unsigned workers);
  /// Finishes every queued job (implicit drain()), then joins.
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Parse one NDJSON job line and dispatch it. Malformed lines and
  /// unknown scenarios/fidelities produce an immediate error line on
  /// `sink`; valid jobs produce a result line when the session ends.
  void submitLine(const std::string& line, Sink sink);

  /// Dispatch an already validated job.
  void submitJob(Job job, Sink sink);

  /// Refuse a line the front end would not parse (e.g. one over the
  /// line-length cap): counts an error and emits one error line with an
  /// empty id on `sink`.
  void rejectLine(const std::string& reason, const Sink& sink);

  /// Block until every dispatched session has finished.
  void drain();

  /// Drop not-yet-started jobs (graceful shutdown); returns how many.
  std::size_t cancelPending();

  std::uint64_t completed() const { return completed_.load(); }
  std::uint64_t errors() const { return errors_.load(); }
  unsigned workerCount() const {
    return static_cast<unsigned>(workers_.size());
  }
  const ckpt::Snapshot& golden() const { return golden_; }

  /// The exact line a finished session emits (exposed for the
  /// determinism suite, which compares lines across thread counts).
  static std::string resultLine(const Job& job, const SessionOutcome& o);
  static std::string errorLine(const std::string& id,
                               const std::string& message);

 private:
  struct Queued {
    Job job;
    Sink sink;
  };

  void workerLoop();
  /// Let every worker finish the queue and exit, then join them.
  void stopWorkers();
  void emit(const Sink& sink, const std::string& line);

  power::SignalEnergyTable table_;
  ckpt::Snapshot golden_;
  std::mutex emitMutex_;
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> errors_{0};

  std::mutex queueMutex_;  ///< Guards queue_, running_ and stopping_.
  std::condition_variable jobReady_;
  std::condition_variable idle_;
  std::deque<Queued> queue_;
  std::size_t running_ = 0;  ///< Jobs taken off the queue, not finished.
  bool stopping_ = false;
  std::vector<std::thread> workers_;  ///< Last: started once all else is.
};

struct DaemonOptions {
  unsigned workers = 0;       ///< 0 → defaultThreadCount().
  std::string socketPath;     ///< Empty → read jobs from `in`.
};

/// Run a serve daemon until the job source ends or `*stop` becomes
/// non-zero. Stdin mode reads NDJSON jobs from `in` and writes results
/// to `out`; socket mode listens on options.socketPath, serves each
/// connected client its own results, and writes the final summary to
/// `out`. Returns the process exit code (0 on clean shutdown,
/// including signal-initiated drains).
int runDaemon(const DaemonOptions& options,
              const power::SignalEnergyTable& table, std::FILE* in,
              std::FILE* out, const volatile std::sig_atomic_t* stop);

} // namespace sct::serve

#endif // SCT_SERVE_DAEMON_H
