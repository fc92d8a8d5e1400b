#include "serve/daemon.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "bus/ec_signals.h"
#include "serve/json.h"
#include "sim/parallel_runner.h"

namespace sct::serve {

// ---------------------------------------------------------------------
// ServeEngine

ServeEngine::ServeEngine(const power::SignalEnergyTable& table,
                         unsigned workers)
    : table_(table), golden_(CardInstance::bootGolden(table_)) {
  if (workers == 0) workers = sim::defaultThreadCount();
  workers_.reserve(workers);
  try {
    for (unsigned i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { workerLoop(); });
    }
  } catch (...) {
    stopWorkers();  // Join the threads that did start.
    throw;
  }
}

ServeEngine::~ServeEngine() {
  drain();
  stopWorkers();
}

void ServeEngine::stopWorkers() {
  {
    std::lock_guard<std::mutex> lock(queueMutex_);
    stopping_ = true;
  }
  jobReady_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ServeEngine::workerLoop() {
  // This worker's card, built at its first job. Building the platform
  // once per worker (not per session) is most of what makes recycling
  // cheap.
  std::optional<CardInstance> card;
  std::unique_lock<std::mutex> lock(queueMutex_);
  for (;;) {
    jobReady_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // Stopping, and nothing left to serve.
    const Queued q = std::move(queue_.front());
    queue_.pop_front();
    ++running_;
    lock.unlock();
    try {
      if (!card) card.emplace(table_);
      card->recycle(golden_);
      const SessionOutcome outcome =
          card->runSession(buildScenario(q.job.scenario, q.job.seed));
      completed_.fetch_add(1);
      emit(q.sink, resultLine(q.job, outcome));
    } catch (const std::exception& e) {
      errors_.fetch_add(1);
      emit(q.sink, errorLine(q.job.id, e.what()));
    }
    lock.lock();
    if (--running_ == 0 && queue_.empty()) idle_.notify_all();
  }
}

void ServeEngine::emit(const Sink& sink, const std::string& line) {
  std::lock_guard<std::mutex> lock(emitMutex_);
  if (sink) sink(line);
}

void ServeEngine::submitLine(const std::string& line, Sink sink) {
  Job job;
  try {
    const JsonValue v = parseJson(line);
    if (!v.isObject()) throw JsonError("job line is not a JSON object");
    if (const JsonValue* id = v.find("id")) job.id = id->asString();
    if (const JsonValue* sc = v.find("scenario")) {
      job.scenario = sc->asString();
    }
    if (const JsonValue* seed = v.find("seed")) {
      // 2^53: every seed up to it survives a trip through a JSON double.
      job.seed = seed->asUint(std::uint64_t{1} << 53);
    }
    if (const JsonValue* f = v.find("fidelity")) {
      job.fidelity = f->asString();
    }
  } catch (const JsonError& e) {
    errors_.fetch_add(1);
    emit(sink, errorLine(job.id, e.what()));
    return;
  }
  if (job.scenario.empty()) {
    errors_.fetch_add(1);
    emit(sink, errorLine(job.id, "missing \"scenario\""));
    return;
  }
  if (!knownScenario(job.scenario)) {
    errors_.fetch_add(1);
    emit(sink, errorLine(job.id, "unknown scenario \"" + job.scenario + "\""));
    return;
  }
  if (job.fidelity != "tl1") {
    errors_.fetch_add(1);
    emit(sink, errorLine(job.id, "unsupported fidelity \"" + job.fidelity +
                                     "\" (this farm serves tl1)"));
    return;
  }
  submitJob(std::move(job), std::move(sink));
}

void ServeEngine::submitJob(Job job, Sink sink) {
  {
    std::lock_guard<std::mutex> lock(queueMutex_);
    queue_.push_back({std::move(job), std::move(sink)});
  }
  jobReady_.notify_one();
}

void ServeEngine::rejectLine(const std::string& reason, const Sink& sink) {
  errors_.fetch_add(1);
  emit(sink, errorLine("", reason));
}

void ServeEngine::drain() {
  std::unique_lock<std::mutex> lock(queueMutex_);
  idle_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

std::size_t ServeEngine::cancelPending() {
  std::lock_guard<std::mutex> lock(queueMutex_);
  const std::size_t dropped = queue_.size();
  queue_.clear();
  if (running_ == 0) idle_.notify_all();
  return dropped;
}

std::string ServeEngine::resultLine(const Job& job,
                                    const SessionOutcome& o) {
  std::string s = "{\"event\":\"result\",\"id\":";
  appendJsonString(s, job.id);
  s += ",\"scenario\":";
  appendJsonString(s, job.scenario);
  s += ",\"seed\":" + std::to_string(job.seed);
  s += ",\"ok\":";
  s += o.ok ? "true" : "false";
  s += ",\"expected\":";
  s += o.expected ? "true" : "false";
  s += ",\"sw\":[";
  for (std::size_t i = 0; i < o.sw.size(); ++i) {
    char sw[8];
    std::snprintf(sw, sizeof(sw), "\"%04X\"", o.sw[i]);
    if (i != 0) s += ',';
    s += sw;
  }
  s += "],\"cycles\":" + std::to_string(o.cycles);
  s += ",\"instructions\":" + std::to_string(o.instructions);
  const auto energy = [&s](std::uint64_t aJ) {
    appendJsonNumber(s, bus::toFemtojoules(aJ));
  };
  s += ",\"energy_fJ\":";
  energy(o.energy.total_aJ());
  s += ",\"by_class\":{";
  for (std::size_t i = 0; i < obs::kTxClassCount; ++i) {
    if (i != 0) s += ',';
    appendJsonString(s, obs::txClassName(static_cast<obs::TxClass>(i)));
    s += ':';
    energy(o.energy.byClass[i]);
  }
  s += "},\"by_bundle\":{";
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    if (i != 0) s += ',';
    appendJsonString(s, bus::signalName(static_cast<bus::SignalId>(i)));
    s += ':';
    energy(o.energy.byBundle[i]);
  }
  s += "},\"by_slave\":[";
  for (std::size_t i = 0; i < o.energy.bySlave.size(); ++i) {
    if (i != 0) s += ',';
    energy(o.energy.bySlave[i]);
  }
  s += ']';
  if (!o.error.empty()) {
    s += ",\"error\":";
    appendJsonString(s, o.error);
  }
  s += '}';
  return s;
}

std::string ServeEngine::errorLine(const std::string& id,
                                   const std::string& message) {
  std::string s = "{\"event\":\"error\",\"id\":";
  appendJsonString(s, id);
  s += ",\"error\":";
  appendJsonString(s, message);
  s += '}';
  return s;
}

// ---------------------------------------------------------------------
// Daemon front-ends

namespace {

/// Longest job line a client may send, newline excluded. Without a cap
/// a client streaming bytes with no newline grows the daemon's memory
/// without bound; no real job line comes near it.
constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

std::string overlongLineReason() {
  return "job line longer than " + std::to_string(kMaxLineBytes) +
         " bytes (discarded)";
}

/// One job source's partial-line state.
struct LineBuffer {
  std::string pending;      ///< Bytes after the last newline seen.
  bool discarding = false;  ///< Inside an over-long line: drop to its '\n'.
};

/// Append received bytes to `lb` and feed each complete line to `fn`.
/// A line longer than kMaxLineBytes is reported once through
/// `overlong` and discarded up to its newline, so the buffer never
/// holds more than the cap plus one read; serving continues with the
/// next line.
template <typename Fn, typename Overlong>
void drainLines(LineBuffer& lb, const char* data, std::size_t n, Fn&& fn,
                Overlong&& overlong) {
  lb.pending.append(data, n);
  std::size_t start = 0;
  while (true) {
    const std::size_t nl = lb.pending.find('\n', start);
    if (nl == std::string::npos) break;
    if (lb.discarding) {
      lb.discarding = false;  // The over-long line ends here.
    } else if (nl - start > kMaxLineBytes) {
      overlong();
    } else {
      std::string line = lb.pending.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) fn(line);
    }
    start = nl + 1;
  }
  lb.pending.erase(0, start);
  if (lb.discarding) {
    lb.pending.clear();
  } else if (lb.pending.size() > kMaxLineBytes) {
    overlong();
    lb.discarding = true;
    lb.pending.clear();
  }
}

void writeLine(std::FILE* out, const std::string& line) {
  // One fwrite for the whole line + newline: a reader that catches the
  // stream mid-shutdown still sees only complete lines.
  std::string full = line;
  full.push_back('\n');
  std::fwrite(full.data(), 1, full.size(), out);
  std::fflush(out);
}

void writeSummary(std::FILE* out, const ServeEngine& engine,
                  std::size_t dropped) {
  std::string s = "{\"event\":\"done\",\"completed\":" +
                  std::to_string(engine.completed()) +
                  ",\"errors\":" + std::to_string(engine.errors()) +
                  ",\"dropped\":" + std::to_string(dropped) + "}";
  writeLine(out, s);
}

int runStdinDaemon(ServeEngine& engine, std::FILE* in, std::FILE* out,
                   const volatile std::sig_atomic_t* stop) {
  const ServeEngine::Sink sink = [out](const std::string& line) {
    writeLine(out, line);
  };

  const int fd = fileno(in);
  LineBuffer buf;
  bool eof = false;
  while (!*stop && !eof) {
    struct pollfd p;
    p.fd = fd;
    p.events = POLLIN;
    p.revents = 0;
    const int pr = ::poll(&p, 1, 100);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    drainLines(
        buf, chunk, static_cast<std::size_t>(n),
        [&](const std::string& line) { engine.submitLine(line, sink); },
        [&] { engine.rejectLine(overlongLineReason(), sink); });
  }
  // A job file without a trailing newline still counts — but only on
  // EOF; on a signal the partial line was never a complete job.
  if (eof && !buf.pending.empty()) engine.submitLine(buf.pending, sink);

  const std::size_t dropped = *stop ? engine.cancelPending() : 0;
  engine.drain();
  writeSummary(out, engine, dropped);
  return 0;
}

/// A client's socket, owned jointly by the poll loop and every sink
/// that may still send it a result. The fd closes with its last owner,
/// so its number cannot be handed to a new client while a late result
/// could still be sent through it.
struct SocketFd {
  explicit SocketFd(int f) : fd(f) {}
  SocketFd(const SocketFd&) = delete;
  SocketFd& operator=(const SocketFd&) = delete;
  ~SocketFd() { ::close(fd); }
  const int fd;
};

struct SocketClient {
  std::shared_ptr<const SocketFd> sock;
  LineBuffer in;
};

int runSocketDaemon(ServeEngine& engine, const std::string& path,
                    std::FILE* out,
                    const volatile std::sig_atomic_t* stop) {
  const int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listenFd < 0) {
    std::fprintf(stderr, "sct_serve: socket(): %s\n", std::strerror(errno));
    return 1;
  }
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "sct_serve: socket path too long\n");
    ::close(listenFd);
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(listenFd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listenFd, 8) < 0) {
    std::fprintf(stderr, "sct_serve: bind/listen(%s): %s\n", path.c_str(),
                 std::strerror(errno));
    ::close(listenFd);
    return 1;
  }

  std::vector<SocketClient> clients;
  while (!*stop) {
    std::vector<pollfd> fds;
    fds.push_back({listenFd, POLLIN, 0});
    for (const SocketClient& c : clients) {
      fds.push_back({c.sock->fd, POLLIN, 0});
    }
    const int pr = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) continue;

    if (fds[0].revents & POLLIN) {
      const int cfd = ::accept(listenFd, nullptr, nullptr);
      if (cfd >= 0) {
        clients.push_back({std::make_shared<const SocketFd>(cfd), {}});
        continue;  // Re-poll with the new fd included.
      }
    }

    for (std::size_t i = 0; i < clients.size();) {
      SocketClient& c = clients[i];
      const short revents = fds[i + 1].revents;
      bool dead = (revents & POLLERR) != 0;
      // A client that sent its jobs and hung up reports POLLHUP with
      // the jobs still unread: read on until recv() returns 0.
      if (!dead && (revents & (POLLIN | POLLHUP))) {
        char chunk[4096];
        const ssize_t n = ::recv(c.sock->fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
          const ServeEngine::Sink sink =
              [sock = c.sock](const std::string& result) {
                std::string full = result;
                full.push_back('\n');
                // Best-effort: a client that vanished mid-session just
                // loses its line (MSG_NOSIGNAL keeps EPIPE an errno).
                const ssize_t rc = ::send(sock->fd, full.data(), full.size(),
                                          MSG_NOSIGNAL);
                (void)rc;
              };
          drainLines(
              c.in, chunk, static_cast<std::size_t>(n),
              [&](const std::string& line) { engine.submitLine(line, sink); },
              [&] { engine.rejectLine(overlongLineReason(), sink); });
        } else if (n == 0 || (n < 0 && errno != EINTR)) {
          dead = true;
        }
      }
      if (dead) {
        // Sinks of its queued jobs still hold the fd: end the
        // connection now, let the last holder close the number.
        ::shutdown(c.sock->fd, SHUT_RDWR);
        clients.erase(clients.begin() + static_cast<long>(i));
        // fds is stale now; break to re-poll.
        break;
      }
      ++i;
    }
  }

  const std::size_t dropped = engine.cancelPending();
  engine.drain();
  clients.clear();  // Drop the poll loop's hold on every client fd.
  ::close(listenFd);
  ::unlink(path.c_str());
  writeSummary(out, engine, dropped);
  return 0;
}

} // namespace

int runDaemon(const DaemonOptions& options,
              const power::SignalEnergyTable& table, std::FILE* in,
              std::FILE* out, const volatile std::sig_atomic_t* stop) {
  ServeEngine engine(table, options.workers);
  if (options.socketPath.empty()) {
    return runStdinDaemon(engine, in, out, stop);
  }
  return runSocketDaemon(engine, options.socketPath, out, stop);
}

} // namespace sct::serve
