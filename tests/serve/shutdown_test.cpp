// Regressions on the REAL daemon binary (path injected by CMake as
// SCT_SERVE_BIN), fed over its stdin pipe.
//
// Graceful shutdown: a batch of jobs over a pipe held open so the
// daemon stays mid-batch, SIGTERM once results start flowing, and then
// the contract: the process exits 0, every output line is complete
// valid JSON (no truncation — results are emitted with one atomic
// write each), the stream ends with exactly one {"event":"done"}
// summary, and the summary's completed count matches the result lines
// actually seen.
//
// Line cap: a job line past the 1 MiB limit is refused with one error
// line and discarded, and the job after it is still served.
//
// Socket mode: each client gets only its own result lines, also when
// an earlier client hung up with its jobs still queued.
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.h"

namespace sct {
namespace {

struct DaemonRun {
  pid_t pid = -1;
  int toChild = -1;    ///< Write end of the daemon's stdin.
  int fromChild = -1;  ///< Read end of the daemon's stdout.
};

DaemonRun spawnDaemon(std::vector<std::string> args = {"--workers", "2",
                                                      "--table", "fixed"}) {
  std::vector<char*> argv = {const_cast<char*>(SCT_SERVE_BIN)};
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int inPipe[2];
  int outPipe[2];
  if (pipe(inPipe) != 0 || pipe(outPipe) != 0) {
    ADD_FAILURE() << "pipe(): " << std::strerror(errno);
    return {};
  }
  const pid_t pid = fork();
  if (pid == 0) {
    dup2(inPipe[0], STDIN_FILENO);
    dup2(outPipe[1], STDOUT_FILENO);
    close(inPipe[0]);
    close(inPipe[1]);
    close(outPipe[0]);
    close(outPipe[1]);
    execv(SCT_SERVE_BIN, argv.data());
    _exit(127);
  }
  close(inPipe[0]);
  close(outPipe[1]);
  DaemonRun run;
  run.pid = pid;
  run.toChild = inPipe[1];
  run.fromChild = outPipe[0];
  return run;
}

/// Write all of `data`, however the pipe splits it.
void writeAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0) << "write(): " << std::strerror(errno);
    off += static_cast<std::size_t>(n);
  }
}

/// Split daemon output into its lines (the trailing newline required).
std::vector<std::string> splitLines(const std::string& out) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (true) {
    const std::size_t nl = out.find('\n', start);
    if (nl == std::string::npos) break;
    lines.push_back(out.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// Read until EOF (the child closing stdout on exit).
std::string readAll(int fd) {
  std::string out;
  char chunk[4096];
  while (true) {
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      out.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  return out;
}

TEST(ServeShutdown, SigtermMidBatchDrainsCleanly) {
  DaemonRun run = spawnDaemon();
  ASSERT_GT(run.pid, 0);

  // Enough jobs that the daemon is still working when the signal
  // lands; the pipe stays open so stdin never reaches EOF.
  std::string jobs;
  for (int i = 0; i < 400; ++i) {
    jobs += "{\"id\":\"k" + std::to_string(i) +
            "\",\"scenario\":\"auth\",\"seed\":" + std::to_string(i) + "}\n";
  }
  ASSERT_EQ(write(run.toChild, jobs.data(), jobs.size()),
            static_cast<ssize_t>(jobs.size()));

  // Wait until at least one result line came out (the daemon booted
  // its golden snapshot and is mid-batch), then pull the plug.
  std::string out;
  char chunk[4096];
  const int kBootTimeoutMs = 120000;
  int waited = 0;
  while (out.find('\n') == std::string::npos && waited < kBootTimeoutMs) {
    struct pollfd p;
    p.fd = run.fromChild;
    p.events = POLLIN;
    p.revents = 0;
    const int pr = poll(&p, 1, 100);
    waited += 100;
    if (pr <= 0) continue;
    const ssize_t n = read(run.fromChild, chunk, sizeof(chunk));
    if (n > 0) out.append(chunk, static_cast<std::size_t>(n));
  }
  ASSERT_NE(out.find('\n'), std::string::npos)
      << "daemon produced no results before the timeout";

  ASSERT_EQ(kill(run.pid, SIGTERM), 0);
  out += readAll(run.fromChild);
  close(run.fromChild);
  close(run.toChild);

  int status = 0;
  ASSERT_EQ(waitpid(run.pid, &status, 0), run.pid);
  EXPECT_TRUE(WIFEXITED(status)) << "daemon did not exit (killed?)";
  EXPECT_EQ(WEXITSTATUS(status), 0) << "graceful shutdown must exit 0";

  // Every line complete and parseable; exactly one trailing summary.
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), '\n') << "output ends mid-line";
  const std::vector<std::string> lines = splitLines(out);
  ASSERT_FALSE(lines.empty());

  std::size_t results = 0;
  std::size_t dones = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    SCOPED_TRACE("line " + std::to_string(i));
    serve::JsonValue v;
    ASSERT_NO_THROW(v = serve::parseJson(lines[i]))
        << "truncated/corrupt line: " << lines[i];
    const std::string event = v.find("event")->asString();
    if (event == "result") {
      ++results;
      EXPECT_LT(i, lines.size() - 1) << "result after the done summary";
    } else if (event == "done") {
      ++dones;
      EXPECT_EQ(i, lines.size() - 1) << "done must be the final line";
      EXPECT_EQ(v.find("completed")->asNumber(),
                static_cast<double>(results));
      // The signal landed mid-batch: queued jobs were dropped rather
      // than silently discarded.
      EXPECT_GE(v.find("dropped")->asNumber(), 0.0);
    }
  }
  EXPECT_GT(results, 0u);
  EXPECT_EQ(dones, 1u);
}

TEST(ServeDaemon, OverlongLineIsRefusedAndServingContinues) {
  DaemonRun run = spawnDaemon();
  ASSERT_GT(run.pid, 0);

  // A well-formed job padded to twice the 1 MiB line cap — it would
  // run if the daemon buffered it — then an ordinary job, then EOF.
  const std::string big = "{\"id\":\"big\",\"scenario\":\"auth\",\"pad\":\"" +
                          std::string(std::size_t{2} << 20, 'x') + "\"}\n";
  const std::string after =
      "{\"id\":\"after\",\"scenario\":\"auth\",\"seed\":1}\n";
  writeAll(run.toChild, big + after);
  close(run.toChild);
  const std::string out = readAll(run.fromChild);
  close(run.fromChild);

  int status = 0;
  ASSERT_EQ(waitpid(run.pid, &status, 0), run.pid);
  EXPECT_TRUE(WIFEXITED(status)) << "daemon did not exit (killed?)";
  EXPECT_EQ(WEXITSTATUS(status), 0);

  std::size_t overlongErrors = 0;
  std::size_t afterResults = 0;
  std::size_t bigResults = 0;
  const std::vector<std::string> lines = splitLines(out);
  ASSERT_FALSE(lines.empty());
  for (const std::string& line : lines) {
    SCOPED_TRACE(line.substr(0, 200));
    serve::JsonValue v;
    ASSERT_NO_THROW(v = serve::parseJson(line));
    const std::string event = v.find("event")->asString();
    if (event == "error") {
      EXPECT_NE(v.find("error")->asString().find("longer than"),
                std::string::npos);
      ++overlongErrors;
    } else if (event == "result") {
      const std::string id = v.find("id")->asString();
      afterResults += id == "after" ? 1 : 0;
      bigResults += id == "big" ? 1 : 0;
    }
  }
  EXPECT_EQ(overlongErrors, 1u) << "one error line per over-long line";
  EXPECT_EQ(bigResults, 0u) << "the over-long job must not run";
  EXPECT_EQ(afterResults, 1u) << "the job after it must still be served";
  const serve::JsonValue done = serve::parseJson(lines.back());
  EXPECT_EQ(done.find("event")->asString(), "done");
  EXPECT_EQ(done.find("completed")->asNumber(), 1.0);
  EXPECT_EQ(done.find("errors")->asNumber(), 1.0);
}

/// Connect to the daemon's unix socket, retrying while it boots its
/// golden snapshot. Returns -1 on timeout.
int connectWhenListening(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  for (int waitedMs = 0; waitedMs < 120000; waitedMs += 10) {
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

std::string jobLines(const std::string& prefix, int count) {
  std::string jobs;
  for (int i = 0; i < count; ++i) {
    jobs += "{\"id\":\"" + prefix + std::to_string(i) +
            "\",\"scenario\":\"auth\",\"seed\":" + std::to_string(i) +
            "}\n";
  }
  return jobs;
}

TEST(ServeDaemon, SocketClientsGetOnlyTheirOwnLines) {
  const std::string path = ::testing::TempDir() + "sct_serve_" +
                           std::to_string(getpid()) + ".sock";
  DaemonRun run = spawnDaemon(
      {"--workers", "1", "--table", "fixed", "--socket", path});
  ASSERT_GT(run.pid, 0);

  // Client A queues 300 jobs and hangs up without reading: its results
  // go nowhere, and its fd must not be reused while they are sent.
  const int a = connectWhenListening(path);
  ASSERT_GE(a, 0) << "daemon never listened on " << path;
  writeAll(a, jobLines("a", 300));
  close(a);

  // Client B, likely given A's fd number, must read exactly its own two
  // results, queued behind A's.
  const int b = connectWhenListening(path);
  ASSERT_GE(b, 0);
  writeAll(b, jobLines("b", 2));
  std::string got;
  char chunk[4096];
  while (splitLines(got).size() < 2) {
    struct pollfd p;
    p.fd = b;
    p.events = POLLIN;
    p.revents = 0;
    ASSERT_GT(poll(&p, 1, 120000), 0) << "client B got no results";
    const ssize_t n = read(b, chunk, sizeof(chunk));
    ASSERT_GT(n, 0) << "daemon closed client B early";
    got.append(chunk, static_cast<std::size_t>(n));
  }

  ASSERT_EQ(kill(run.pid, SIGTERM), 0);
  got += readAll(b);  // The daemon closes B on shutdown.
  close(b);
  const std::string out = readAll(run.fromChild);
  close(run.fromChild);
  close(run.toChild);
  int status = 0;
  ASSERT_EQ(waitpid(run.pid, &status, 0), run.pid);
  EXPECT_TRUE(WIFEXITED(status)) << "daemon did not exit (killed?)";
  EXPECT_EQ(WEXITSTATUS(status), 0);

  std::vector<std::string> ids;
  for (const std::string& line : splitLines(got)) {
    SCOPED_TRACE(line);
    serve::JsonValue v;
    ASSERT_NO_THROW(v = serve::parseJson(line));
    EXPECT_EQ(v.find("event")->asString(), "result");
    ids.push_back(v.find("id")->asString());
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"b0", "b1"}));

  // Stdout carries only the summary; every job was served or dropped.
  const std::vector<std::string> lines = splitLines(out);
  ASSERT_EQ(lines.size(), 1u) << out;
  const serve::JsonValue done = serve::parseJson(lines[0]);
  EXPECT_EQ(done.find("event")->asString(), "done");
  EXPECT_EQ(done.find("completed")->asNumber() +
                done.find("dropped")->asNumber(),
            302.0);
}

} // namespace
} // namespace sct
