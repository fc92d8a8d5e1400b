#include "sim/parallel_runner.h"

#include <cstdlib>

namespace sct::sim {

unsigned defaultThreadCount() {
  if (const char* env = std::getenv("SCT_THREADS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void runIndexed(std::size_t count, unsigned threads,
                const std::function<void(std::size_t)>& fn) {
  struct NoRig {};
  runWorkers(
      count, threads, [] { return NoRig{}; },
      [&fn](NoRig&, std::size_t i) { fn(i); });
}

} // namespace sct::sim
