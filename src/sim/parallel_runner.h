// Worker pool for independent simulations.
//
// A simulation is single-threaded by design (one Kernel and its one
// Clock per simulation, no locks on the hot path). Design-space exploration, ablations,
// characterization sweeps and checkpoint fork sweeps, however, run many
// *independent* simulations — one per interface configuration, wait-
// state setting, supply voltage or forked variant — and those scale
// with cores trivially. runWorkers is the one shape every sweep uses:
// up to `threads` workers, each builds one *rig* (whatever per-worker
// state its simulations recycle — typically a platform that a snapshot
// is restored into per variant) and then pulls indices from one shared
// counter. Results go into caller-owned slots keyed by index, so the
// collected output is deterministic and identical to a sequential sweep
// regardless of scheduling.
//
// Sharing rules (enforced by convention, documented per type):
//  * read-only inputs — trace::BusTrace, power::SignalEnergyTable,
//    jcvm::JcProgram, ckpt::Snapshot — may be shared across workers by
//    const reference; they are plain data with no hidden mutable state.
//  * anything attached to a Clock must be created and used by one
//    worker: inside one index, or inside that worker's rig.
#ifndef SCT_SIM_PARALLEL_RUNNER_H
#define SCT_SIM_PARALLEL_RUNNER_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace sct::sim {

/// Hardware concurrency, overridable with the SCT_THREADS environment
/// variable (useful to pin benches to one core or to oversubscribe
/// deliberately; 0 or a non-numeric value keeps the hardware count).
/// At least 1.
unsigned defaultThreadCount();

/// Run body(rig, 0) .. body(rig, count-1) over min(threads, count)
/// workers, the calling thread counted as one (threads 0 =
/// defaultThreadCount()). Each worker builds ONE rig with `makeRig()`
/// and then serves indices taken from a shared counter. When one worker
/// suffices, every call happens in the caller in index order — the
/// reference sequential behaviour.
///
/// `makeRig` returns the rig by value; guaranteed copy elision lets the
/// rig be a non-movable type whose members register their own
/// addresses. If a body or makeRig throws, no further index is handed
/// out, every worker is joined, and the first exception is rethrown to
/// the caller.
template <typename MakeRig, typename Body>
void runWorkers(std::size_t count, unsigned threads, const MakeRig& makeRig,
                const Body& body) {
  if (threads == 0) threads = defaultThreadCount();
  const std::size_t workers = std::min<std::size_t>(threads, count);
  if (workers == 0) return;
  if (workers == 1) {
    auto rig = makeRig();
    for (std::size_t i = 0; i < count; ++i) body(rig, i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // Written by the one worker that set `failed`.
  const auto work = [&] {
    try {
      auto rig = makeRig();
      for (std::size_t i = next++; i < count && !failed; i = next++) {
        body(rig, i);
      }
    } catch (...) {
      if (!failed.exchange(true)) error = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> helpers;  // Joined when the block ends.
    helpers.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) helpers.emplace_back(work);
    work();
  }
  if (error) std::rethrow_exception(error);
}

/// Run fn(0) .. fn(count-1): runWorkers without a rig.
void runIndexed(std::size_t count, unsigned threads,
                const std::function<void(std::size_t)>& fn);

} // namespace sct::sim

#endif // SCT_SIM_PARALLEL_RUNNER_H
