// Boot-once / fork-many exploration driver.
//
// The paper's Section 4.3 exploration re-simulates the same applet
// under dozens of interface configurations, and every job pays for the
// identical SoC boot prefix again. ForkRunner amortizes that prefix:
// one parent system boots to a quiesce point and is checkpointed; each
// configuration variant then restores the shared snapshot and runs
// only its own measured phase. Restores go into a recycled rig — each
// worker builds one system and restores into it once per variant (the
// serve::CardInstance discipline), so the platform construction cost is
// paid per worker, not per variant. Restore-equivalence (tests/ckpt)
// guarantees every fork continues bit-identically to a system that had
// executed the boot itself, so the sweep's results are unchanged — only
// the boot and construction costs are paid once.
#ifndef SCT_CKPT_FORK_RUNNER_H
#define SCT_CKPT_FORK_RUNNER_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <utility>

#include "ckpt/checkpoint.h"
#include "sim/parallel_runner.h"

namespace sct::ckpt {

class ForkRunner {
 public:
  /// Runs the boot phase once, on the calling thread, and keeps its
  /// snapshot. The callback builds the parent system, drives it to a
  /// quiesce point and returns CheckpointRegistry::saveAll(); any
  /// shared prototype images the parent's slaves read through must
  /// outlive the runner (see MemorySlave::saveState).
  explicit ForkRunner(const std::function<Snapshot()>& boot)
      : snapshot_(boot()) {}

  /// Adopt an existing snapshot (e.g. Snapshot::loadFile of a golden
  /// boot checkpoint) instead of booting.
  explicit ForkRunner(Snapshot snapshot) : snapshot_(std::move(snapshot)) {}

  /// Fan `count` variants out over min(threads, count) workers
  /// (threads 0 = default pool size, 1 = strictly sequential in-caller
  /// — the reference sweep order). Each worker builds ONE rig with
  /// `makeRig()` and then serves variant indices taken from a shared
  /// counter, calling `variant(rig, snapshot, i)` for each.
  ///
  /// The variant body owns the recycling contract: it first restores
  /// the snapshot into the rig (CheckpointRegistry::loadAll covers every
  /// checkpointed section), then resets whatever state the snapshot
  /// does not carry — profilers, replay masters, codecs, hooks — before
  /// applying its configuration delta and running. The snapshot is
  /// shared by const reference (immutable plain data, safe to share).
  ///
  /// `makeRig` returns the rig by value; guaranteed copy elision lets
  /// the rig be a non-movable type whose members register their own
  /// addresses. Results are written into caller-owned slots keyed by
  /// the variant index, exactly the ParallelRunner discipline, so the
  /// collected output does not depend on which worker ran which index.
  template <typename MakeRig, typename Variant>
  void runForks(std::size_t count, unsigned threads, const MakeRig& makeRig,
                const Variant& variant) const {
    if (threads == 0) threads = sim::ParallelRunner::defaultThreadCount();
    const auto workers =
        static_cast<unsigned>(std::min<std::size_t>(threads, count));
    std::atomic<std::size_t> next{0};
    sim::ParallelRunner::runIndexed(workers, workers, [&](std::size_t) {
      auto rig = makeRig();
      for (std::size_t i = next++; i < count; i = next++) {
        variant(rig, snapshot_, i);
      }
    });
  }

  const Snapshot& snapshot() const { return snapshot_; }

 private:
  Snapshot snapshot_;
};

} // namespace sct::ckpt

#endif // SCT_CKPT_FORK_RUNNER_H
