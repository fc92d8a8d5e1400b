// MIPS-subset instruction-set simulator with caches and EC bus port.
//
// Models the processor core of the paper's target platform at the
// fidelity the experiments need: it executes real MIPS32 encodings one
// instruction per cycle, keeps direct-mapped instruction and data
// caches whose refills appear as 4-beat EC bursts, posts stores through
// a write buffer (up to the EC limit of four outstanding writes), and
// stalls on refills and uncached accesses. It drives the non-blocking
// EC master interfaces on rising clock edges — the discipline the
// paper's assembly test programs exercised on the RTL.
//
// Simplifications (documented): no branch delay slots, no TLB/MMU (the
// 4KSc's fixed mapping is identity here), no precise exceptions —
// SYSCALL/BREAK halt the core, a bus error or invalid opcode halts with
// an error flag.
#ifndef SCT_SOC_CPU_H
#define SCT_SOC_CPU_H

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "bus/ec_interfaces.h"
#include "bus/ec_request.h"
#include "ckpt/state_io.h"
#include "obs/stats.h"
#include "sim/clock.h"
#include "sim/module.h"
#include "soc/cache.h"
#include "soc/decoded_block.h"
#include "soc/isa.h"

namespace sct::soc {

struct CpuConfig {
  bus::Address resetPc = 0;
  /// Interrupt vector. When an interrupt source is connected and
  /// reports a pending line, the core saves PC to EPC and jumps here;
  /// the handler returns with ERET. 0 disables interrupt dispatch.
  bus::Address irqVector = 0;
  std::size_t icacheBytes = 4096;
  std::size_t dcacheBytes = 4096;
  std::size_t lineBytes = 16;  ///< Must equal the EC burst (4 words).
  /// Addresses at or above this are uncached (memory-mapped SFRs).
  bus::Address uncachedBase = 0x10000000;
  unsigned storeBufferDepth = 4;  ///< <= EC outstanding-write limit.
  /// Dispatch through the decoded-block cache (decode each basic block
  /// once, re-execute from pre-resolved entries). Architecturally and
  /// cycle-wise identical to decode-on-fetch — the off setting exists
  /// for the equivalence suite and as the seed baseline in benchmarks.
  bool decodedBlockCache = true;
};

struct CpuStats {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t ifetchStallCycles = 0;
  std::uint64_t loadStallCycles = 0;
  std::uint64_t storeStallCycles = 0;

  double cpi() const {
    return instructions == 0
               ? 0.0
               : static_cast<double>(cycles) /
                     static_cast<double>(instructions);
  }
};

class MipsCore final : public sim::Module {
 public:
  MipsCore(sim::Clock& clock, std::string name, bus::EcInstrIf& instrIf,
           bus::EcDataIf& dataIf, const CpuConfig& config = CpuConfig{});
  ~MipsCore() override;

  /// Restart execution at `pc` with cleared registers and caches.
  void reset(bus::Address pc);

  bool halted() const { return state_ == State::Halted && storeBusy_ == 0; }
  /// True when the core stopped because of a bus error or invalid
  /// opcode rather than SYSCALL/BREAK.
  bool faulted() const { return faulted_; }
  /// True when the core has nothing in flight on the bus: no submitted
  /// instruction fetch or load, no store draining. This is the CPU half
  /// of the platform quiesce predicate checkpoints enforce; pollers
  /// (power::CardRig::quiesced) combine it with the bus's own
  /// outstandingTotal() == 0 instead of try/catching CheckpointError
  /// every cycle.
  bool busQuiesced() const {
    return !ifetchSubmitted_ && !loadSubmitted_ && storeBusy_ == 0;
  }

  std::uint32_t reg(unsigned index) const { return regs_[index & 31]; }
  void setReg(unsigned index, std::uint32_t value) {
    if ((index & 31) != 0) regs_[index & 31] = value;
  }
  bus::Address pc() const { return pc_; }
  std::uint32_t hi() const { return hi_; }
  std::uint32_t lo() const { return lo_; }

  const CpuStats& stats() const { return stats_; }
  const Cache& icache() const { return icache_; }
  const Cache& dcache() const { return dcache_; }
  const BlockCacheStats& blockCacheStats() const { return blocks_.stats(); }

  /// Drop any cached instruction state covering [addr, addr+bytes):
  /// icache lines and the decoded blocks derived from them. External
  /// image mutators (DMA-style backdoor writes, JCVM code stores that
  /// bypass the data port) must call this, exactly like software would
  /// run a cache op after patching code.
  void invalidateICacheRange(bus::Address addr, std::size_t bytes);

  /// Publish dispatch-loop counters (iss.block_hits, iss.block_misses,
  /// iss.invalidations) into `reg`.
  void publishObs(obs::StatsRegistry& reg) const;

  /// Drive the clock until the core halts. Returns true if it halted
  /// within `maxCycles`.
  bool runUntilHalt(std::uint64_t maxCycles = 10'000'000);

  /// Connect the interrupt request line (e.g. the interrupt
  /// controller's masked pending word). Sampled at instruction
  /// boundaries; a non-zero value outside a handler vectors the core.
  void setInterruptSource(std::function<std::uint32_t()> source) {
    irqSource_ = std::move(source);
  }

  bus::Address epc() const { return epc_; }
  bool inInterruptHandler() const { return inIsr_; }
  std::uint64_t interruptsTaken() const { return interruptsTaken_; }

  /// -- Checkpoint (see ckpt/checkpoint.h): only legal with no bus
  /// transaction in flight (no submitted fetch/load, empty store
  /// buffer — guaranteed at a quiesce point). Architectural state,
  /// caches, the stall micro-state and the pending request payloads
  /// all travel. The restore target must share the cache geometry.
  /// loadState throws ckpt::CheckpointError, naming the field, for a
  /// state, request kind, size, result or stage byte or a decoded op
  /// that names no enumerator, for a register index past 31, and for a
  /// waiting line-fill load whose address lies outside the filled words.
  static constexpr std::uint32_t kCkptVersion = 1;
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  enum class State : std::uint8_t {
    Running,
    WaitIFetch,
    WaitLoad,
    WaitStoreSlot,
    Halted,
  };

  void onRisingEdge();
  void pollStores();
  void executeOne();
  void executeDecoded(const DecodedInstr& d);
  void retire(bus::Address nextPc);
  void startIFetch(bus::Address pcLine);
  void startLoad(const DecodedInstr& d, bus::Address addr);
  bool storeBufferOverlaps(bus::Address addr) const;
  bool startStore(const DecodedInstr& d, bus::Address addr);
  void finishLoad();
  void writeLoadResult(bus::Word wordOnBus);
  static std::uint32_t extractLane(bus::Word word, bus::Address addr, Op op);
  void halt(bool fault);

  sim::Clock& clock_;
  sim::Clock::HandlerId handlerId_;
  bus::EcInstrIf& instrIf_;
  bus::EcDataIf& dataIf_;
  CpuConfig config_;

  std::array<std::uint32_t, 32> regs_{};
  std::uint32_t hi_ = 0;
  std::uint32_t lo_ = 0;
  bus::Address pc_ = 0;
  bus::Address epc_ = 0;
  bool inIsr_ = false;
  std::function<std::uint32_t()> irqSource_;
  std::uint64_t interruptsTaken_ = 0;
  State state_ = State::Halted;
  bool haltPending_ = false;
  bool faulted_ = false;

  Cache icache_;
  Cache dcache_;

  // Decoded-block dispatch (derived state: flushed on reset and on
  // checkpoint restore, never serialized). The cursor tracks the op the
  // PC points at inside the current block; it survives only sequential
  // flow and is dropped on any redirect.
  BlockCache blocks_;
  const BlockCache::Block* curBlock_ = nullptr;
  std::uint32_t curIdx_ = 0;

  bus::Tl1Request ifetchReq_;
  bool ifetchSubmitted_ = false;
  bus::Tl1Request loadReq_;
  bool loadSubmitted_ = false;
  bool loadIsCached_ = false;
  DecodedInstr loadInstr_{};
  bus::Address loadAddr_ = 0;
  std::array<bus::Tl1Request, bus::kMaxOutstandingPerClass> storeReqs_{};
  std::array<bool, bus::kMaxOutstandingPerClass> storeActive_{};
  unsigned storeBusy_ = 0;
  DecodedInstr pendingStore_{};
  bus::Address pendingStoreAddr_ = 0;

  CpuStats stats_;
};

} // namespace sct::soc

#endif // SCT_SOC_CPU_H
