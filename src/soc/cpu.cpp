#include "soc/cpu.h"

namespace sct::soc {

using bus::AccessSize;
using bus::Address;
using bus::BusStatus;
using bus::Kind;
using bus::Word;

MipsCore::MipsCore(sim::Clock& clock, std::string name,
                   bus::EcInstrIf& instrIf, bus::EcDataIf& dataIf,
                   const CpuConfig& config)
    : sim::Module(clock.kernel(), std::move(name)),
      clock_(clock),
      instrIf_(instrIf),
      dataIf_(dataIf),
      config_(config),
      icache_(config.icacheBytes, config.lineBytes),
      dcache_(config.dcacheBytes, config.lineBytes),
      blocks_(config.icacheBytes / config.lineBytes, config.lineBytes) {
  handlerId_ = clock_.onRisingRaw(
      [](void* self) { static_cast<MipsCore*>(self)->onRisingEdge(); }, this);
  reset(config.resetPc);
}

MipsCore::~MipsCore() { clock_.removeHandler(handlerId_); }

void MipsCore::reset(Address pc) {
  regs_.fill(0);
  hi_ = 0;
  lo_ = 0;
  pc_ = pc;
  epc_ = 0;
  inIsr_ = false;
  interruptsTaken_ = 0;
  state_ = State::Running;
  haltPending_ = false;
  faulted_ = false;
  icache_.invalidateAll();
  dcache_.invalidateAll();
  blocks_.flush();
  curBlock_ = nullptr;
  curIdx_ = 0;
  ifetchSubmitted_ = false;
  loadSubmitted_ = false;
  storeActive_.fill(false);
  storeBusy_ = 0;
  stats_ = CpuStats{};
}

void MipsCore::halt(bool fault) {
  state_ = State::Halted;
  faulted_ = fault;
}

// ---------------------------------------------------------------------------
// Per-cycle behaviour
// ---------------------------------------------------------------------------

void MipsCore::onRisingEdge() {
  if (state_ == State::Halted && storeBusy_ == 0) return;
  ++stats_.cycles;
  pollStores();

  switch (state_) {
    case State::Halted:
      return;  // Draining the store buffer.
    case State::WaitIFetch: {
      ++stats_.ifetchStallCycles;
      if (!ifetchSubmitted_) {
        const BusStatus s = instrIf_.fetch(ifetchReq_);
        if (s == BusStatus::Request) ifetchSubmitted_ = true;
        if (s == BusStatus::Error) halt(true);
        return;
      }
      const BusStatus s = instrIf_.fetch(ifetchReq_);
      if (s == BusStatus::Ok) {
        ifetchSubmitted_ = false;
        icache_.fillLine(ifetchReq_.address, ifetchReq_.data.data());
        // The refill may have evicted another tag from this line: any
        // block decoded from the old content is stale now.
        blocks_.noteLineFilled(icache_.lineIndex(ifetchReq_.address));
        state_ = State::Running;
      } else if (s == BusStatus::Error) {
        ifetchSubmitted_ = false;
        halt(true);
      }
      return;
    }
    case State::WaitLoad: {
      ++stats_.loadStallCycles;
      if (!loadSubmitted_) {
        const BusStatus s = dataIf_.read(loadReq_);
        if (s == BusStatus::Request) loadSubmitted_ = true;
        if (s == BusStatus::Error) halt(true);
        return;
      }
      const BusStatus s = dataIf_.read(loadReq_);
      if (s == BusStatus::Ok) {
        loadSubmitted_ = false;
        finishLoad();
        state_ = State::Running;
      } else if (s == BusStatus::Error) {
        loadSubmitted_ = false;
        halt(true);
      }
      return;
    }
    case State::WaitStoreSlot: {
      ++stats_.storeStallCycles;
      if (startStore(pendingStore_, pendingStoreAddr_)) {
        state_ = State::Running;
      }
      return;
    }
    case State::Running:
      if (haltPending_) {
        halt(false);
        return;
      }
      executeOne();
      return;
  }
}

void MipsCore::pollStores() {
  if (storeBusy_ == 0) return;
  for (std::size_t i = 0; i < storeReqs_.size(); ++i) {
    if (!storeActive_[i]) continue;
    const BusStatus s = dataIf_.write(storeReqs_[i]);
    if (s == BusStatus::Ok) {
      storeActive_[i] = false;
      --storeBusy_;
    } else if (s == BusStatus::Error) {
      storeActive_[i] = false;
      --storeBusy_;
      halt(true);
    }
  }
}

// ---------------------------------------------------------------------------
// Instruction execution
// ---------------------------------------------------------------------------

void MipsCore::startIFetch(Address pcLine) {
  ifetchReq_.reset();
  ifetchReq_.kind = Kind::InstrFetch;
  ifetchReq_.address = pcLine;
  ifetchReq_.size = AccessSize::Word;
  ifetchReq_.beats =
      static_cast<std::uint8_t>(config_.lineBytes / 4);
  const BusStatus s = instrIf_.fetch(ifetchReq_);
  ifetchSubmitted_ = s == BusStatus::Request;
  if (s == BusStatus::Error) {
    halt(true);
    return;
  }
  state_ = State::WaitIFetch;
}

void MipsCore::executeOne() {
  // --- Interrupt dispatch (instruction boundary) ---------------------------
  if (!inIsr_ && config_.irqVector != 0 && irqSource_ && irqSource_() != 0) {
    epc_ = pc_;
    pc_ = config_.irqVector;
    inIsr_ = true;
    ++interruptsTaken_;
    curBlock_ = nullptr;  // Vectoring breaks the sequential run.
  }

  // --- Fetch / dispatch ----------------------------------------------------
  // Fast path: the cursor points at the PC's op inside the current
  // decoded block. One generation compare proves the backing icache
  // line still holds the content the op was decoded from, standing in
  // for the tag probe; noteHit keeps the icache statistics identical
  // to the decode-on-fetch path.
  if (curBlock_ != nullptr) {
    if (curIdx_ < curBlock_->count &&
        blocks_.opFresh(*curBlock_, curIdx_, pc_)) {
      icache_.noteHit();
      blocks_.noteHit();
      executeDecoded(curBlock_->ops[curIdx_].d);
      return;
    }
    curBlock_ = nullptr;
  }

  if (config_.decodedBlockCache) {
    if (const BlockCache::Block* b = blocks_.lookup(pc_)) {
      curBlock_ = b;
      curIdx_ = 0;
      icache_.noteHit();
      blocks_.noteHit();
      executeDecoded(b->ops[0].d);
      return;
    }
  }

  Word instrWord = 0;
  if (!icache_.lookupWord(pc_, instrWord)) {
    startIFetch(icache_.lineBase(pc_));
    return;
  }
  if (config_.decodedBlockCache) {
    // Translate-once: decode the whole superblock while the line is
    // hot, then dispatch the first op straight out of it.
    blocks_.noteMiss();
    curBlock_ = blocks_.build(pc_, icache_);
    curIdx_ = 0;
    executeDecoded(curBlock_->ops[0].d);
    return;
  }
  executeDecoded(decode(instrWord));
}

/// Advance past an instruction that neither stalled nor halted: count
/// it, move the PC, and keep the block cursor only across sequential
/// flow (a taken branch, jump or ERET drops it).
void MipsCore::retire(Address nextPc) {
  ++stats_.instructions;
  if (curBlock_ != nullptr) {
    if (nextPc == pc_ + 4) {
      ++curIdx_;
    } else {
      curBlock_ = nullptr;
    }
  }
  pc_ = nextPc;
}

void MipsCore::executeDecoded(const DecodedInstr& d) {
  Address nextPc = pc_ + 4;
  const auto rs = regs_[d.rs];
  const auto rt = regs_[d.rt];
  auto setRd = [&](std::uint32_t v) { setReg(d.rd, v); };
  auto setRt = [&](std::uint32_t v) { setReg(d.rt, v); };
  auto branch = [&](bool taken) {
    if (taken) nextPc = pc_ + 4 + (static_cast<std::int64_t>(d.simm) << 2);
  };

  switch (d.op) {
    case Op::Addu: setRd(rs + rt); break;
    case Op::Subu: setRd(rs - rt); break;
    case Op::And: setRd(rs & rt); break;
    case Op::Or: setRd(rs | rt); break;
    case Op::Xor: setRd(rs ^ rt); break;
    case Op::Nor: setRd(~(rs | rt)); break;
    case Op::Slt:
      setRd(static_cast<std::int32_t>(rs) < static_cast<std::int32_t>(rt));
      break;
    case Op::Sltu: setRd(rs < rt); break;
    case Op::Sll: setRd(rt << d.shamt); break;
    case Op::Srl: setRd(rt >> d.shamt); break;
    case Op::Sra:
      setRd(static_cast<std::uint32_t>(static_cast<std::int32_t>(rt) >>
                                       d.shamt));
      break;
    case Op::Sllv: setRd(rt << (rs & 31)); break;
    case Op::Srlv: setRd(rt >> (rs & 31)); break;
    case Op::Srav:
      setRd(static_cast<std::uint32_t>(static_cast<std::int32_t>(rt) >>
                                       (rs & 31)));
      break;
    case Op::Mult: {
      const std::int64_t p = static_cast<std::int64_t>(
                                 static_cast<std::int32_t>(rs)) *
                             static_cast<std::int32_t>(rt);
      lo_ = static_cast<std::uint32_t>(p);
      hi_ = static_cast<std::uint32_t>(static_cast<std::uint64_t>(p) >> 32);
      break;
    }
    case Op::Multu: {
      const std::uint64_t p = static_cast<std::uint64_t>(rs) * rt;
      lo_ = static_cast<std::uint32_t>(p);
      hi_ = static_cast<std::uint32_t>(p >> 32);
      break;
    }
    case Op::Div:
      // Division by zero leaves HI/LO unpredictable on MIPS; we keep
      // them unchanged rather than faulting (matches real cores).
      if (rt != 0) {
        lo_ = static_cast<std::uint32_t>(static_cast<std::int32_t>(rs) /
                                         static_cast<std::int32_t>(rt));
        hi_ = static_cast<std::uint32_t>(static_cast<std::int32_t>(rs) %
                                         static_cast<std::int32_t>(rt));
      }
      break;
    case Op::Divu:
      if (rt != 0) {
        lo_ = rs / rt;
        hi_ = rs % rt;
      }
      break;
    case Op::Mfhi: setRd(hi_); break;
    case Op::Mflo: setRd(lo_); break;
    case Op::Mthi: hi_ = rs; break;
    case Op::Mtlo: lo_ = rs; break;
    case Op::Jr: nextPc = rs; break;
    case Op::Jalr:
      setRd(static_cast<std::uint32_t>(pc_ + 4));
      nextPc = rs;
      break;
    case Op::Addiu: setRt(rs + static_cast<std::uint32_t>(d.simm)); break;
    case Op::Andi: setRt(rs & d.uimm); break;
    case Op::Ori: setRt(rs | d.uimm); break;
    case Op::Xori: setRt(rs ^ d.uimm); break;
    case Op::Slti:
      setRt(static_cast<std::int32_t>(rs) < d.simm);
      break;
    case Op::Sltiu:
      setRt(rs < static_cast<std::uint32_t>(d.simm));
      break;
    case Op::Lui: setRt(d.uimm << 16); break;
    case Op::Beq: branch(rs == rt); break;
    case Op::Bne: branch(rs != rt); break;
    case Op::Blez: branch(static_cast<std::int32_t>(rs) <= 0); break;
    case Op::Bgtz: branch(static_cast<std::int32_t>(rs) > 0); break;
    case Op::Bltz: branch(static_cast<std::int32_t>(rs) < 0); break;
    case Op::Bgez: branch(static_cast<std::int32_t>(rs) >= 0); break;
    case Op::J:
      nextPc = ((pc_ + 4) & ~Address{0x0FFFFFFF}) | (Address{d.target} << 2);
      break;
    case Op::Jal:
      regs_[31] = static_cast<std::uint32_t>(pc_ + 4);
      nextPc = ((pc_ + 4) & ~Address{0x0FFFFFFF}) | (Address{d.target} << 2);
      break;
    case Op::Lb:
    case Op::Lbu:
    case Op::Lh:
    case Op::Lhu:
    case Op::Lw: {
      const Address addr = rs + static_cast<std::uint32_t>(d.simm);
      // Read-after-write hazard: the EC interface's separate read and
      // write paths may complete a later read before an earlier write
      // (the spec's reordering). Stall the load until overlapping
      // stores have drained from the write buffer, as the 4K BIU does.
      if (storeBufferOverlaps(addr)) {
        ++stats_.storeStallCycles;
        return;  // PC and cursor unchanged; retry next cycle.
      }
      retire(nextPc);
      startLoad(d, addr);
      return;
    }
    case Op::Sb:
    case Op::Sh:
    case Op::Sw: {
      const Address addr = rs + static_cast<std::uint32_t>(d.simm);
      retire(nextPc);
      if (!startStore(d, addr)) {
        pendingStore_ = d;
        pendingStoreAddr_ = addr;
        state_ = State::WaitStoreSlot;
      }
      return;
    }
    case Op::Syscall:
    case Op::Break:
      ++stats_.instructions;
      haltPending_ = true;
      curBlock_ = nullptr;
      return;
    case Op::Eret:
      nextPc = epc_;
      inIsr_ = false;
      break;
    case Op::Invalid:
      curBlock_ = nullptr;
      halt(true);
      return;
  }
  retire(nextPc);
}

namespace {

AccessSize sizeOf(Op op) {
  switch (op) {
    case Op::Lb:
    case Op::Lbu:
    case Op::Sb: return AccessSize::Byte;
    case Op::Lh:
    case Op::Lhu:
    case Op::Sh: return AccessSize::Half;
    default: return AccessSize::Word;
  }
}

} // namespace

void MipsCore::startLoad(const DecodedInstr& d, Address addr) {
  loadInstr_ = d;
  loadAddr_ = addr;
  const bool uncached = addr >= config_.uncachedBase;
  Word cachedWord = 0;
  if (!uncached && dcache_.lookupWord(addr, cachedWord)) {
    loadIsCached_ = true;
    writeLoadResult(cachedWord);
    return;  // Hit: single-cycle load.
  }
  loadReq_.reset();
  loadReq_.kind = Kind::Read;
  if (uncached) {
    loadIsCached_ = false;
    loadReq_.address = addr & ~static_cast<Address>(
                                  static_cast<std::size_t>(sizeOf(d.op)) - 1);
    loadReq_.size = sizeOf(d.op);
    loadReq_.beats = 1;
  } else {
    loadIsCached_ = true;
    loadReq_.address = dcache_.lineBase(addr);
    loadReq_.size = AccessSize::Word;
    loadReq_.beats = static_cast<std::uint8_t>(config_.lineBytes / 4);
  }
  const BusStatus s = dataIf_.read(loadReq_);
  loadSubmitted_ = s == BusStatus::Request;
  if (s == BusStatus::Error) {
    halt(true);
    return;
  }
  state_ = State::WaitLoad;
}

void MipsCore::finishLoad() {
  if (loadIsCached_ && loadReq_.beats > 1) {
    dcache_.fillLine(loadReq_.address, loadReq_.data.data());
    const std::size_t wordIndex =
        static_cast<std::size_t>((loadAddr_ - loadReq_.address) / 4);
    writeLoadResult(loadReq_.data[wordIndex]);
  } else {
    writeLoadResult(loadReq_.data[0]);
  }
}

std::uint32_t MipsCore::extractLane(Word word, Address addr, Op op) {
  const unsigned lane = static_cast<unsigned>(addr & 0x3u);
  switch (op) {
    case Op::Lb: {
      const auto b = static_cast<std::int8_t>((word >> (8 * lane)) & 0xFF);
      return static_cast<std::uint32_t>(static_cast<std::int32_t>(b));
    }
    case Op::Lbu:
      return (word >> (8 * lane)) & 0xFF;
    case Op::Lh: {
      const auto h =
          static_cast<std::int16_t>((word >> (8 * (lane & ~1u))) & 0xFFFF);
      return static_cast<std::uint32_t>(static_cast<std::int32_t>(h));
    }
    case Op::Lhu:
      return (word >> (8 * (lane & ~1u))) & 0xFFFF;
    default:
      return word;
  }
}

void MipsCore::writeLoadResult(Word wordOnBus) {
  setReg(loadInstr_.rt, extractLane(wordOnBus, loadAddr_, loadInstr_.op));
}

bool MipsCore::storeBufferOverlaps(Address addr) const {
  const Address word = addr & ~Address{3};
  for (std::size_t i = 0; i < storeReqs_.size(); ++i) {
    if (storeActive_[i] &&
        (storeReqs_[i].address & ~Address{3}) == word) {
      return true;
    }
  }
  return false;
}

bool MipsCore::startStore(const DecodedInstr& d, Address addr) {
  std::size_t slot = storeReqs_.size();
  for (std::size_t i = 0; i < storeReqs_.size(); ++i) {
    if (!storeActive_[i]) {
      slot = i;
      break;
    }
  }
  if (slot == storeReqs_.size() || storeBusy_ >= config_.storeBufferDepth) {
    return false;  // Buffer full; retry next cycle.
  }

  const AccessSize size = sizeOf(d.op);
  const unsigned lane = static_cast<unsigned>(addr & 0x3u);
  Word value = regs_[d.rt];
  switch (size) {
    case AccessSize::Byte: value = (value & 0xFF) << (8 * lane); break;
    case AccessSize::Half:
      value = (value & 0xFFFF) << (8 * (lane & ~1u));
      break;
    case AccessSize::Word: break;
  }

  bus::Tl1Request& req = storeReqs_[slot];
  req.reset();
  req.kind = Kind::Write;
  req.address = addr & ~static_cast<Address>(
                           static_cast<std::size_t>(size) - 1);
  req.size = size;
  req.beats = 1;
  req.data[0] = value;

  // Write-through: keep the cached copy coherent.
  if (addr < config_.uncachedBase) {
    dcache_.updateIfPresent(addr, value, bus::byteEnables(size, addr));
    // Self-modifying-code safety: dropping an icache line also retires
    // every decoded block built from it (generation bump).
    if (icache_.invalidate(addr)) {
      blocks_.noteLineInvalidated(icache_.lineIndex(addr));
    }
  }

  const BusStatus s = dataIf_.write(req);
  if (s == BusStatus::Request) {
    storeActive_[slot] = true;
    ++storeBusy_;
    return true;
  }
  if (s == BusStatus::Error) {
    halt(true);
    return true;  // Halted; nothing to retry.
  }
  return false;  // Bus refused the accept (EC limit); retry.
}

void MipsCore::invalidateICacheRange(Address addr, std::size_t bytes) {
  if (bytes == 0) return;
  const Address first = icache_.lineBase(addr);
  const Address last = icache_.lineBase(addr + bytes - 1);
  for (Address a = first;; a += config_.lineBytes) {
    if (icache_.invalidate(a)) {
      blocks_.noteLineInvalidated(icache_.lineIndex(a));
    }
    if (a == last) break;
  }
  curBlock_ = nullptr;
}

void MipsCore::publishObs(obs::StatsRegistry& reg) const {
  reg.counter("iss.block_hits").add(blocks_.stats().hits);
  reg.counter("iss.block_misses").add(blocks_.stats().misses);
  reg.counter("iss.invalidations").add(blocks_.stats().invalidations);
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

namespace {

void saveInstr(ckpt::StateWriter& w, const DecodedInstr& d) {
  w.u16(static_cast<std::uint16_t>(d.op));
  w.u8(d.rs);
  w.u8(d.rt);
  w.u8(d.rd);
  w.u8(d.shamt);
  w.i64(d.simm);
  w.u32(d.uimm);
  w.u32(d.target);
}

void loadInstr(ckpt::StateReader& r, DecodedInstr& d) {
  d.op = static_cast<Op>(r.u16());
  d.rs = r.u8();
  d.rt = r.u8();
  d.rd = r.u8();
  d.shamt = r.u8();
  d.simm = static_cast<std::int32_t>(r.i64());
  d.uimm = r.u32();
  d.target = r.u32();
}

/// Full payload: a not-yet-accepted request (refused while the bus was
/// draining) must resubmit the identical words after restore.
void saveReq(ckpt::StateWriter& w, const bus::Tl1Request& q) {
  w.u8(static_cast<std::uint8_t>(q.kind));
  w.u64(q.address);
  w.u8(static_cast<std::uint8_t>(q.size));
  w.u8(q.beats);
  for (const Word v : q.data) w.u32(v);
  w.u8(static_cast<std::uint8_t>(q.result));
  w.u8(static_cast<std::uint8_t>(q.stage));
  w.u8(q.beatsDone);
  w.i64(q.slave);
  w.u32(q.waitCount);
  w.u64(q.acceptCycle);
  w.u64(q.finishCycle);
}

void loadReq(ckpt::StateReader& r, bus::Tl1Request& q) {
  q.kind = static_cast<Kind>(r.u8());
  q.address = r.u64();
  q.size = static_cast<AccessSize>(r.u8());
  q.beats = r.u8();
  for (Word& v : q.data) v = r.u32();
  q.result = static_cast<BusStatus>(r.u8());
  q.stage = static_cast<bus::Tl1Stage>(r.u8());
  q.beatsDone = r.u8();
  q.slave = static_cast<int>(r.i64());
  q.waitCount = r.u32();
  q.acceptCycle = r.u64();
  q.finishCycle = r.u64();
}

} // namespace

void MipsCore::saveState(ckpt::StateWriter& w) const {
  if (ifetchSubmitted_ || loadSubmitted_ || storeBusy_ != 0) {
    throw ckpt::CheckpointError(
        "MipsCore::saveState: bus transactions in flight (snapshot only at "
        "quiesce points; ifetch=" +
        std::to_string(ifetchSubmitted_) +
        " load=" + std::to_string(loadSubmitted_) +
        " storeBusy=" + std::to_string(storeBusy_) + ")");
  }
  for (const std::uint32_t v : regs_) w.u32(v);
  w.u32(hi_);
  w.u32(lo_);
  w.u64(pc_);
  w.u64(epc_);
  w.b(inIsr_);
  w.u64(interruptsTaken_);
  w.u8(static_cast<std::uint8_t>(state_));
  w.b(haltPending_);
  w.b(faulted_);
  icache_.saveState(w);
  dcache_.saveState(w);
  saveReq(w, ifetchReq_);
  saveReq(w, loadReq_);
  w.b(loadIsCached_);
  saveInstr(w, loadInstr_);
  w.u64(loadAddr_);
  saveInstr(w, pendingStore_);
  w.u64(pendingStoreAddr_);
  w.u64(stats_.cycles);
  w.u64(stats_.instructions);
  w.u64(stats_.ifetchStallCycles);
  w.u64(stats_.loadStallCycles);
  w.u64(stats_.storeStallCycles);
}

void MipsCore::loadState(ckpt::StateReader& r) {
  if (ifetchSubmitted_ || loadSubmitted_ || storeBusy_ != 0) {
    throw ckpt::CheckpointError(
        "MipsCore::loadState: restore target has bus transactions in "
        "flight");
  }
  for (std::uint32_t& v : regs_) v = r.u32();
  hi_ = r.u32();
  lo_ = r.u32();
  pc_ = r.u64();
  epc_ = r.u64();
  inIsr_ = r.b();
  interruptsTaken_ = r.u64();
  state_ = static_cast<State>(r.u8());
  haltPending_ = r.b();
  faulted_ = r.b();
  icache_.loadState(r);
  dcache_.loadState(r);
  loadReq(r, ifetchReq_);
  loadReq(r, loadReq_);
  loadIsCached_ = r.b();
  loadInstr(r, loadInstr_);
  loadAddr_ = r.u64();
  loadInstr(r, pendingStore_);
  pendingStoreAddr_ = r.u64();
  stats_.cycles = r.u64();
  stats_.instructions = r.u64();
  stats_.ifetchStallCycles = r.u64();
  stats_.loadStallCycles = r.u64();
  stats_.storeStallCycles = r.u64();
  ifetchSubmitted_ = false;
  loadSubmitted_ = false;
  storeActive_.fill(false);
  storeBusy_ = 0;
  // The decoded-block cache is derived state: nothing of it is in the
  // snapshot (the checkpoint format predates it and stays unchanged),
  // so a restore drops every block and lets demand decoding rebuild
  // them from the restored icache content.
  blocks_.flush();
  curBlock_ = nullptr;
  curIdx_ = 0;
}

bool MipsCore::runUntilHalt(std::uint64_t maxCycles) {
  const std::uint64_t start = clock_.cycle();
  while (!halted() && clock_.cycle() - start < maxCycles) {
    clock_.runCycles(1);
  }
  return halted();
}

} // namespace sct::soc
