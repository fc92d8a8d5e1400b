#include "enc/sweep.h"

#include <array>
#include <stdexcept>

#include "bus/memory_slave.h"
#include "bus/tl1_bus.h"
#include "ckpt/checkpoint.h"
#include "obs/ledger.h"
#include "power/tl1_power_model.h"
#include "sim/clock.h"
#include "sim/kernel.h"
#include "sim/parallel_runner.h"
#include "sim/random.h"
#include "trace/replay_master.h"
#include "trace/workloads.h"

namespace sct::enc {
namespace {

// Sweep-private memory map (independent of the soc platform: the sweep
// measures the bus + codec, not the card firmware).
constexpr bus::Address kRomBase = 0x0000'0000;
constexpr bus::Address kRomSize = 64 * 1024;
constexpr bus::Address kRamBase = 0x0010'0000;
constexpr bus::Address kRamSize = 64 * 1024;
constexpr bus::Address kEepromBase = 0x0020'0000;
constexpr bus::Address kEepromSize = 32 * 1024;
constexpr bus::Address kFlashBase = 0x0030'0000;
constexpr bus::Address kFlashSize = 64 * 1024;

bus::SlaveControl romCtl() {
  bus::SlaveControl c;
  c.base = kRomBase;
  c.size = kRomSize;
  c.canWrite = false;
  return c;
}

bus::SlaveControl ramCtl() {
  bus::SlaveControl c;
  c.base = kRamBase;
  c.size = kRamSize;
  c.canExec = false;
  return c;
}

bus::SlaveControl eepromCtl() {
  bus::SlaveControl c;
  c.base = kEepromBase;
  c.size = kEepromSize;
  c.addrWait = 1;
  c.readWait = 2;
  c.writeWait = 3;
  c.canExec = false;
  return c;
}

bus::SlaveControl flashCtl() {
  bus::SlaveControl c;
  c.base = kFlashBase;
  c.size = kFlashSize;
  c.readWait = 1;
  c.canWrite = false;
  return c;
}

// Shared prototype images: function-local statics, so fork workers read
// one immutable copy (MemorySlave stays copy-on-write against it). The
// RAM image is uniformly random — the crypto workload's reads must
// carry maximum switching activity for the bus-invert headline.
const std::vector<std::uint8_t>& romImage() {
  static const std::vector<std::uint8_t> img = [] {
    std::vector<std::uint8_t> b(kRomSize);
    trace::fillRealistic(b.data(), b.size(), 0xE0C1);
    return b;
  }();
  return img;
}

const std::vector<std::uint8_t>& ramImage() {
  static const std::vector<std::uint8_t> img = [] {
    std::vector<std::uint8_t> b(kRamSize);
    sim::Xoshiro256 rng(0xE0C2);
    for (std::size_t i = 0; i < b.size(); i += 8) {
      const std::uint64_t v = rng.next();
      for (std::size_t j = 0; j < 8 && i + j < b.size(); ++j) {
        b[i + j] = static_cast<std::uint8_t>(v >> (8 * j));
      }
    }
    return b;
  }();
  return img;
}

const std::vector<std::uint8_t>& flashImage() {
  static const std::vector<std::uint8_t> img = [] {
    std::vector<std::uint8_t> b(kFlashSize);
    trace::fillRealistic(b.data(), b.size(), 0xE0C3);
    return b;
  }();
  return img;
}

// One sweep platform. Construction order fixes the clock handler ids
// (bus falling = 0, master rising = 1); the boot side and every worker
// rig construct identically, which is exactly what Clock::loadState
// demands. The master itself is NOT registered for checkpointing — it
// is per-variant configuration: each variant restarts it over its own
// workload trace.
struct Platform {
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  bus::Tl1Bus bus{clk, "ecbus"};
  bus::MemorySlave rom;
  bus::MemorySlave ram;
  bus::MemorySlave eeprom;
  bus::MemorySlave flash;
  power::Tl1PowerModel pm;
  obs::EnergyLedger ledger;
  trace::ReplayMaster master;
  ckpt::CheckpointRegistry reg;

  Platform(const power::SignalEnergyTable& table, const trace::BusTrace& t)
      : rom("rom", romCtl(), romImage().data()),
        ram("ram", ramCtl(), ramImage().data()),
        eeprom("eeprom", eepromCtl()),
        flash("flash", flashCtl(), flashImage().data()),
        pm(table),
        master(clk, "master", bus, bus, t) {
    bus.attach(rom);
    bus.attach(ram);
    bus.attach(eeprom);
    bus.attach(flash);
    pm.attachLedger(ledger);
    bus.addObserver(pm);
    reg.add("kernel", kernel);
    reg.add("clk", clk);
    reg.add("ecbus", bus);
    reg.add("rom", rom);
    reg.add("ram", ram);
    reg.add("eeprom", eeprom);
    reg.add("flash", flash);
    reg.add("pm", pm);
    reg.add("ledger", ledger);
  }
};

trace::BusTrace makeBootTrace() {
  // Firmware-style warm-up: fetch-heavy program-like traffic over ROM
  // and RAM, the shared prefix every variant amortizes.
  const std::array<trace::TargetRegion, 2> regions{{
      {kRomBase, kRomSize, /*read=*/true, /*write=*/false, /*exec=*/true},
      {kRamBase, kRamSize, /*read=*/true, /*write=*/true, /*exec=*/false},
  }};
  trace::MixRatios mix;
  mix.singleRead = 2;
  mix.singleWrite = 1;
  mix.burstRead = 1;
  mix.burstWrite = 1;
  mix.instrFetch = 3;
  return trace::randomMixStyled(0xB007, 300, regions, mix,
                                /*issueGapMax=*/0,
                                trace::DataStyle::Realistic);
}

trace::BusTrace makeCryptoTrace() {
  // Write-heavy uniform-random data over the random-filled RAM: both
  // data buses see maximum switching activity — the workload where
  // bus-invert must measurably cut data-bus transition energy.
  const std::array<trace::TargetRegion, 1> regions{{
      {kRamBase, kRamSize, true, true, false},
  }};
  trace::MixRatios mix;
  mix.singleRead = 2;
  mix.singleWrite = 3;
  mix.burstRead = 1;
  mix.burstWrite = 2;
  mix.instrFetch = 0;
  return trace::randomMixStyled(0x51C7, 600, regions, mix, 0,
                                trace::DataStyle::Random);
}

trace::BusTrace makeJcvmTrace() {
  // Interpreter-flavoured: fetch-dominated program-like traffic over
  // ROM plus data traffic to RAM and the waited EEPROM.
  const std::array<trace::TargetRegion, 3> regions{{
      {kRomBase, kRomSize, true, false, true},
      {kRamBase, kRamSize, true, true, false},
      {kEepromBase, kEepromSize, true, true, false},
  }};
  trace::MixRatios mix;
  mix.singleRead = 2;
  mix.singleWrite = 1;
  mix.burstRead = 1;
  mix.burstWrite = 1;
  mix.instrFetch = 4;
  return trace::randomMixStyled(0x1C33, 600, regions, mix, 0,
                                trace::DataStyle::Realistic);
}

trace::BusTrace makeMemcpyTrace() {
  // Sequential block copy: 4-beat burst reads marching through flash,
  // paired with 4-beat burst writes marching through RAM — long
  // stride-16 address runs, gray addressing's home turf.
  trace::BusTrace t;
  sim::Xoshiro256 rng(0x3E3C);
  constexpr std::size_t kBlocks = 200;
  for (std::size_t i = 0; i < kBlocks; ++i) {
    trace::TraceEntry rd;
    rd.kind = bus::Kind::Read;
    rd.address = kFlashBase + 16 * i;
    rd.beats = 4;
    t.append(rd);
    trace::TraceEntry wr;
    wr.kind = bus::Kind::Write;
    wr.address = kRamBase + 0x8000 + 16 * i;
    wr.beats = 4;
    for (unsigned b = 0; b < 4; ++b) {
      wr.writeData[b] = trace::realisticWord(rng);
    }
    t.append(wr);
  }
  return t;
}

/// Replay `master`'s trace on `p` and report the phase's energy delta.
EncOutcome measure(Platform& p, trace::ReplayMaster& master,
                   const EncVariant& v) {
  const obs::LedgerView start = p.ledger.view();
  const double startTotal_fJ = p.pm.totalEnergy_fJ();
  const std::uint64_t startTx = p.bus.stats().transactions();
  const std::uint64_t startCycle = p.clk.cycle();
  const std::uint64_t startData =
      p.pm.transitions(bus::SignalId::EB_RData) +
      p.pm.transitions(bus::SignalId::EB_WData) +
      p.pm.transitions(bus::SignalId::EB_Inv);
  const std::uint64_t startAddr = p.pm.transitions(bus::SignalId::EB_A);

  master.runToCompletion();

  const obs::LedgerView d = obs::delta(p.ledger.view(), start);
  EncOutcome out;
  out.variant = v;
  out.transactions = p.bus.stats().transactions() - startTx;
  out.cycles = p.clk.cycle() - startCycle;
  out.total_fJ = p.pm.totalEnergy_fJ() - startTotal_fJ;
  out.perTxn_fJ = out.transactions != 0
                      ? out.total_fJ / static_cast<double>(out.transactions)
                      : 0.0;
  const auto bundle = [&d](bus::SignalId id) {
    return d.byBundle[static_cast<std::size_t>(id)];
  };
  out.dataBus_fJ = bundle(bus::SignalId::EB_RData) +
                   bundle(bus::SignalId::EB_WData) +
                   bundle(bus::SignalId::EB_Inv);
  out.addrBus_fJ = bundle(bus::SignalId::EB_A);
  out.dataTransitions = p.pm.transitions(bus::SignalId::EB_RData) +
                        p.pm.transitions(bus::SignalId::EB_WData) +
                        p.pm.transitions(bus::SignalId::EB_Inv) - startData;
  out.addrTransitions = p.pm.transitions(bus::SignalId::EB_A) - startAddr;
  return out;
}

} // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names{"crypto", "jcvm", "memcpy"};
  return names;
}

std::vector<EncVariant> defaultGrid() {
  std::vector<EncVariant> grid;
  for (const std::string& c : codecNames()) {
    for (const std::string& w : workloadNames()) {
      grid.push_back(EncVariant{c, w});
    }
  }
  return grid;
}

SweepRunner::SweepRunner(const power::SignalEnergyTable& table)
    : table_(table),
      bootTrace_(makeBootTrace()),
      workloads_{{{"crypto", makeCryptoTrace()},
                  {"jcvm", makeJcvmTrace()},
                  {"memcpy", makeMemcpyTrace()}}},
      boot_([&] {
        Platform parent(table_, bootTrace_);
        parent.master.runToCompletion();
        return parent.reg.saveAll();
      }()) {}

const trace::BusTrace& SweepRunner::workload(const std::string& name) const {
  for (const auto& [n, t] : workloads_) {
    if (n == name) return t;
  }
  throw std::invalid_argument("unknown sweep workload: " + name);
}

std::vector<EncOutcome> SweepRunner::run(const std::vector<EncVariant>& grid,
                                         unsigned threads) const {
  std::vector<EncOutcome> results(grid.size());
  sim::runWorkers(
      grid.size(), threads, [&] { return Platform(table_, bootTrace_); },
      [&](Platform& p, std::size_t i) {
        // loadAll rewinds every checkpointed section; the master and
        // the codec are the per-variant state it does not carry.
        p.reg.loadAll(boot_);
        p.master.restart(workload(grid[i].workload));
        const std::unique_ptr<bus::BusCodec> codec = makeCodec(grid[i].codec);
        p.bus.setCodec(codec.get());
        results[i] = measure(p, p.master, grid[i]);
        p.bus.setCodec(nullptr);  // The codec dies with this variant.
      });
  return results;
}

EncOutcome SweepRunner::runFromBoot(const EncVariant& v) const {
  // Boot and workload share one platform: the boot master stays
  // registered (inert once done — the handler set must not shrink) and
  // a second master replays the workload, so the bus sees exactly the
  // request stream a restored variant sees.
  Platform p(table_, bootTrace_);
  p.master.runToCompletion();
  trace::ReplayMaster wl(p.clk, "wl", p.bus, p.bus, workload(v.workload));
  const std::unique_ptr<bus::BusCodec> codec = makeCodec(v.codec);
  p.bus.setCodec(codec.get());
  return measure(p, wl, v);
}

} // namespace sct::enc
