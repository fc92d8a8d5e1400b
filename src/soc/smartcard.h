// The smart-card SoC of the paper's Figure 1.
//
// Assembles the complete target platform: MIPS-subset core with I/D
// caches behind the EC bus controller, the three program memories
// (256 KiB ROM, 32 KiB EEPROM, 64 KiB FLASH), scratchpad RAM, and the
// smart-card peripherals (interrupt system, two 16-bit timers, UART,
// true RNG, crypto coprocessor). The bus layer is a
// template parameter: instantiate with bus::Tl1Bus for transaction-
// level simulation or ref::GlBus for the signal-accurate reference
// (extra constructor arguments are forwarded to the bus).
#ifndef SCT_SOC_SMARTCARD_H
#define SCT_SOC_SMARTCARD_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "bus/memory_slave.h"
#include "ckpt/checkpoint.h"
#include "sim/clock.h"
#include "sim/kernel.h"
#include "sim/time.h"
#include "soc/assembler.h"
#include "soc/cpu.h"
#include "soc/peripherals.h"

namespace sct::soc {

/// Fixed physical memory map (36-bit EC address space).
namespace memmap {
inline constexpr bus::Address kRomBase = 0x00000000;
inline constexpr bus::Address kRomSize = 256 * 1024;
inline constexpr bus::Address kRamBase = 0x08000000;
inline constexpr bus::Address kRamSize = 8 * 1024;
inline constexpr bus::Address kEepromBase = 0x0A000000;
inline constexpr bus::Address kEepromSize = 32 * 1024;
inline constexpr bus::Address kFlashBase = 0x0C000000;
inline constexpr bus::Address kFlashSize = 64 * 1024;
inline constexpr bus::Address kSfrBase = 0x10000000;
inline constexpr bus::Address kIrqBase = kSfrBase + 0x000;
inline constexpr bus::Address kTimerBase = kSfrBase + 0x100;
inline constexpr bus::Address kTimer2Base = kSfrBase + 0x500;
inline constexpr bus::Address kUartBase = kSfrBase + 0x200;
inline constexpr bus::Address kTrngBase = kSfrBase + 0x300;
inline constexpr bus::Address kCryptoBase = kSfrBase + 0x400;
inline constexpr bus::Address kSfrWindow = 0x100;
/// Interrupt vector: firmware that unmasks interrupt lines places its
/// handler here (and returns with ERET).
inline constexpr bus::Address kIrqVector = kRomBase + 0x200;
} // namespace memmap

struct SocConfig {
  /// 33 MHz class smart-card clock (30 ns period, even in picoseconds).
  sim::Time clockPeriodPs = 30'000;
  CpuConfig cpu;
  unsigned eepromExtraWritePerBeat = 2;  ///< Dynamic programming stretch.

  SocConfig() { cpu.irqVector = memmap::kIrqVector; }
};

template <typename BusT>
class SmartCardSoC {
 public:
  template <typename... BusArgs>
  explicit SmartCardSoC(const SocConfig& config, BusArgs&&... busArgs)
      : clock_(kernel_, "clk", config.clockPeriodPs),
        bus_(clock_, "ecbus", std::forward<BusArgs>(busArgs)...),
        rom_("rom", romCtl()),
        ram_("ram", ramCtl()),
        eeprom_("eeprom", eepromCtl()),
        flash_("flash", flashCtl()),
        irqc_("irqc", sfrCtl(memmap::kIrqBase)),
        timer_(clock_, "timer0", sfrCtl(memmap::kTimerBase), &irqc_, 0),
        timer2_(clock_, "timer1", sfrCtl(memmap::kTimer2Base), &irqc_, 2),
        uart_(clock_, "uart", sfrCtl(memmap::kUartBase)),
        trng_("trng", sfrCtl(memmap::kTrngBase)),
        crypto_(clock_, "crypto", sfrCtl(memmap::kCryptoBase), 2, &irqc_, 1),
        cpu_(clock_, "cpu", bus_, bus_, config.cpu) {
    eeprom_.setExtraWritePerBeat(config.eepromExtraWritePerBeat);
    cpu_.setInterruptSource([this] { return irqc_.pending(); });
    bus_.attach(rom_);
    bus_.attach(ram_);
    bus_.attach(eeprom_);
    bus_.attach(flash_);
    bus_.attach(irqc_);
    bus_.attach(timer_);
    bus_.attach(timer2_);
    bus_.attach(uart_);
    bus_.attach(trng_);
    bus_.attach(crypto_);
  }

  /// Load an assembled program into whichever memory its origin maps
  /// to, and point the core's reset PC at it.
  void loadProgram(const AssembledProgram& program) {
    memoryAt(program.origin).load(program.origin, program.bytes(),
                                  program.byteSize());
    cpu_.reset(program.origin);
  }

  /// Backdoor data load (e.g. constants into EEPROM).
  void loadData(bus::Address address, const std::uint8_t* data,
                std::size_t n) {
    memoryAt(address).load(address, data, n);
  }

  bool run(std::uint64_t maxCycles = 10'000'000) {
    return cpu_.runUntilHalt(maxCycles);
  }

  /// Bind every component to `reg` in construction order. Registration
  /// order is also load order: the clock restores before anything whose
  /// park state it owns. Only instantiable for bus types with
  /// checkpoint support (bus::Tl1Bus; the ref::GlBus reference has
  /// none — don't call this on a reference platform).
  void registerCheckpoint(ckpt::CheckpointRegistry& reg) {
    reg.add("kernel", kernel_);
    reg.add("clk", clock_);
    reg.add("ecbus", bus_);
    reg.add("rom", rom_);
    reg.add("ram", ram_);
    reg.add("eeprom", eeprom_);
    reg.add("flash", flash_);
    reg.add("irqc", irqc_);
    reg.add("timer0", timer_);
    reg.add("timer1", timer2_);
    reg.add("uart", uart_);
    reg.add("trng", trng_);
    reg.add("crypto", crypto_);
    reg.add("cpu", cpu_);
  }

  /// Convenience wrappers over a one-shot registry.
  ckpt::Snapshot checkpoint() {
    ckpt::CheckpointRegistry reg;
    registerCheckpoint(reg);
    return reg.saveAll();
  }
  void restore(const ckpt::Snapshot& snap) {
    ckpt::CheckpointRegistry reg;
    registerCheckpoint(reg);
    reg.loadAll(snap);
  }

  sim::Kernel& kernel() { return kernel_; }
  sim::Clock& clock() { return clock_; }
  BusT& bus() { return bus_; }
  MipsCore& cpu() { return cpu_; }
  bus::MemorySlave& rom() { return rom_; }
  bus::MemorySlave& ram() { return ram_; }
  bus::MemorySlave& eeprom() { return eeprom_; }
  bus::MemorySlave& flash() { return flash_; }
  InterruptController& irqController() { return irqc_; }
  Timer& timer() { return timer_; }
  Timer& timer2() { return timer2_; }
  Uart& uart() { return uart_; }
  Trng& trng() { return trng_; }
  CryptoCoprocessor& crypto() { return crypto_; }

 private:
  static bus::SlaveControl romCtl() {
    bus::SlaveControl c;
    c.base = memmap::kRomBase;
    c.size = memmap::kRomSize;
    c.canWrite = false;
    return c;
  }
  static bus::SlaveControl ramCtl() {
    bus::SlaveControl c;
    c.base = memmap::kRamBase;
    c.size = memmap::kRamSize;
    return c;
  }
  static bus::SlaveControl eepromCtl() {
    bus::SlaveControl c;
    c.base = memmap::kEepromBase;
    c.size = memmap::kEepromSize;
    c.readWait = 1;
    c.writeWait = 3;
    return c;
  }
  static bus::SlaveControl flashCtl() {
    bus::SlaveControl c;
    c.base = memmap::kFlashBase;
    c.size = memmap::kFlashSize;
    c.readWait = 1;
    c.canWrite = false;
    return c;
  }
  static bus::SlaveControl sfrCtl(bus::Address base) {
    bus::SlaveControl c;
    c.base = base;
    c.size = memmap::kSfrWindow;
    c.canExec = false;
    return c;
  }

  bus::MemorySlave& memoryAt(bus::Address address) {
    for (bus::MemorySlave* m : {&rom_, &ram_, &eeprom_, &flash_}) {
      if (m->control().contains(address)) return *m;
    }
    throw std::out_of_range("SmartCardSoC: address maps to no memory");
  }

  sim::Kernel kernel_;
  sim::Clock clock_;
  BusT bus_;
  bus::MemorySlave rom_;
  bus::MemorySlave ram_;
  bus::MemorySlave eeprom_;
  bus::MemorySlave flash_;
  InterruptController irqc_;
  Timer timer_;
  Timer timer2_;
  Uart uart_;
  Trng trng_;
  CryptoCoprocessor crypto_;
  MipsCore cpu_;
};

} // namespace sct::soc

#endif // SCT_SOC_SMARTCARD_H
