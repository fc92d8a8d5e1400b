// Generic memory slave.
//
// Covers the smart card's on-chip memories (ROM, EEPROM, FLASH,
// scratchpad RAM) — they differ only in size, wait states and access
// rights, all of which live in the SlaveControl handed to the
// constructor. EEPROM/FLASH write behaviour (long programming times)
// is modeled with the `extraWritePerBeat` dynamic stretch.
#ifndef SCT_BUS_MEMORY_SLAVE_H
#define SCT_BUS_MEMORY_SLAVE_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bus/ec_interfaces.h"
#include "bus/ec_types.h"
#include "ckpt/state_io.h"

namespace sct::bus {

class MemorySlave : public EcSlave {
 public:
  /// `control.size` bytes are allocated zero-initialized.
  MemorySlave(std::string name, const SlaveControl& control);

  /// Copy-on-write construction from a shared prototype image of
  /// `control.size` bytes. The slave reads through `sharedImage` (which
  /// must stay valid until the slave is destroyed or first written) and
  /// only materializes a private copy on the first mutation — replay
  /// harnesses that build a platform per run load large ROM/flash
  /// contents for free this way.
  MemorySlave(std::string name, const SlaveControl& control,
              const std::uint8_t* sharedImage);

  std::string_view name() const override { return name_; }
  const SlaveControl& control() const override { return control_; }

  // The beat functions are defined inline below: the layer-1 bus calls
  // them directly (devirtualized) once per data-phase cycle, and the
  // bodies are small enough that the call should disappear entirely.
  BusStatus readBeat(Address addr, AccessSize size, Word& out) override;
  BusStatus writeBeat(Address addr, AccessSize size, std::uint8_t byteEnables,
                      Word in) override;
  bool readBlock(Address addr, std::uint8_t* dst, std::size_t n) override;
  bool writeBlock(Address addr, const std::uint8_t* src,
                  std::size_t n) override;

  /// Dynamic per-beat write stretch: the slave answers Wait this many
  /// times before accepting each write beat (e.g. EEPROM programming).
  /// Invisible to the layer-2 timing estimation — one of the paper's
  /// layer-2 error sources.
  void setExtraWritePerBeat(unsigned cycles) { extraWritePerBeat_ = cycles; }

  /// Direct backdoor access (no bus, no timing) for loaders and tests.
  /// The mutable overload materializes a shared image (copy-on-write)
  /// and conservatively marks the whole image dirty — the raw pointer
  /// can write anywhere, so page tracking must assume it did.
  std::uint8_t* data() {
    materialize();
    std::fill(dirty_.begin(), dirty_.end(), ~std::uint64_t{0});
    return bytes_.data();
  }
  const std::uint8_t* data() const { return roData(); }
  std::size_t sizeBytes() const { return size_; }
  void load(Address busAddr, const std::uint8_t* src, std::size_t n);
  Word peekWord(Address busAddr) const;
  void pokeWord(Address busAddr, Word value);

  /// FNV-1a (64-bit) over the live image: lets equivalence and fuzz
  /// tests compare whole memories without copying them out, and gives
  /// checkpoint tests a cheap image identity.
  std::uint64_t imageDigest() const;

  /// -- Checkpoint (see ckpt/checkpoint.h) ------------------------------
  /// Dirty-page serialization: only kCkptPageBytes-sized pages that
  /// differ from the construction baseline (the shared prototype image,
  /// or all-zeros for a plainly constructed slave) enter the section, so
  /// a mostly clean ROM/flash snapshot costs almost nothing and a fork
  /// restored from it stays copy-on-write when no page was dirty.
  /// Checkpointing a shared-image slave requires the prototype image to
  /// outlive the slave (all in-repo prototypes are static caches or a
  /// parent system kept alive while its fork sweep runs).
  ///
  /// Every mutation path additionally marks its pages in a runtime
  /// dirty bitmap (one bit-or per write beat). The bitmap is a strict
  /// superset of the pages that differ from the baseline, which makes
  /// both checkpoint directions proportional to pages TOUCHED rather
  /// than memory SIZE: saveState diffs only marked pages, and
  /// loadState re-baselines only marked pages instead of rewriting the
  /// whole image. That last part is what lets a serve-daemon worker
  /// recycle a card from the golden snapshot in microseconds — a
  /// session dirties a handful of RAM pages, not 256 KiB of ROM. The
  /// bitmap is derived state and never serialized (the on-disk format
  /// is unchanged, so existing golden checkpoint files stay valid).
  static constexpr std::uint32_t kCkptVersion = 1;
  static constexpr std::size_t kCkptPageBytes = 256;
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 protected:
  std::size_t offset(Address addr) const {
    return static_cast<std::size_t>(addr - control_.base);
  }
  bool inWindow(Address addr, std::size_t n) const {
    return addr >= control_.base && addr - control_.base + n <= size_;
  }

 private:
  const std::uint8_t* roData() const {
    return shared_ != nullptr ? shared_ : bytes_.data();
  }
  /// Expand a 4-bit byte-enable mask into a 32-bit byte mask
  /// (bit i set -> byte lane i all-ones).
  static Word laneMask(std::uint8_t byteEnables) {
    const Word spread = ((byteEnables & 1u) ? 0x000000FFu : 0u) |
                        ((byteEnables & 2u) ? 0x0000FF00u : 0u) |
                        ((byteEnables & 4u) ? 0x00FF0000u : 0u) |
                        ((byteEnables & 8u) ? 0xFF000000u : 0u);
    return spread;
  }
  /// Turn a shared image into a private copy before the first mutation.
  void materialize() {
    if (shared_ != nullptr) {
      bytes_.assign(shared_, shared_ + size_);
      shared_ = nullptr;
    }
  }

  std::size_t pageCount() const {
    return (size_ + kCkptPageBytes - 1) / kCkptPageBytes;
  }
  bool pageDirty(std::size_t page) const {
    return (dirty_[page >> 6] >> (page & 63)) & 1u;
  }
  void markPage(std::size_t page) {
    dirty_[page >> 6] |= std::uint64_t{1} << (page & 63);
  }
  /// Mark every page overlapping [off, off + n).
  void markRange(std::size_t off, std::size_t n) {
    const std::size_t last = (off + n - 1) / kCkptPageBytes;
    for (std::size_t page = off / kCkptPageBytes; page <= last; ++page) {
      markPage(page);
    }
  }

  std::string name_;
  SlaveControl control_;
  std::vector<std::uint8_t> bytes_;
  const std::uint8_t* shared_ = nullptr;  ///< Non-null until materialized.
  /// Construction prototype (null = zero-initialized): the reference the
  /// checkpoint's dirty pages are diffed against and restored onto.
  const std::uint8_t* baseline_ = nullptr;
  /// Runtime dirty bitmap, one bit per kCkptPageBytes page — superset
  /// of the pages differing from the baseline. Derived state: never
  /// serialized, reconciled to the snapshot's page set on loadState.
  std::vector<std::uint64_t> dirty_;
  std::size_t size_ = 0;
  unsigned extraWritePerBeat_ = 0;
  unsigned pendingStretch_ = 0;
};

inline BusStatus MemorySlave::readBeat(Address addr, AccessSize size,
                                       Word& out) {
  const auto n = static_cast<std::size_t>(size);
  if (!inWindow(addr, n)) return BusStatus::Error;
  // Reads are returned on word-aligned lanes, as on the EC read bus.
  const std::size_t wordOff = offset(addr) & ~std::size_t{3};
  Word w = 0;
  std::memcpy(&w, roData() + wordOff, 4);
  out = w;
  return BusStatus::Ok;
}

inline BusStatus MemorySlave::writeBeat(Address addr, AccessSize size,
                                        std::uint8_t byteEnables, Word in) {
  const auto n = static_cast<std::size_t>(size);
  if (!inWindow(addr, n)) return BusStatus::Error;
  if (pendingStretch_ < extraWritePerBeat_) {
    ++pendingStretch_;
    return BusStatus::Wait;
  }
  pendingStretch_ = 0;
  materialize();
  // Branchless lane merge: expand the 4-bit byte-enable mask to a byte
  // mask and blend the enabled lanes into the stored word (same bytes
  // the per-lane loop wrote).
  const std::size_t wordOff = offset(addr) & ~std::size_t{3};
  markPage(wordOff / kCkptPageBytes);
  const Word mask = laneMask(byteEnables);
  Word w = 0;
  std::memcpy(&w, bytes_.data() + wordOff, 4);
  w = (w & ~mask) | (in & mask);
  std::memcpy(bytes_.data() + wordOff, &w, 4);
  return BusStatus::Ok;
}

} // namespace sct::bus

#endif // SCT_BUS_MEMORY_SLAVE_H
