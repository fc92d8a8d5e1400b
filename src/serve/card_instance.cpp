#include "serve/card_instance.h"

#include "soc/apdu.h"

namespace sct::serve {

namespace {

// Cold-boot work a real card OS performs before answering to reset:
// RAM zeroization (a security requirement — no residue from the
// previous session's keys), an EEPROM filesystem header scan, a crypto
// coprocessor known-answer self-test, and TRNG warm-up draws. Runs
// once per cold boot, before the command loop; ~25k bus cycles. This
// is precisely the cost the golden-snapshot recycle amortizes away:
// bootGolden pays it once, every recycled session skips it, and the
// Serve_BootPerSession benchmark baseline pays it per session.
constexpr const char* kBootPrelude = R"(
    # -- card OS cold boot --------------------------------------------
    # 1. Zeroize the 8 KiB scratchpad RAM.
    li   $t0, 0x08000000
    li   $t1, 0x08002000
  boot_zram:
    sw   $zero, 0($t0)
    addiu $t0, $t0, 4
    bne  $t0, $t1, boot_zram

    # 2. EEPROM filesystem header scan: checksum the first 8 KiB
    #    (waited reads — EEPROM pays its read wait state per word).
    li   $t0, 0x0A000000
    li   $t1, 0x0A002000
    addiu $v0, $zero, 0
  boot_escan:
    lw   $t3, 0($t0)
    addu $v0, $v0, $t3
    addiu $t0, $t0, 4
    bne  $t0, $t1, boot_escan

    # 3. Crypto coprocessor known-answer self-test.
    li   $t0, 0x00112233
    sw   $t0, 0x00($s2)
    li   $t0, 0x44556677
    sw   $t0, 0x04($s2)
    li   $t0, 0x8899AABB
    sw   $t0, 0x08($s2)
    li   $t0, 0xCCDDEEFF
    sw   $t0, 0x0C($s2)
    li   $t0, 0x01234567
    sw   $t0, 0x10($s2)
    li   $t0, 0x89ABCDEF
    sw   $t0, 0x14($s2)
    addiu $t0, $zero, 1
    sw   $t0, 0x18($s2)
  boot_kat:
    lw   $t0, 0x1C($s2)
    bnez $t0, boot_kat
    lw   $t0, 0x10($s2)
    lw   $t1, 0x14($s2)

    # 4. TRNG warm-up draws.
    addiu $t2, $zero, 8
  boot_trng:
    lw   $t0, 0($s1)
    addiu $t2, $t2, -1
    bnez $t2, boot_trng
)";

const soc::AssembledProgram& applet() {
  static const soc::AssembledProgram prog =
      soc::apdu::cardApplet(kCardPin, kBootPrelude);
  return prog;
}

} // namespace

CardInstance::CardInstance(const power::SignalEnergyTable& table)
    : rig_(table, applet()) {
  rig_.pm.attachLedger(ledger_);
  rig_.registry.add("ledger", ledger_);
}

ckpt::Snapshot CardInstance::bootGolden(
    const power::SignalEnergyTable& table) {
  CardInstance card(table);

  // Warmup: a full GET CHALLENGE round trip. When the response is
  // back, the applet has initialized and re-entered its command-wait
  // loop. (The draw consumes TRNG state before the snapshot, which is
  // fine — every session inherits the identical post-warmup state.)
  soc::apdu::Session<power::CardRig::Soc> session(card.rig_.soc);
  soc::apdu::Command chal;
  chal.ins = soc::apdu::kInsGetChallenge;
  soc::apdu::Response r;
  if (!session.exchange(chal, 4, r) || r.sw != soc::apdu::kSwOk) {
    throw ckpt::CheckpointError(
        "CardInstance::bootGolden: warmup exchange failed (applet did not "
        "reach its command loop)");
  }

  // The wait loop alternates UART status loads with cached ALU cycles,
  // so quiesce points come around every few instructions.
  return card.rig_.snapshotWhen([] { return true; }, 200'000,
                                "CardInstance::bootGolden");
}

SessionOutcome CardInstance::runSession(const std::vector<Step>& steps,
                                        std::uint64_t maxCyclesPerStep) {
  SessionOutcome out;
  if (steps.empty()) {
    out.error = "empty scenario";
    return out;
  }

  power::CardRig::Soc& soc = rig_.soc;
  const obs::LedgerView before = ledger_.view();
  const std::uint64_t startCycle = soc.clock().cycle();
  const std::uint64_t startInstr = soc.cpu().stats().instructions;

  soc::apdu::Session<power::CardRig::Soc> session(soc);
  out.ok = true;
  out.expected = true;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    soc::apdu::Response r;
    if (!session.exchange(steps[i].cmd, steps[i].expectData, r,
                          maxCyclesPerStep)) {
      out.ok = false;
      out.expected = false;
      out.error = "timeout at step " + std::to_string(i);
      break;
    }
    out.sw.push_back(r.sw);
    if (r.sw != steps[i].expectSw) out.expected = false;
  }

  // Settle the platform so the energy window closes at a quiesce point
  // (the ledger total and the deferred cycle sum agree there). The
  // final end-of-session command halted the core; only the UART
  // shifter can still be live.
  rig_.settle(power::CardRig::kSettleCycles);

  out.cycles = soc.clock().cycle() - startCycle;
  out.instructions = soc.cpu().stats().instructions - startInstr;
  out.energy = obs::delta(ledger_.view(), before);
  return out;
}

} // namespace sct::serve
