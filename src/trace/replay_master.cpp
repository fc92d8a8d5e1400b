#include "trace/replay_master.h"

#include <cstring>

namespace sct::trace {

void makeRequest(const TraceEntry& e, bus::Tl1Request& r, PayloadBuffer*) {
  r.kind = e.kind;
  r.address = e.address;
  r.size = e.size;
  r.beats = e.beats;
  r.data = e.writeData;
}

void makeRequest(const TraceEntry& e, bus::Tl2Request& r,
                 PayloadBuffer* buffer) {
  r.kind = e.kind;
  r.address = e.address;
  r.bytes = e.byteCount();
  r.data = buffer->data();
  if (e.kind == bus::Kind::Write) {
    std::memcpy(r.data, e.writeData.data(), r.bytes);
  }
}

void savePayload(ckpt::StateWriter& w, const bus::Tl1Request& q) {
  for (const bus::Word v : q.data) w.u32(v);
  w.u8(static_cast<std::uint8_t>(q.result));
  w.u8(static_cast<std::uint8_t>(q.stage));
  w.u8(q.beatsDone);
  w.i64(q.slave);
  w.u32(q.waitCount);
  w.u64(q.acceptCycle);
  w.u64(q.finishCycle);
}

void savePayload(ckpt::StateWriter& w, const bus::Tl2Request& q) {
  w.bytes(q.data, sizeof(PayloadBuffer));
  w.u8(static_cast<std::uint8_t>(q.result));
  w.u8(static_cast<std::uint8_t>(q.stage));
  w.i64(q.slave);
  w.u32(q.addrCyclesLeft);
  w.u32(q.dataCyclesLeft);
  w.u32(q.addrCycles);
  w.u32(q.dataCycles);
  w.u64(q.acceptCycle);
  w.u64(q.finishCycle);
  w.u64(q.addrDoneCycle);
  w.u64(q.dataDoneCycle);
}

void loadPayload(ckpt::StateReader& r, bus::Tl1Request& q) {
  for (bus::Word& v : q.data) v = r.u32();
  q.result = static_cast<bus::BusStatus>(r.u8());
  q.stage = static_cast<bus::Tl1Stage>(r.u8());
  q.beatsDone = r.u8();
  q.slave = static_cast<int>(r.i64());
  q.waitCount = r.u32();
  q.acceptCycle = r.u64();
  q.finishCycle = r.u64();
}

void loadPayload(ckpt::StateReader& r, bus::Tl2Request& q) {
  r.bytes(q.data, sizeof(PayloadBuffer));
  q.result = static_cast<bus::BusStatus>(r.u8());
  q.stage = static_cast<bus::Tl2Stage>(r.u8());
  q.slave = static_cast<int>(r.i64());
  q.addrCyclesLeft = r.u32();
  q.dataCyclesLeft = r.u32();
  q.addrCycles = r.u32();
  q.dataCycles = r.u32();
  q.acceptCycle = r.u64();
  q.finishCycle = r.u64();
  q.addrDoneCycle = r.u64();
  q.dataDoneCycle = r.u64();
}

} // namespace sct::trace
