#include "bus/ec_types.h"

#include <gtest/gtest.h>

namespace sct::bus {
namespace {

TEST(EcTypesTest, AddressMaskIs36Bits) {
  EXPECT_EQ(kAddressMask, 0xFFFFFFFFFull);
}

TEST(EcTypesTest, ByteEnablesForByteAccess) {
  EXPECT_EQ(byteEnables(AccessSize::Byte, 0x100), 0x1);
  EXPECT_EQ(byteEnables(AccessSize::Byte, 0x101), 0x2);
  EXPECT_EQ(byteEnables(AccessSize::Byte, 0x102), 0x4);
  EXPECT_EQ(byteEnables(AccessSize::Byte, 0x103), 0x8);
}

TEST(EcTypesTest, ByteEnablesForHalfAccess) {
  // A misaligned offset keeps the aligned pair of its half-word.
  EXPECT_EQ(byteEnables(AccessSize::Half, 0x100), 0x3);
  EXPECT_EQ(byteEnables(AccessSize::Half, 0x101), 0x3);
  EXPECT_EQ(byteEnables(AccessSize::Half, 0x102), 0xC);
  EXPECT_EQ(byteEnables(AccessSize::Half, 0x103), 0xC);
}

TEST(EcTypesTest, ByteEnablesForWordAccess) {
  EXPECT_EQ(byteEnables(AccessSize::Word, 0x100), 0xF);
  EXPECT_EQ(byteEnables(AccessSize::Word, 0x101), 0xF);
  EXPECT_EQ(byteEnables(AccessSize::Word, 0x102), 0xF);
  EXPECT_EQ(byteEnables(AccessSize::Word, 0x103), 0xF);
}

TEST(EcTypesTest, Alignment) {
  EXPECT_TRUE(isAligned(AccessSize::Byte, 0x101));
  EXPECT_TRUE(isAligned(AccessSize::Half, 0x102));
  EXPECT_FALSE(isAligned(AccessSize::Half, 0x101));
  EXPECT_TRUE(isAligned(AccessSize::Word, 0x104));
  EXPECT_FALSE(isAligned(AccessSize::Word, 0x102));
}

TEST(EcTypesTest, KindPredicates) {
  EXPECT_TRUE(isRead(Kind::InstrFetch));
  EXPECT_TRUE(isRead(Kind::Read));
  EXPECT_FALSE(isRead(Kind::Write));
}

TEST(EcTypesTest, ToStringCoversAllValues) {
  EXPECT_EQ(toString(Kind::InstrFetch), "instr");
  EXPECT_EQ(toString(Kind::Read), "read");
  EXPECT_EQ(toString(Kind::Write), "write");
  EXPECT_EQ(toString(BusStatus::Request), "request");
  EXPECT_EQ(toString(BusStatus::Wait), "wait");
  EXPECT_EQ(toString(BusStatus::Ok), "ok");
  EXPECT_EQ(toString(BusStatus::Error), "error");
  EXPECT_EQ(toString(AccessSize::Byte), "byte");
  EXPECT_EQ(toString(AccessSize::Half), "half");
  EXPECT_EQ(toString(AccessSize::Word), "word");
}

TEST(EcTypesTest, SlaveControlContains) {
  SlaveControl c;
  c.base = 0x1000;
  c.size = 0x100;
  EXPECT_FALSE(c.contains(0xFFF));
  EXPECT_TRUE(c.contains(0x1000));
  EXPECT_TRUE(c.contains(0x10FF));
  EXPECT_FALSE(c.contains(0x1100));
  EXPECT_EQ(c.end(), 0x1100u);
}

TEST(EcTypesTest, SlaveControlAccessRights) {
  SlaveControl c;
  c.canRead = true;
  c.canWrite = false;
  c.canExec = true;
  EXPECT_TRUE(c.allows(Kind::Read));
  EXPECT_FALSE(c.allows(Kind::Write));
  EXPECT_TRUE(c.allows(Kind::InstrFetch));
}

} // namespace
} // namespace sct::bus
