// Tests for the 36.212 CRC family.
#include <gtest/gtest.h>

#include "common/bitio.h"
#include "common/rng.h"
#include "phy/crc/crc.h"

namespace vran::phy {
namespace {

TEST(Crc, Crc16CcittKnownVector) {
  // "123456789" with init 0, no reflection -> 0x31C3 (CCITT/XMODEM).
  const std::string msg = "123456789";
  std::vector<std::uint8_t> bytes(msg.begin(), msg.end());
  EXPECT_EQ(crc_bytes(bytes, CrcType::k16), 0x31C3u);
}

TEST(Crc, BitwiseMatchesTableDriven) {
  Xoshiro256 rng(3);
  for (auto t : {CrcType::k24A, CrcType::k24B, CrcType::k16, CrcType::k8}) {
    for (std::size_t n : {1u, 2u, 17u, 128u, 751u}) {
      std::vector<std::uint8_t> bytes(n);
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
      const auto bits = unpack_bits(bytes);
      EXPECT_EQ(crc_bits(bits, t), crc_bytes(bytes, t))
          << "type=" << int(t) << " n=" << n;
    }
  }
}

TEST(Crc, AttachThenCheckPasses) {
  Xoshiro256 rng(5);
  for (auto t : {CrcType::k24A, CrcType::k24B, CrcType::k16, CrcType::k8}) {
    std::vector<std::uint8_t> bits(301);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next() & 1);
    crc_attach(bits, t);
    EXPECT_EQ(bits.size(), 301u + static_cast<std::size_t>(crc_length(t)));
    EXPECT_TRUE(crc_check(bits, t));
  }
}

TEST(Crc, DetectsEverySingleBitFlip) {
  std::vector<std::uint8_t> bits(64, 0);
  bits[3] = bits[17] = bits[40] = 1;
  crc_attach(bits, CrcType::k24A);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    auto corrupted = bits;
    corrupted[i] ^= 1;
    EXPECT_FALSE(crc_check(corrupted, CrcType::k24A)) << i;
  }
}

TEST(Crc, DetectsBurstErrors) {
  Xoshiro256 rng(7);
  std::vector<std::uint8_t> bits(500);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next() & 1);
  crc_attach(bits, CrcType::k24B);
  // Any burst of length <= 24 must be detected.
  for (int len = 1; len <= 24; ++len) {
    auto corrupted = bits;
    const std::size_t at = rng.bounded(corrupted.size() - 24);
    for (int j = 0; j < len; ++j) corrupted[at + static_cast<std::size_t>(j)] ^= 1;
    EXPECT_FALSE(crc_check(corrupted, CrcType::k24B)) << len;
  }
}

TEST(Crc, TooShortFailsCheck) {
  std::vector<std::uint8_t> bits(10, 1);
  EXPECT_FALSE(crc_check(bits, CrcType::k24A));
}

TEST(Crc, MaskedRntiRoundTrip) {
  std::vector<std::uint8_t> bits(27);
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = (i * 7 + 1) & 1;
  auto tx = bits;
  crc16_attach_masked(tx, 0xC0FE);
  EXPECT_TRUE(crc16_check_masked(tx, 0xC0FE));
  EXPECT_FALSE(crc16_check_masked(tx, 0xC0FF));  // wrong RNTI
  tx[5] ^= 1;
  EXPECT_FALSE(crc16_check_masked(tx, 0xC0FE));  // corrupted payload
}

// Bit-at-a-time reference straight from the 36.212 shift-register
// definition; only bit 0 of each input byte counts.
std::uint32_t crc_bits_ref(std::span<const std::uint8_t> bits, CrcType t) {
  const int len = crc_length(t);
  const std::uint32_t top = 1u << (len - 1);
  const std::uint32_t mask = (1u << len) - 1;
  std::uint32_t r = 0;
  for (const std::uint8_t b : bits) {
    const bool x = ((r & top) != 0) ^ ((b & 1u) != 0);
    r = ((r << 1) ^ (x ? crc_polynomial(t) : 0u)) & mask;
  }
  return r;
}

TEST(Crc, BitsMatchBitwiseReferenceAtEveryLength) {
  // Random bytes, not just 0/1: the packed path must mask each to bit 0.
  Xoshiro256 rng(11);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  for (std::size_t n : {4224u, 6144u, 12464u}) lengths.push_back(n);
  for (auto t : {CrcType::k24A, CrcType::k24B, CrcType::k16, CrcType::k8}) {
    for (const std::size_t n : lengths) {
      std::vector<std::uint8_t> bytes(n);
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
      ASSERT_EQ(crc_bits(bytes, t), crc_bits_ref(bytes, t))
          << "type=" << int(t) << " n=" << n;
      for (auto& b : bytes) b &= 1u;
      ASSERT_EQ(crc_bits(bytes, t), crc_bits_ref(bytes, t))
          << "type=" << int(t) << " n=" << n << " (0/1 input)";
    }
  }
}

TEST(Crc, ZeroMessageNonTrivialBehaviour) {
  // All-zero message has zero CRC (linear code); appending it still checks.
  std::vector<std::uint8_t> bits(40, 0);
  EXPECT_EQ(crc_bits(bits, CrcType::k24A), 0u);
  crc_attach(bits, CrcType::k24A);
  EXPECT_TRUE(crc_check(bits, CrcType::k24A));
}

}  // namespace
}  // namespace vran::phy
