#include "phy/crc/crc.h"

#include <array>
#include <stdexcept>

#include "common/bitio.h"

namespace vran::phy {

namespace {

// 36.212 §5.1.1 generator polynomials (leading term dropped).
constexpr std::uint32_t kPoly24A = 0x864CFB;  // D^24+D^23+D^18+D^17+D^14+...
constexpr std::uint32_t kPoly24B = 0x800063;  // D^24+D^23+D^6+D^5+D+1
constexpr std::uint32_t kPoly16 = 0x1021;     // CCITT
constexpr std::uint32_t kPoly8 = 0x9B;        // D^8+D^7+D^4+D^3+D+1

// Slice-by-4 tables over a 32-bit register that holds the remainder
// MSB-aligned (r << (32 - len)) — one layout serves all four lengths.
// t[0] is the classic byte table; t[s] advances a byte 8*s more zero
// bits, so four lookups retire 32 message bits per step.
struct Tables {
  std::uint32_t poly = 0;  ///< generator, MSB-aligned
  std::array<std::array<std::uint32_t, 256>, 4> t{};
};

constexpr Tables make_tables(std::uint32_t poly, int len) {
  Tables out;
  out.poly = poly << (32 - len);
  for (std::uint32_t byte = 0; byte < 256; ++byte) {
    std::uint32_t r = byte << 24;
    for (int bit = 0; bit < 8; ++bit) {
      r = (r & 0x80000000u) ? ((r << 1) ^ out.poly) : (r << 1);
    }
    out.t[0][byte] = r;
  }
  for (std::size_t s = 1; s < 4; ++s) {
    for (std::size_t byte = 0; byte < 256; ++byte) {
      const std::uint32_t r = out.t[s - 1][byte];
      out.t[s][byte] = (r << 8) ^ out.t[0][r >> 24];
    }
  }
  return out;
}

constexpr Tables kTab24A = make_tables(kPoly24A, 24);
constexpr Tables kTab24B = make_tables(kPoly24B, 24);
constexpr Tables kTab16 = make_tables(kPoly16, 16);
constexpr Tables kTab8 = make_tables(kPoly8, 8);

const Tables& tables_for(CrcType t) {
  switch (t) {
    case CrcType::k24A: return kTab24A;
    case CrcType::k24B: return kTab24B;
    case CrcType::k16: return kTab16;
    case CrcType::k8: return kTab8;
  }
  throw std::invalid_argument("unknown CRC type");
}

// Advance the aligned remainder by one packed byte.
inline std::uint32_t step8(const Tables& tb, std::uint32_t r,
                           std::uint32_t byte) {
  return (r << 8) ^ tb.t[0][(r >> 24) ^ byte];
}

// Advance by four packed bytes, the first in bits 31..24 of `word`.
inline std::uint32_t step32(const Tables& tb, std::uint32_t r,
                            std::uint32_t word) {
  r ^= word;
  return tb.t[3][r >> 24] ^ tb.t[2][(r >> 16) & 0xFFu] ^
         tb.t[1][(r >> 8) & 0xFFu] ^ tb.t[0][r & 0xFFu];
}

// Advance by one message bit.
inline std::uint32_t step1(const Tables& tb, std::uint32_t r,
                           std::uint32_t bit) {
  const bool x = ((r >> 31) ^ bit) != 0;
  r <<= 1;
  return x ? (r ^ tb.poly) : r;
}

// Four packed bytes, big-endian, as one step32 word.
inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

// Four packed bytes from 32 one-bit-per-byte values, MSB first.
inline std::uint32_t pack_be32(const std::uint8_t* bits) {
  return (std::uint32_t{pack8_bits(bits)} << 24) |
         (std::uint32_t{pack8_bits(bits + 8)} << 16) |
         (std::uint32_t{pack8_bits(bits + 16)} << 8) |
         std::uint32_t{pack8_bits(bits + 24)};
}

}  // namespace

std::uint32_t crc_polynomial(CrcType t) {
  switch (t) {
    case CrcType::k24A: return kPoly24A;
    case CrcType::k24B: return kPoly24B;
    case CrcType::k16: return kPoly16;
    case CrcType::k8: return kPoly8;
  }
  throw std::invalid_argument("unknown CRC type");
}

std::uint32_t crc_bits(std::span<const std::uint8_t> bits, CrcType t) {
  const Tables& tb = tables_for(t);
  const std::uint8_t* p = bits.data();
  std::size_t n = bits.size();
  std::uint32_t r = 0;
  for (; n >= 32; n -= 32, p += 32) r = step32(tb, r, pack_be32(p));
  for (; n >= 8; n -= 8, p += 8) r = step8(tb, r, pack8_bits(p));
  for (; n > 0; --n, ++p) r = step1(tb, r, *p & 1u);
  return r >> (32 - crc_length(t));
}

std::uint32_t crc_bytes(std::span<const std::uint8_t> bytes, CrcType t) {
  const Tables& tb = tables_for(t);
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint32_t r = 0;
  for (; n >= 4; n -= 4, p += 4) r = step32(tb, r, load_be32(p));
  for (; n > 0; --n, ++p) r = step8(tb, r, *p);
  return r >> (32 - crc_length(t));
}

void crc_attach(std::vector<std::uint8_t>& bits, CrcType t) {
  const std::uint32_t r = crc_bits(bits, t);
  const int len = crc_length(t);
  for (int b = len - 1; b >= 0; --b) {
    bits.push_back(static_cast<std::uint8_t>((r >> b) & 1u));
  }
}

bool crc_check(std::span<const std::uint8_t> bits_with_crc, CrcType t) {
  if (bits_with_crc.size() < static_cast<std::size_t>(crc_length(t))) {
    return false;
  }
  return crc_bits(bits_with_crc, t) == 0;
}

void crc16_attach_masked(std::vector<std::uint8_t>& bits, std::uint16_t rnti) {
  std::uint32_t r = crc_bits(bits, CrcType::k16);
  r ^= rnti;
  for (int b = 15; b >= 0; --b) {
    bits.push_back(static_cast<std::uint8_t>((r >> b) & 1u));
  }
}

bool crc16_check_masked(std::span<const std::uint8_t> bits_with_crc,
                        std::uint16_t rnti) {
  if (bits_with_crc.size() < 16) return false;
  const std::size_t n = bits_with_crc.size() - 16;
  const std::uint32_t want = crc_bits(bits_with_crc.first(n), CrcType::k16);
  std::uint32_t got = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    got = (got << 1) | (bits_with_crc[n + i] & 1u);
  }
  return (want ^ got) == rnti;
}

}  // namespace vran::phy
