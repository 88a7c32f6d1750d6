// Bit-level packing utilities shared by CRC, channel coding and the MAC
// PDU codecs. Bits travel through the PHY as one byte per bit (0/1), the
// layout OAI uses between channel-coding stages; these helpers convert to
// and from packed bytes at the MAC boundary.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace vran {

static_assert(std::endian::native == std::endian::little,
              "the SWAR bit packers assume little-endian words");

/// Pack 8 one-bit-per-byte values (only bit 0 of each counts) into one
/// byte, MSB first: mask every byte to its low bit, then one multiply
/// gathers byte i's bit into bit 7 - i of the top byte (the partial
/// products never overlap, so no carries).
inline std::uint8_t pack8_bits(const std::uint8_t* bits) {
  std::uint64_t w;
  std::memcpy(&w, bits, sizeof(w));
  w &= 0x0101010101010101ull;
  return static_cast<std::uint8_t>((w * 0x8040201008040201ull) >> 56);
}

/// Inverse of pack8_bits: expand one byte into 8 one-bit-per-byte values,
/// MSB first. The byte is replicated into every lane, each lane keeps its
/// own bit, and adding 0x7F carries any set bit up to the lane's bit 7.
inline void unpack8_bits(std::uint8_t byte, std::uint8_t* bits) {
  std::uint64_t w = byte * 0x0101010101010101ull;
  w &= 0x0102040810204080ull;
  w = ((w + 0x7F7F7F7F7F7F7F7Full) >> 7) & 0x0101010101010101ull;
  std::memcpy(bits, &w, sizeof(w));
}

/// Expand packed bytes (MSB first) into one-bit-per-byte form.
std::vector<std::uint8_t> unpack_bits(std::span<const std::uint8_t> bytes);

/// Expand only the first `nbits` bits.
std::vector<std::uint8_t> unpack_bits(std::span<const std::uint8_t> bytes,
                                      std::size_t nbits);

/// Pack one-bit-per-byte values (each 0 or 1, MSB first) into bytes. The
/// tail is zero-padded to a byte boundary.
std::vector<std::uint8_t> pack_bits(std::span<const std::uint8_t> bits);

/// Allocation-free variant packing into caller-provided storage;
/// `out.size()` must be exactly (bits.size() + 7) / 8.
void pack_bits_into(std::span<const std::uint8_t> bits,
                    std::span<std::uint8_t> out);

/// Append `width` bits of `value` (MSB first) to `bits`.
void append_bits(std::vector<std::uint8_t>& bits, std::uint32_t value,
                 int width);

/// Read `width` bits (MSB first) starting at `pos`; advances `pos`.
std::uint32_t read_bits(std::span<const std::uint8_t> bits, std::size_t& pos,
                        int width);

}  // namespace vran
