// 3GPP TS 36.211 §7.2 pseudo-random (Gold) sequence generation and the
// bit-scrambling / LLR-descrambling stages.
//
// c(n) = (x1(n + Nc) + x2(n + Nc)) mod 2, Nc = 1600, where x1/x2 are
// length-31 LFSRs; x1 starts at 000...01 and x2 at c_init.
//
// The generator is word-parallel: each LFSR is held as the 32
// consecutive sequence bits x(n..n+31) of a uint32 (x(n) in bit 0), and
// one step computes the next 32 from the taps at once, so the Nc = 1600
// warm-up is 50 word steps (and x1's, which starts from a constant, is
// folded into a constant).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/cpu_features.h"

namespace vran::phy {

/// Generate `n` Gold-sequence bits for a given c_init.
std::vector<std::uint8_t> gold_sequence(std::uint32_t c_init, std::size_t n);

/// PUSCH scrambling initialization (36.211 §5.3.1):
/// c_init = rnti * 2^14 + q * 2^13 + floor(ns/2) * 2^9 + cell_id.
std::uint32_t pusch_c_init(std::uint16_t rnti, int q, int ns, int cell_id);

/// Streaming generator — keeps LFSR state so consecutive blocks of one
/// codeword don't regenerate the prefix. `next()` and `next_word()` may
/// be mixed freely; both continue the same sequence.
class GoldSequence {
 public:
  explicit GoldSequence(std::uint32_t c_init);
  /// The next sequence bit (one LFSR step).
  std::uint8_t next();
  /// The next 32 sequence bits, the earliest in bit 0 (one word step).
  std::uint32_t next_word();
  void generate(std::span<std::uint8_t> out);

 private:
  std::uint32_t x1_;  // x1(n..n+31) of the current position n, x1(n) in bit 0
  std::uint32_t x2_;
};

/// XOR-scramble bits in place (transmitter).
void scramble_bits(std::span<std::uint8_t> bits, std::uint32_t c_init);

/// Descramble soft LLRs in place (receiver): flip the sign where c = 1,
/// saturating -32768 to 32767. Works for any LLR convention since
/// scrambling is an involution. Every tier is byte-identical; `isa` is
/// clamped to what the CPU supports.
void descramble_llr(std::span<std::int16_t> llr, std::uint32_t c_init,
                    IsaLevel isa = best_isa());

}  // namespace vran::phy
