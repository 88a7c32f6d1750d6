#include "phy/scramble/scrambler.h"

#include <algorithm>

#include "common/saturate.h"
#include "phy/scramble/scramble_simd.h"

namespace vran::phy {

namespace {

constexpr int kNc = 1600;
static_assert(kNc % 32 == 0, "the warm-up is a whole number of word steps");

// Word steps. A register holds x(m..m+31), x(m) in bit 0; the next one
// holds x(m+32..m+63). From x(j+31) = x(j+3) + x(j) (x1) and
// x(j+31) = x(j+3) + x(j+2) + x(j+1) + x(j) (x2) with j = m+1+i, new bit
// i reads register bits i+1..i+4. Those are all in the register for
// i <= 27; bits 28..31 also read new bits 0..3, which the shifted-up
// copies of t supply (t's bits 0..3 are already final).
constexpr std::uint32_t x1_word_step(std::uint32_t x) {
  const std::uint32_t t = (x >> 1) ^ (x >> 4);
  return t ^ (t << 28) ^ (t << 31);
}

constexpr std::uint32_t x2_word_step(std::uint32_t x) {
  const std::uint32_t t = (x >> 1) ^ (x >> 2) ^ (x >> 3) ^ (x >> 4);
  return t ^ (t << 28) ^ (t << 29) ^ (t << 30) ^ (t << 31);
}

// x1 starts at 000...01 for every c_init, so its state after the warm-up
// is a constant. x1(31) = x1(3) + x1(0) = 1 completes the first word.
constexpr std::uint32_t x1_after_warmup() {
  std::uint32_t x = 0x80000001u;
  for (int i = 0; i < kNc / 32; ++i) x = x1_word_step(x);
  return x;
}

constexpr std::uint32_t kX1AfterWarmup = x1_after_warmup();

/// Scalar reference of the descramble kernels: LLR i is negated
/// (saturating, -32768 -> 32767) where bit i % 32 of words[i / 32] is
/// set. Branch-free, as (v ^ m) - m with m = 0 or -1: a branch on the
/// sequence bit mispredicts half the time.
void descramble_scalar(std::int16_t* llr, std::size_t from, std::size_t n,
                       const std::uint32_t* words) {
  for (std::size_t i = from; i < n; ++i) {
    const auto m = static_cast<std::int16_t>(
        -static_cast<int>((words[i / 32] >> (i % 32)) & 1u));
    llr[i] = sat_sub16(static_cast<std::int16_t>(llr[i] ^ m), m);
  }
}

/// out[i] = op(out[i], c(n + i)) over the generator's next out.size()
/// bits, one word step per 32.
template <class Op>
void for_each_bit(GoldSequence& g, std::span<std::uint8_t> out, Op op) {
  for (std::size_t i = 0; i < out.size(); i += 32) {
    const std::uint32_t w = g.next_word();
    const std::size_t n = std::min<std::size_t>(32, out.size() - i);
    for (std::size_t k = 0; k < n; ++k) {
      out[i + k] = op(out[i + k], static_cast<std::uint8_t>((w >> k) & 1u));
    }
  }
}

}  // namespace

GoldSequence::GoldSequence(std::uint32_t c_init) : x1_(kX1AfterWarmup) {
  const std::uint32_t c = c_init & 0x7FFFFFFFu;
  // x2(31) = x2(3) + x2(2) + x2(1) + x2(0).
  x2_ = c | (((c ^ (c >> 1) ^ (c >> 2) ^ (c >> 3)) & 1u) << 31);
  for (int i = 0; i < kNc / 32; ++i) x2_ = x2_word_step(x2_);
}

std::uint8_t GoldSequence::next() {
  const std::uint8_t c = static_cast<std::uint8_t>((x1_ ^ x2_) & 1u);
  // One bit step: x(n+32) = x(n+4) + x(n+1) (x1), and the sum of
  // x(n+1..n+4) (x2).
  x1_ = (x1_ >> 1) | ((((x1_ >> 1) ^ (x1_ >> 4)) & 1u) << 31);
  x2_ = (x2_ >> 1) |
        ((((x2_ >> 1) ^ (x2_ >> 2) ^ (x2_ >> 3) ^ (x2_ >> 4)) & 1u) << 31);
  return c;
}

std::uint32_t GoldSequence::next_word() {
  const std::uint32_t c = x1_ ^ x2_;
  x1_ = x1_word_step(x1_);
  x2_ = x2_word_step(x2_);
  return c;
}

void GoldSequence::generate(std::span<std::uint8_t> out) {
  for_each_bit(*this, out, [](std::uint8_t, std::uint8_t c) { return c; });
}

std::vector<std::uint8_t> gold_sequence(std::uint32_t c_init, std::size_t n) {
  std::vector<std::uint8_t> seq(n);
  GoldSequence g(c_init);
  g.generate(seq);
  return seq;
}

std::uint32_t pusch_c_init(std::uint16_t rnti, int q, int ns, int cell_id) {
  return (static_cast<std::uint32_t>(rnti) << 14) |
         (static_cast<std::uint32_t>(q & 1) << 13) |
         (static_cast<std::uint32_t>((ns / 2) & 0xF) << 9) |
         static_cast<std::uint32_t>(cell_id & 0x1FF);
}

void scramble_bits(std::span<std::uint8_t> bits, std::uint32_t c_init) {
  GoldSequence g(c_init);
  for_each_bit(g, bits, [](std::uint8_t b, std::uint8_t c) {
    return static_cast<std::uint8_t>(b ^ c);
  });
}

void descramble_llr(std::span<std::int16_t> llr, std::uint32_t c_init,
                    IsaLevel isa) {
  // Words are generated here, a chunk at a time, so every tier consumes
  // the same sequence and the kernels stay free of generator state.
  constexpr std::size_t kChunkWords = 64;
  constexpr std::size_t kChunk = 32 * kChunkWords;
  const IsaLevel tier = std::min(isa, cpu_features().best());
  GoldSequence g(c_init);
  std::uint32_t words[kChunkWords] = {};
  for (std::size_t off = 0; off < llr.size(); off += kChunk) {
    const std::size_t n = std::min(kChunk, llr.size() - off);
    for (std::size_t w = 0; w < (n + 31) / 32; ++w) words[w] = g.next_word();
    std::int16_t* v = llr.data() + off;
    std::size_t done = 0;
    switch (tier) {
      case IsaLevel::kAvx512:
        done = simd::descramble_avx512(v, n, words);
        break;
      case IsaLevel::kAvx2:
        done = simd::descramble_avx2(v, n, words);
        break;
      case IsaLevel::kSse41:
        done = simd::descramble_sse(v, n, words);
        break;
      case IsaLevel::kScalar:
        break;
    }
    descramble_scalar(v, done, n, words);
  }
}

}  // namespace vran::phy
