// Internal per-tier LLR descramble kernels. Each tier lives in its own
// translation unit with per-file ISA flags (scramble_simd_{sse,avx2,
// avx512}.cc) and is reached only through runtime dispatch in
// scrambler.cc.
//
// Contract: LLR i is negated where bit i % 32 of words[i / 32] (the Gold
// sequence, c(n) in bit 0) is set, with the saturating 0 - v of psubsw,
// so -32768 becomes 32767 — byte-identical to the scalar reference in
// scrambler.cc. A kernel returns how many leading LLRs it wrote; the
// caller finishes the rest with that reference.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vran::phy::simd {

std::size_t descramble_sse(std::int16_t* llr, std::size_t n,
                           const std::uint32_t* words);
std::size_t descramble_avx2(std::int16_t* llr, std::size_t n,
                            const std::uint32_t* words);
std::size_t descramble_avx512(std::int16_t* llr, std::size_t n,
                              const std::uint32_t* words);

}  // namespace vran::phy::simd
