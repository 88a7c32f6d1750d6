// AVX2 tier of the LLR descrambler: 16 LLRs per register, each half of
// a Gold word expanded to lane masks. Contract in scramble_simd.h.
#include <immintrin.h>

#include "phy/scramble/scramble_simd.h"

namespace vran::phy::simd {

std::size_t descramble_avx2(std::int16_t* llr, std::size_t n,
                            const std::uint32_t* words) {
  const __m256i lane_bit = _mm256_setr_epi16(
      1, 2, 4, 8, 16, 32, 64, 128, 0x100, 0x200, 0x400, 0x800, 0x1000,
      0x2000, 0x4000, static_cast<short>(0x8000));
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const int half = static_cast<int>((words[i / 32] >> (i % 32)) & 0xFFFFu);
    const __m256i m = _mm256_cmpeq_epi16(
        _mm256_and_si256(_mm256_set1_epi16(static_cast<short>(half)),
                         lane_bit),
        lane_bit);
    __m256i* p = reinterpret_cast<__m256i*>(llr + i);
    // Saturating (v ^ m) - m negates the masked lanes, -32768 -> 32767.
    const __m256i v = _mm256_loadu_si256(p);
    _mm256_storeu_si256(p, _mm256_subs_epi16(_mm256_xor_si256(v, m), m));
  }
  return i;
}

}  // namespace vran::phy::simd
