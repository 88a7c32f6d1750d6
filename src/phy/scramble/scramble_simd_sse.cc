// SSE4.1 tier of the LLR descrambler: 8 LLRs per register, each Gold
// byte expanded to lane masks. Contract in scramble_simd.h.
#include <immintrin.h>

#include "phy/scramble/scramble_simd.h"

namespace vran::phy::simd {

std::size_t descramble_sse(std::int16_t* llr, std::size_t n,
                           const std::uint32_t* words) {
  const __m128i lane_bit = _mm_setr_epi16(1, 2, 4, 8, 16, 32, 64, 128);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const int byte = static_cast<int>((words[i / 32] >> (i % 32)) & 0xFFu);
    const __m128i m = _mm_cmpeq_epi16(
        _mm_and_si128(_mm_set1_epi16(static_cast<short>(byte)), lane_bit),
        lane_bit);
    __m128i* p = reinterpret_cast<__m128i*>(llr + i);
    // (v ^ m) - m with saturation: ~v + 1 = -v where m = -1, and
    // ~(-32768) + 1 saturates to 32767.
    const __m128i v = _mm_loadu_si128(p);
    _mm_storeu_si128(p, _mm_subs_epi16(_mm_xor_si128(v, m), m));
  }
  return i;
}

}  // namespace vran::phy::simd
