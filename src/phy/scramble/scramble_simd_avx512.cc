// AVX-512 tier of the LLR descrambler: 32 LLRs per register, and the
// Gold word is the lane mask itself, so a descramble step is one masked
// saturating 0 - v. The final partial word uses masked loads and
// stores, so this tier writes every LLR. Contract in scramble_simd.h.
#include <immintrin.h>

#include "phy/scramble/scramble_simd.h"

namespace vran::phy::simd {

std::size_t descramble_avx512(std::int16_t* llr, std::size_t n,
                              const std::uint32_t* words) {
  const __m512i zero = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __mmask32 m = words[i / 32];
    const __m512i v = _mm512_loadu_si512(llr + i);
    _mm512_storeu_si512(llr + i, _mm512_mask_subs_epi16(v, m, zero, v));
  }
  if (i < n) {
    const __mmask32 live = (1u << (n - i)) - 1u;
    const __m512i v = _mm512_maskz_loadu_epi16(live, llr + i);
    _mm512_mask_storeu_epi16(
        llr + i, live, _mm512_mask_subs_epi16(v, words[i / 32], zero, v));
  }
  return n;
}

}  // namespace vran::phy::simd
