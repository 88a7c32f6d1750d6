// Shared skeleton of the demap kernels (demap_simd.h), included only by
// the per-tier translation units. Everything here has internal linkage,
// so each tier's copy is compiled with that tier's flags alone.
//
// Lane layout: the interleaved int16 I/Q input, sign-extended to int32
// lanes, is a run of axis observations y_k (k = 2s for I, 2s + 1 for Q
// of symbol s), both axes sharing one level table. Packing the rounded
// LLRs of axis bit j back to int16 in lane order gives 32-bit units
// (L_j(i_s), L_j(q_s)), and the output is those units symbol-major:
// unit s * B + j, which is bits 2j and 2j + 1 of symbol s.
#pragma once

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace vran::phy::simd {
namespace {

/// diff[j] = min_{g: bit j of g = 0} (y - lv[g])^2
///         - min_{g: bit j of g = 1} (y - lv[g])^2
/// for the B axis bits, on int32 lanes of the tier's register type.
template <int B, class Ops>
inline void axis_diffs(typename Ops::reg y, const typename Ops::reg* lv,
                       typename Ops::reg* diff) {
  using reg = typename Ops::reg;
  constexpr int kLevels = 1 << B;
  reg d[kLevels];
  for (int g = 0; g < kLevels; ++g) {
    const reg t = Ops::sub(y, lv[g]);
    d[g] = Ops::mul(t, t);
  }
  for (int j = 0; j < B; ++j) {
    const int shift = B - 1 - j;
    // Level 0 has every bit 0; level (1 << shift) is the first with bit j.
    reg m0 = d[0];
    reg m1 = d[1 << shift];
    for (int g = 1; g < kLevels; ++g) {
      if (g == (1 << shift)) continue;
      if ((g >> shift) & 1) {
        m1 = Ops::min(m1, d[g]);
      } else {
        m0 = Ops::min(m0, d[g]);
      }
    }
    diff[j] = Ops::sub(m0, m1);
  }
}

/// Writes four symbols' LLRs: p[j] holds the 32-bit units
/// (L_j(i_s), L_j(q_s)) of symbols s = 0..3, stored as unit s * B + j.
template <int B>
inline void store_units4(std::int16_t* out, const __m128i* p) {
  __m128i* o = reinterpret_cast<__m128i*>(out);
  if constexpr (B == 1) {
    _mm_storeu_si128(o, p[0]);
  } else if constexpr (B == 2) {
    _mm_storeu_si128(o, _mm_unpacklo_epi32(p[0], p[1]));
    _mm_storeu_si128(o + 1, _mm_unpackhi_epi32(p[0], p[1]));
  } else {
    // Three-way interleave a0 b0 c0 a1 | b1 c1 a2 b2 | c2 a3 b3 c3.
    const __m128 a = _mm_castsi128_ps(p[0]);
    const __m128 b = _mm_castsi128_ps(p[1]);
    const __m128 c = _mm_castsi128_ps(p[2]);
    const __m128 ab_lo = _mm_unpacklo_ps(a, b);  // a0 b0 a1 b1
    const __m128 ab_hi = _mm_unpackhi_ps(a, b);  // a2 b2 a3 b3
    const __m128 bc_lo = _mm_unpacklo_ps(b, c);  // b0 c0 b1 c1
    const __m128 bc_hi = _mm_unpackhi_ps(b, c);  // b2 c2 b3 c3
    const __m128 ca_lo = _mm_unpacklo_ps(c, a);  // c0 a0 c1 a1
    const __m128 ca_hi = _mm_unpackhi_ps(c, a);  // c2 a2 c3 a3
    _mm_storeu_ps(reinterpret_cast<float*>(o),
                  _mm_shuffle_ps(ab_lo, ca_lo, _MM_SHUFFLE(3, 0, 1, 0)));
    _mm_storeu_ps(reinterpret_cast<float*>(o + 1),
                  _mm_shuffle_ps(bc_lo, ab_hi, _MM_SHUFFLE(1, 0, 3, 2)));
    _mm_storeu_ps(reinterpret_cast<float*>(o + 2),
                  _mm_shuffle_ps(ca_hi, bc_hi, _MM_SHUFFLE(3, 2, 3, 0)));
  }
}

}  // namespace
}  // namespace vran::phy::simd
