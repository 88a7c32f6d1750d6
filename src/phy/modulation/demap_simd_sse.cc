// SSE4.1 tier of the max-log demapper: four symbols (8 axis
// observations in two int32 registers) per step, two doubles per
// rounding register. Contract in demap_simd.h.
#include "phy/modulation/demap_simd.h"
#include "phy/modulation/demap_simd_impl.h"

namespace vran::phy::simd {
namespace {

struct Ops {
  using reg = __m128i;
  static reg sub(reg a, reg b) { return _mm_sub_epi32(a, b); }
  static reg mul(reg a, reg b) { return _mm_mullo_epi32(a, b); }
  static reg min(reg a, reg b) { return _mm_min_epi32(a, b); }
};

struct Round {
  __m128d inv, lo, hi, half, one, sign;
  explicit Round(double scale)
      : inv(_mm_set1_pd(scale)),
        lo(_mm_set1_pd(-32768.0)),
        hi(_mm_set1_pd(32767.0)),
        half(_mm_set1_pd(0.5)),
        one(_mm_set1_pd(1.0)),
        sign(_mm_set1_pd(-0.0)) {}

  /// lround(clamp(d * inv)) of the two int32 in the low half of d.
  __m128i two(__m128i d) const {
    __m128d x = _mm_mul_pd(_mm_cvtepi32_pd(d), inv);
    x = _mm_min_pd(_mm_max_pd(x, lo), hi);
    const __m128d t = _mm_round_pd(x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m128d frac = _mm_andnot_pd(sign, _mm_sub_pd(x, t));
    const __m128d away = _mm_or_pd(_mm_and_pd(x, sign), one);
    const __m128d r = _mm_add_pd(t, _mm_and_pd(_mm_cmpge_pd(frac, half), away));
    return _mm_cvttpd_epi32(r);
  }
  __m128i four(__m128i d) const {
    return _mm_unpacklo_epi64(two(d), two(_mm_unpackhi_epi64(d, d)));
  }
};

template <int B>
std::size_t demap(const IqSample* in, std::size_t n,
                  const std::int16_t* levels, double inv, std::int16_t* out) {
  __m128i lv[1 << B];
  for (int g = 0; g < (1 << B); ++g) lv[g] = _mm_set1_epi32(levels[g]);
  const Round round(inv);
  std::size_t s = 0;
  for (; s + 4 <= n; s += 4) {
    const __m128i y16 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + s));
    __m128i lo[B], hi[B], p[B];
    axis_diffs<B, Ops>(_mm_cvtepi16_epi32(y16), lv, lo);
    axis_diffs<B, Ops>(_mm_cvtepi16_epi32(_mm_unpackhi_epi64(y16, y16)), lv,
                       hi);
    for (int j = 0; j < B; ++j) {
      p[j] = _mm_packs_epi32(round.four(lo[j]), round.four(hi[j]));
    }
    store_units4<B>(out + s * 2 * B, p);
  }
  return s;
}

}  // namespace

std::size_t demap_sse(const IqSample* in, std::size_t n, int axis_bits,
                      const std::int16_t* levels, double inv,
                      std::int16_t* out) {
  switch (axis_bits) {
    case 1: return demap<1>(in, n, levels, inv, out);
    case 2: return demap<2>(in, n, levels, inv, out);
    case 3: return demap<3>(in, n, levels, inv, out);
  }
  return 0;
}

}  // namespace vran::phy::simd
