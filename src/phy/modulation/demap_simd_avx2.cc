// AVX2 tier of the max-log demapper: four symbols (8 axis observations
// in one int32 register) per step, four doubles per rounding register.
// Contract in demap_simd.h.
#include "phy/modulation/demap_simd.h"
#include "phy/modulation/demap_simd_impl.h"

namespace vran::phy::simd {
namespace {

struct Ops {
  using reg = __m256i;
  static reg sub(reg a, reg b) { return _mm256_sub_epi32(a, b); }
  static reg mul(reg a, reg b) { return _mm256_mullo_epi32(a, b); }
  static reg min(reg a, reg b) { return _mm256_min_epi32(a, b); }
};

struct Round {
  __m256d inv, lo, hi, half, one, sign;
  explicit Round(double scale)
      : inv(_mm256_set1_pd(scale)),
        lo(_mm256_set1_pd(-32768.0)),
        hi(_mm256_set1_pd(32767.0)),
        half(_mm256_set1_pd(0.5)),
        one(_mm256_set1_pd(1.0)),
        sign(_mm256_set1_pd(-0.0)) {}

  /// lround(clamp(d * inv)) of four int32.
  __m128i four(__m128i d) const {
    __m256d x = _mm256_mul_pd(_mm256_cvtepi32_pd(d), inv);
    x = _mm256_min_pd(_mm256_max_pd(x, lo), hi);
    const __m256d t =
        _mm256_round_pd(x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256d frac = _mm256_andnot_pd(sign, _mm256_sub_pd(x, t));
    const __m256d away = _mm256_or_pd(_mm256_and_pd(x, sign), one);
    const __m256d up = _mm256_cmp_pd(frac, half, _CMP_GE_OQ);
    return _mm256_cvttpd_epi32(_mm256_add_pd(t, _mm256_and_pd(up, away)));
  }
};

template <int B>
std::size_t demap(const IqSample* in, std::size_t n,
                  const std::int16_t* levels, double inv, std::int16_t* out) {
  __m256i lv[1 << B];
  for (int g = 0; g < (1 << B); ++g) lv[g] = _mm256_set1_epi32(levels[g]);
  const Round round(inv);
  std::size_t s = 0;
  for (; s + 4 <= n; s += 4) {
    const __m256i y = _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + s)));
    __m256i diff[B];
    __m128i p[B];
    axis_diffs<B, Ops>(y, lv, diff);
    for (int j = 0; j < B; ++j) {
      p[j] = _mm_packs_epi32(round.four(_mm256_castsi256_si128(diff[j])),
                             round.four(_mm256_extracti128_si256(diff[j], 1)));
    }
    store_units4<B>(out + s * 2 * B, p);
  }
  return s;
}

}  // namespace

std::size_t demap_avx2(const IqSample* in, std::size_t n, int axis_bits,
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
