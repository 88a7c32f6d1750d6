// AVX-512 tier of the max-log demapper: eight symbols (16 axis
// observations in one int32 register) per step, eight doubles per
// rounding register, the away-from-zero step applied under a compare
// mask. Contract in demap_simd.h.
#include "phy/modulation/demap_simd.h"
#include "phy/modulation/demap_simd_impl.h"

namespace vran::phy::simd {
namespace {

// GCC 12 builds the unmasked forms of many AVX-512 intrinsics from
// _mm512_undefined_*(), which -Wmaybe-uninitialized flags once inlined;
// the all-lanes maskz forms used instead compile to the same instructions.
constexpr __mmask8 kAll8 = 0xFF;
constexpr __mmask16 kAll16 = 0xFFFF;

struct Ops {
  using reg = __m512i;
  static reg sub(reg a, reg b) { return _mm512_sub_epi32(a, b); }
  static reg mul(reg a, reg b) { return _mm512_mullo_epi32(a, b); }
  static reg min(reg a, reg b) { return _mm512_maskz_min_epi32(kAll16, a, b); }
};

struct Round {
  __m512d inv, lo, hi, half, one, sign;
  explicit Round(double scale)
      : inv(_mm512_set1_pd(scale)),
        lo(_mm512_set1_pd(-32768.0)),
        hi(_mm512_set1_pd(32767.0)),
        half(_mm512_set1_pd(0.5)),
        one(_mm512_set1_pd(1.0)),
        sign(_mm512_set1_pd(-0.0)) {}

  /// lround(clamp(d * inv)) of eight int32, narrowed to int16.
  __m128i eight(__m256i d) const {
    __m512d x = _mm512_mul_pd(_mm512_maskz_cvtepi32_pd(kAll8, d), inv);
    x = _mm512_maskz_min_pd(kAll8, _mm512_maskz_max_pd(kAll8, x, lo), hi);
    const __m512d t = _mm512_maskz_roundscale_pd(
        kAll8, x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __mmask8 up = _mm512_cmp_pd_mask(
        _mm512_abs_pd(_mm512_sub_pd(x, t)), half, _CMP_GE_OQ);
    const __m512d away = _mm512_or_pd(_mm512_and_pd(x, sign), one);
    return _mm256_maskz_cvtsepi32_epi16(
        kAll8,
        _mm512_maskz_cvttpd_epi32(kAll8, _mm512_mask_add_pd(t, up, t, away)));
  }
};

template <int B>
std::size_t demap(const IqSample* in, std::size_t n,
                  const std::int16_t* levels, double inv, std::int16_t* out) {
  __m512i lv[1 << B];
  for (int g = 0; g < (1 << B); ++g) lv[g] = _mm512_set1_epi32(levels[g]);
  const Round round(inv);
  std::size_t s = 0;
  for (; s + 8 <= n; s += 8) {
    const __m512i y = _mm512_maskz_cvtepi16_epi32(
        kAll16, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + s)));
    __m512i diff[B];
    __m128i lo[B], hi[B];
    axis_diffs<B, Ops>(y, lv, diff);
    for (int j = 0; j < B; ++j) {
      lo[j] = round.eight(_mm512_maskz_extracti64x4_epi64(kAll8, diff[j], 0));
      hi[j] = round.eight(_mm512_maskz_extracti64x4_epi64(kAll8, diff[j], 1));
    }
    store_units4<B>(out + s * 2 * B, lo);
    store_units4<B>(out + (s + 4) * 2 * B, hi);
  }
  return s;
}

}  // namespace

std::size_t demap_avx512(const IqSample* in, std::size_t n, int axis_bits,
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
