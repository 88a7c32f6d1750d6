// AVX-512 tier of the OFDM kernels: 8 complex lanes per register.
// Bound by the exactness contract in fft.h / ofdm_simd.h — identical
// per-element operation sequence to the scalar reference. Builds with
// -mavx512f/bw/vl/dq -ffp-contract=off.
#include <immintrin.h>

#include <cmath>
#include <cstring>

#include "phy/ofdm/ofdm_simd.h"

namespace vran::phy::simd {
namespace {

constexpr int kNeg = static_cast<int>(0x80000000u);

// GCC 12 builds the unmasked forms of many AVX-512 intrinsics from
// _mm512_undefined_*(), which -Wmaybe-uninitialized flags once inlined;
// the all-lanes maskz forms used instead compile to the same instructions.
constexpr __mmask8 kAll8 = 0xFF;
constexpr __mmask16 kAll16 = 0xFFFF;

// Negate the float lanes selected by `m` (bit i -> lane i).
inline __m512 neg_lanes(__mmask16 m) {
  return _mm512_castsi512_ps(_mm512_maskz_set1_epi32(m, kNeg));
}
inline __m512 sign_even() { return neg_lanes(0x5555); }
inline __m512 sign_all() { return neg_lanes(0xFFFF); }
inline __m512 sign_hi2() { return neg_lanes(0xCCCC); }  // complexes 1,3,5,7
inline __m512 sign_hi4() { return neg_lanes(0xF0F0); }  // complexes 2,3,6,7
inline __m512 sign_hi8() { return neg_lanes(0xFF00); }  // complexes 4..7

inline __m512 cmul(__m512 x, __m512 w, __m512 conj, __m512 se) {
  const __m512 wre = _mm512_maskz_moveldup_ps(kAll16, w);
  const __m512 wim = _mm512_xor_ps(_mm512_maskz_movehdup_ps(kAll16, w), conj);
  const __m512 t1 = _mm512_mul_ps(x, wre);
  const __m512 xs = _mm512_maskz_permute_ps(kAll16, x, _MM_SHUFFLE(2, 3, 0, 1));
  const __m512 t2 = _mm512_mul_ps(xs, wim);
  return _mm512_add_ps(t1, _mm512_xor_ps(t2, se));
}

}  // namespace

void fft_pass_avx512(Cf* data, std::size_t n, const Cf* stage_tw,
                     bool inverse) {
  float* f = reinterpret_cast<float*>(data);
  const float* twf = reinterpret_cast<const float*>(stage_tw);
  const __m512 conj = inverse ? sign_all() : _mm512_setzero_ps();
  const __m512 se = sign_even();

  // Stage half = 1: four length-2 groups per register.
  {
    double w0;
    std::memcpy(&w0, twf, sizeof(w0));
    const __m512 tw = _mm512_castpd_ps(_mm512_set1_pd(w0));
    const __m512 sh = sign_hi2();
    for (std::size_t i = 0; i < n; i += 8) {
      const __m512d a = _mm512_castps_pd(_mm512_loadu_ps(f + 2 * i));
      const __m512 u = _mm512_castpd_ps(_mm512_maskz_unpacklo_pd(kAll8, a, a));
      const __m512 x = _mm512_castpd_ps(_mm512_maskz_unpackhi_pd(kAll8, a, a));
      const __m512 v = cmul(x, tw, conj, se);
      _mm512_storeu_ps(f + 2 * i, _mm512_add_ps(u, _mm512_xor_ps(v, sh)));
    }
  }

  // Stage half = 2: two length-4 groups per register. Twiddles w0,w1 at
  // stage offset 1 broadcast to every 128-bit lane.
  {
    const __m512 tw =
        _mm512_maskz_broadcast_f32x4(kAll16, _mm_loadu_ps(twf + 2));
    const __m512 sh = sign_hi4();
    for (std::size_t i = 0; i < n; i += 8) {
      const __m512d a = _mm512_castps_pd(_mm512_loadu_ps(f + 2 * i));
      const __m512 u =
          _mm512_castpd_ps(_mm512_maskz_permutex_pd(kAll8, a, 0x44));
      const __m512 x =
          _mm512_castpd_ps(_mm512_maskz_permutex_pd(kAll8, a, 0xEE));
      const __m512 v = cmul(x, tw, conj, se);
      _mm512_storeu_ps(f + 2 * i, _mm512_add_ps(u, _mm512_xor_ps(v, sh)));
    }
  }

  // Stage half = 4: one length-8 group per register. Twiddles w0..w3 at
  // stage offset 3 broadcast to both 256-bit halves.
  {
    const __m512 tw =
        _mm512_maskz_broadcast_f32x8(kAll16, _mm256_loadu_ps(twf + 6));
    const __m512 sh = sign_hi8();
    for (std::size_t i = 0; i < n; i += 8) {
      const __m512d a = _mm512_castps_pd(_mm512_loadu_ps(f + 2 * i));
      const __m512 u = _mm512_castpd_ps(
          _mm512_maskz_shuffle_f64x2(kAll8, a, a, _MM_SHUFFLE(1, 0, 1, 0)));
      const __m512 x = _mm512_castpd_ps(
          _mm512_maskz_shuffle_f64x2(kAll8, a, a, _MM_SHUFFLE(3, 2, 3, 2)));
      const __m512 v = cmul(x, tw, conj, se);
      _mm512_storeu_ps(f + 2 * i, _mm512_add_ps(u, _mm512_xor_ps(v, sh)));
    }
  }

  // Wide stages (half >= 8 complex lanes).
  for (std::size_t half = 8; half < n; half <<= 1) {
    const std::size_t len = half << 1;
    const float* tws = twf + 2 * (half - 1);
    for (std::size_t s = 0; s < n; s += len) {
      for (std::size_t k = 0; k < half; k += 8) {
        const __m512 w = _mm512_loadu_ps(tws + 2 * k);
        const __m512 u = _mm512_loadu_ps(f + 2 * (s + k));
        const __m512 x = _mm512_loadu_ps(f + 2 * (s + k + half));
        const __m512 v = cmul(x, w, conj, se);
        _mm512_storeu_ps(f + 2 * (s + k), _mm512_add_ps(u, v));
        _mm512_storeu_ps(f + 2 * (s + k + half), _mm512_sub_ps(u, v));
      }
    }
  }
}

void scale_avx512(Cf* data, std::size_t n, float s) {
  float* f = reinterpret_cast<float*>(data);
  const std::size_t m = 2 * n;
  const __m512 vs = _mm512_set1_ps(s);
  std::size_t i = 0;
  for (; i + 16 <= m; i += 16) {
    _mm512_storeu_ps(f + i, _mm512_mul_ps(_mm512_loadu_ps(f + i), vs));
  }
  for (; i < m; ++i) f[i] *= s;
}

void q12_to_cf_avx512(const IqSample* in, Cf* out, std::size_t n,
                      float scale) {
  const std::int16_t* p = reinterpret_cast<const std::int16_t*>(in);
  float* f = reinterpret_cast<float*>(out);
  const std::size_t m = 2 * n;
  const __m512 vs = _mm512_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 16 <= m; i += 16) {
    const __m256i w16 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const __m512 v = _mm512_maskz_cvtepi32_ps(
        kAll16, _mm512_maskz_cvtepi16_epi32(kAll16, w16));
    _mm512_storeu_ps(f + i, _mm512_mul_ps(v, vs));
  }
  for (; i < m; ++i) f[i] = static_cast<float>(p[i]) * scale;
}

void cf_to_q12_avx512(const Cf* in, IqSample* out, std::size_t n,
                      float unscale) {
  const float* f = reinterpret_cast<const float*>(in);
  std::int16_t* p = reinterpret_cast<std::int16_t*>(out);
  const std::size_t m = 2 * n;
  const __m512 vu = _mm512_set1_ps(unscale);
  const __m512 lo = _mm512_set1_ps(-32768.0f);
  const __m512 hi = _mm512_set1_ps(32767.0f);
  std::size_t i = 0;
  for (; i + 16 <= m; i += 16) {
    const __m512 a = _mm512_maskz_min_ps(
        kAll16,
        _mm512_maskz_max_ps(kAll16, _mm512_mul_ps(_mm512_loadu_ps(f + i), vu),
                            lo),
        hi);
    // Saturating narrow keeps lane order linear (unlike packs) and the
    // clamp above already bounds it, so saturation never fires.
    const __m256i packed = _mm512_maskz_cvtsepi32_epi16(
        kAll16, _mm512_maskz_cvtps_epi32(kAll16, a));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + i), packed);
  }
  for (; i < m; ++i) p[i] = quantize_q12(f[i] * unscale);
}

}  // namespace vran::phy::simd
