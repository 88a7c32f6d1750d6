// 512-bit (zmm) arrangement kernels.
//
// Extract path (paper §5.2, faithful to the OAI instruction stream): the
// low 256 bits go to a ymm via `vextracti32x8 $0`, are drained with
// `pextrw`/`vextracti128`; then — because the original code clobbers the
// zmm in the process — a `vmovdqa64` RELOAD re-fetches the register
// before `vextracti32x8 $1` moves the upper 256 bits down. This reload is
// why the original mechanism loses another 6.4 % CPU time at 512 bit
// (Fig. 14); a compiler barrier keeps it from being optimized away here.
//
// APCM path: the same 15-op vpandd/vpord schedule (residue_mult = 1 at
// L = 32) + two vpermw alignment rotations; canonical order costs one
// extra vpermw per output (AVX-512BW has a full 16-bit cross-lane
// permute, unlike AVX2).
#include <immintrin.h>

#include "arrange/arrange_internal.h"

namespace vran::arrange::internal {

namespace {

constexpr int kL = 32;  // int16 lanes per zmm

// GCC 12 builds the unmasked forms of many AVX-512 intrinsics from
// _mm512_undefined_*(), which -Wmaybe-uninitialized flags once inlined;
// the all-lanes maskz forms used instead compile to the same instructions.
constexpr __mmask16 kAll16 = 0xFFFF;

alignas(64) constexpr auto kMasks = make_lane_masks3<kL>();

template <int K>
constexpr std::array<std::int16_t, kL> make_rotate_idx() {
  std::array<std::int16_t, kL> idx{};
  for (int l = 0; l < kL; ++l) idx[l] = static_cast<std::int16_t>((l + K) % kL);
  return idx;
}

constexpr std::array<std::int16_t, kL> make_canon_idx(int cluster) {
  const auto inv = invert<kL>(make_sigma_cluster<kL>(cluster));
  std::array<std::int16_t, kL> idx{};
  for (int l = 0; l < kL; ++l) idx[l] = static_cast<std::int16_t>(inv[l]);
  return idx;
}

alignas(64) constexpr auto kRot1 = make_rotate_idx<1>();
alignas(64) constexpr auto kRot2 = make_rotate_idx<2>();
// Fused per-cluster canonicalization (alignment folded in).
alignas(64) constexpr std::array<std::array<std::int16_t, kL>, 3> kCanonIdx =
    {make_canon_idx(0), make_canon_idx(1), make_canon_idx(2)};

inline __m512i load64(const void* p) {
  return _mm512_load_si512(p);
}

inline void extract_store8(__m128i v, const std::size_t base, std::int16_t* s,
                           std::int16_t* p1, std::int16_t* p2) {
  std::int16_t* const dst[3] = {s, p1, p2};
  const auto put = [&](int lane, int w) {
    const std::size_t f = base + static_cast<std::size_t>(lane);
    dst[f % 3][f / 3] = static_cast<std::int16_t>(w);
  };
  put(0, _mm_extract_epi16(v, 0));
  put(1, _mm_extract_epi16(v, 1));
  put(2, _mm_extract_epi16(v, 2));
  put(3, _mm_extract_epi16(v, 3));
  put(4, _mm_extract_epi16(v, 4));
  put(5, _mm_extract_epi16(v, 5));
  put(6, _mm_extract_epi16(v, 6));
  put(7, _mm_extract_epi16(v, 7));
}

inline void extract_store_ymm(__m256i y, std::size_t base, std::int16_t* s,
                              std::int16_t* p1, std::int16_t* p2) {
  extract_store8(_mm256_castsi256_si128(y), base, s, p1, p2);
  extract_store8(_mm256_extracti128_si256(y, 1), base + 8, s, p1, p2);
}

}  // namespace

std::size_t avx512_extract3(const std::int16_t* src, std::size_t n,
                            std::int16_t* s, std::int16_t* p1,
                            std::int16_t* p2) {
  const std::size_t batches = n / kL;
  for (std::size_t b = 0; b < batches; ++b) {
    const std::int16_t* blk = src + 3 * kL * b;
    for (int j = 0; j < 3; ++j) {
      const std::int16_t* rp = blk + kL * j;
      const std::size_t base = 3 * kL * b + static_cast<std::size_t>(kL * j);
      __m512i v = load64(rp);
      extract_store_ymm(_mm512_extracti32x8_epi32(v, 0), base, s, p1, p2);
      // Faithful reload (vmovdqa64) before touching the upper half; the
      // barrier stops the compiler from proving the reload redundant.
      asm volatile("" ::: "memory");
      v = load64(rp);
      extract_store_ymm(_mm512_extracti32x8_epi32(v, 1), base + 16, s, p1, p2);
    }
  }
  return batches * kL;
}

std::size_t avx512_apcm3(const std::int16_t* src, std::size_t n,
                         std::int16_t* s, std::int16_t* p1, std::int16_t* p2,
                         Order order, Rotation rotation) {
  const __m512i m0 = load64(kMasks[0].data());
  const __m512i m1 = load64(kMasks[1].data());
  const __m512i m2 = load64(kMasks[2].data());
  const __m512i rot1 = load64(kRot1.data());
  const __m512i rot2 = load64(kRot2.data());
  const __m512i canon0 = load64(kCanonIdx[0].data());
  const __m512i canon1 = load64(kCanonIdx[1].data());
  const __m512i canon2 = load64(kCanonIdx[2].data());
  const bool canonical = order == Order::kCanonical;
  const bool rotate = rotation == Rotation::kInRegister;

  const std::size_t batches = n / kL;
  for (std::size_t b = 0; b < batches; ++b) {
    const std::int16_t* blk = src + 3 * kL * b;
    const __m512i r0 = load64(blk);
    const __m512i r1 = load64(blk + kL);
    const __m512i r2 = load64(blk + 2 * kL);

    // residue_mult(32) = 1: cluster c register j selects mask (c + j) % 3.
    __m512i vs = _mm512_or_si512(
        _mm512_or_si512(_mm512_and_si512(r0, m0), _mm512_and_si512(r1, m1)),
        _mm512_and_si512(r2, m2));
    __m512i vp = _mm512_or_si512(
        _mm512_or_si512(_mm512_and_si512(r0, m1), _mm512_and_si512(r1, m2)),
        _mm512_and_si512(r2, m0));
    __m512i vq = _mm512_or_si512(
        _mm512_or_si512(_mm512_and_si512(r0, m2), _mm512_and_si512(r1, m0)),
        _mm512_and_si512(r2, m1));

    if (canonical) {
      vs = _mm512_permutexvar_epi16(canon0, vs);
      vp = _mm512_permutexvar_epi16(canon1, vp);
      vq = _mm512_permutexvar_epi16(canon2, vq);
    } else if (rotate) {
      vp = _mm512_permutexvar_epi16(rot1, vp);
      vq = _mm512_permutexvar_epi16(rot2, vq);
    }

    _mm512_store_si512(s + kL * b, vs);
    _mm512_store_si512(p1 + kL * b, vp);
    _mm512_store_si512(p2 + kL * b, vq);
  }
  return batches * kL;
}

std::size_t avx512_extract2(const std::int16_t* src, std::size_t n,
                            std::int16_t* a, std::int16_t* b) {
  const std::size_t regs = (2 * n) / kL;  // 16 pairs per zmm
  for (std::size_t r = 0; r < regs; ++r) {
    const std::int16_t* rp = src + kL * r;
    const std::size_t base = 16 * r;
    const auto drain = [&](__m128i x, std::size_t at) {
      a[at + 0] = static_cast<std::int16_t>(_mm_extract_epi16(x, 0));
      b[at + 0] = static_cast<std::int16_t>(_mm_extract_epi16(x, 1));
      a[at + 1] = static_cast<std::int16_t>(_mm_extract_epi16(x, 2));
      b[at + 1] = static_cast<std::int16_t>(_mm_extract_epi16(x, 3));
      a[at + 2] = static_cast<std::int16_t>(_mm_extract_epi16(x, 4));
      b[at + 2] = static_cast<std::int16_t>(_mm_extract_epi16(x, 5));
      a[at + 3] = static_cast<std::int16_t>(_mm_extract_epi16(x, 6));
      b[at + 3] = static_cast<std::int16_t>(_mm_extract_epi16(x, 7));
    };
    __m512i v = load64(rp);
    __m256i lo = _mm512_extracti32x8_epi32(v, 0);
    drain(_mm256_castsi256_si128(lo), base);
    drain(_mm256_extracti128_si256(lo, 1), base + 4);
    asm volatile("" ::: "memory");
    v = load64(rp);
    __m256i hi = _mm512_extracti32x8_epi32(v, 1);
    drain(_mm256_castsi256_si128(hi), base + 8);
    drain(_mm256_extracti128_si256(hi, 1), base + 12);
  }
  return regs * 16;
}

std::size_t avx512_apcm2(const std::int16_t* src, std::size_t n,
                         std::int16_t* a, std::int16_t* b) {
  alignas(64) static constexpr auto kEven = [] {
    std::array<std::uint16_t, kL> m{};
    for (int l = 0; l < kL; ++l) m[l] = (l % 2 == 0) ? 0xFFFFu : 0u;
    return m;
  }();
  // After a_lo | (a_hi << 1 lane): lane 2t = a[t], lane 2t+1 = a[16 + t].
  alignas(64) static constexpr auto kFix = [] {
    std::array<std::int16_t, kL> idx{};
    for (int t = 0; t < kL / 2; ++t) {
      idx[t] = static_cast<std::int16_t>(2 * t);
      idx[kL / 2 + t] = static_cast<std::int16_t>(2 * t + 1);
    }
    return idx;
  }();

  const __m512i even = load64(kEven.data());
  const __m512i fix = load64(kFix.data());

  const std::size_t batches = n / kL;  // 32 pairs per 2-register batch
  for (std::size_t bi = 0; bi < batches; ++bi) {
    const std::int16_t* blk = src + 2 * kL * bi;
    const __m512i r0 = load64(blk);
    const __m512i r1 = load64(blk + kL);
    const __m512i a_lo = _mm512_and_si512(r0, even);
    const __m512i a_hi =
        _mm512_maskz_slli_epi32(kAll16, _mm512_and_si512(r1, even), 16);
    const __m512i b_lo = _mm512_maskz_srli_epi32(
        kAll16, _mm512_maskz_andnot_epi32(kAll16, even, r0), 16);
    const __m512i b_hi = _mm512_maskz_andnot_epi32(kAll16, even, r1);
    __m512i va = _mm512_or_si512(a_lo, a_hi);
    __m512i vb = _mm512_or_si512(b_lo, b_hi);
    va = _mm512_permutexvar_epi16(fix, va);
    vb = _mm512_permutexvar_epi16(fix, vb);
    _mm512_store_si512(a + kL * bi, va);
    _mm512_store_si512(b + kL * bi, vb);
  }
  return batches * kL;
}

}  // namespace vran::arrange::internal
