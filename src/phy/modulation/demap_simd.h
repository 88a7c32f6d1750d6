// Internal per-tier max-log demapper kernels. Each tier lives in its own
// translation unit with per-file ISA flags (demap_simd_{sse,avx2,
// avx512}.cc) and is reached only through runtime dispatch in
// modulation.cc.
//
// Exactness contract (DESIGN.md §5g): every tier is byte-identical to
// the scalar reference in modulation.cc. Per axis observation y and
// axis bit j the kernels take d0 - d1 of the int32 per-bit minima of
// (y - level)^2 (exact: |y - level| <= 32768 + 4424, so each square is
// below 2^31), convert it to double, multiply by the caller's
// inv = llr_scale / n0 (one IEEE multiply, no FMA), clamp to
// [-32768, 32767] and round half away from zero as std::lround does:
// truncate, then step one away from zero where |x - trunc(x)| >= 0.5.
// Neither the half-to-even CVTPD2DQ nor trunc(x +- 0.5) (which rounds
// in the addition) is that rounding.
#pragma once

#include <cstddef>
#include <cstdint>

#include "phy/modulation/modulation.h"

namespace vran::phy::simd {

/// LLRs of in[0..k) into out (bits_per_symbol per symbol, I/Q bit pairs
/// in 36.211 order) for the largest k <= n the tier's chunk divides;
/// returns k and leaves the rest to the scalar reference. `axis_bits` is
/// 1, 2 or 3 and `levels` holds its 2^axis_bits axis coordinates, level
/// g for the axis bit group g (MSB first).
std::size_t demap_sse(const IqSample* in, std::size_t n, int axis_bits,
                      const std::int16_t* levels, double inv,
                      std::int16_t* out);
std::size_t demap_avx2(const IqSample* in, std::size_t n, int axis_bits,
                       const std::int16_t* levels, double inv,
                       std::int16_t* out);
std::size_t demap_avx512(const IqSample* in, std::size_t n, int axis_bits,
                         const std::int16_t* levels, double inv,
                         std::int16_t* out);

}  // namespace vran::phy::simd
