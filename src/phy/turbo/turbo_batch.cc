// Batched-lane turbo decoder orchestration: batch-transpose arrangement,
// per-lane early-termination voting, and lane compaction around the
// per-ISA batched MAP kernels (turbo_map_batch_{sse,avx2,avx512}.cc).
//
// Iteration structure mirrors TurboDecoder::decode_arranged operation
// for operation — every per-lane arithmetic sequence is identical to the
// scalar reference, so each block's hard decisions, iteration count and
// CRC state are bit-exact with single-block decoding at any width.
#include "phy/turbo/turbo_batch.h"

#include <emmintrin.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/saturate.h"
#include "phy/turbo/turbo_decoder.h"
#include "phy/turbo/turbo_map_impl.h"

namespace vran::phy {

namespace turbo_internal {

// Entry points defined in turbo_map_batch_{sse,avx2,avx512}.cc.
void map_decode_batch_sse(std::size_t, const std::int16_t*,
                          const std::int16_t*, const std::int16_t*,
                          const std::int16_t*, std::int16_t*, std::size_t,
                          std::int16_t*, bool);
void map_decode_batch_avx2(std::size_t, const std::int16_t*,
                           const std::int16_t*, const std::int16_t*,
                           const std::int16_t*, std::int16_t*, std::size_t,
                           std::int16_t*, bool);
void map_decode_batch_avx512(std::size_t, const std::int16_t*,
                             const std::int16_t*, const std::int16_t*,
                             const std::int16_t*, std::int16_t*, std::size_t,
                             std::int16_t*, bool);

namespace {

void map_decode_batch(IsaLevel isa, std::size_t k, const std::int16_t* gs_step,
                      const std::int16_t* gp_step, const std::int16_t* ainit,
                      const std::int16_t* binit, std::int16_t* ext,
                      std::size_t ext_stride, std::int16_t* alpha_ws,
                      bool radix4) {
  switch (isa) {
    case IsaLevel::kAvx512:
      map_decode_batch_avx512(k, gs_step, gp_step, ainit, binit, ext,
                              ext_stride, alpha_ws, radix4);
      return;
    case IsaLevel::kAvx2:
      map_decode_batch_avx2(k, gs_step, gp_step, ainit, binit, ext,
                            ext_stride, alpha_ws, radix4);
      return;
    default:
      map_decode_batch_sse(k, gs_step, gp_step, ainit, binit, ext, ext_stride,
                           alpha_ws, radix4);
      return;
  }
}

/// Batch-transpose arrangement: dst[step * nw + s] = srcs[s][step] for
/// nw streams of n int16 (n divisible by 8; any alignment).
/// SSE2 unpack trees — always available on x86-64, so this lives in the
/// ISA-neutral TU.
void transpose_step_major(const std::int16_t* const srcs[], int nw,
                          std::size_t n, std::int16_t* dst) {
  if (nw == 1) {
    std::memcpy(dst, srcs[0], n * sizeof(std::int16_t));
    return;
  }
  if (nw == 2) {
    for (std::size_t k = 0; k < n; k += 8) {
      const __m128i a = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(srcs[0] + k));
      const __m128i b = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(srcs[1] + k));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 2 * k),
                       _mm_unpacklo_epi16(a, b));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 2 * k + 8),
                       _mm_unpackhi_epi16(a, b));
    }
    return;
  }
  // nw == 4: 4x8 int16 transpose per 8-step chunk.
  for (std::size_t k = 0; k < n; k += 8) {
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(srcs[0] + k));
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(srcs[1] + k));
    const __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(srcs[2] + k));
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(srcs[3] + k));
    const __m128i t0 = _mm_unpacklo_epi16(a, b);
    const __m128i t1 = _mm_unpacklo_epi16(c, d);
    const __m128i t2 = _mm_unpackhi_epi16(a, b);
    const __m128i t3 = _mm_unpackhi_epi16(c, d);
    std::int16_t* o = dst + 4 * k;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(o),
                     _mm_unpacklo_epi32(t0, t1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(o + 8),
                     _mm_unpackhi_epi32(t0, t1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(o + 16),
                     _mm_unpacklo_epi32(t2, t3));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(o + 24),
                     _mm_unpackhi_epi32(t2, t3));
  }
}

/// Narrowest tier whose lane capacity covers `nb` blocks. Always at or
/// below the config tier because nb <= lane_capacity(cfg.isa).
IsaLevel tier_for(int nb) {
  if (nb <= 1) return IsaLevel::kSse41;
  if (nb <= 2) return IsaLevel::kAvx2;
  return IsaLevel::kAvx512;
}

}  // namespace

}  // namespace turbo_internal

int TurboBatchDecoder::lane_capacity(IsaLevel isa) {
  switch (isa) {
    case IsaLevel::kAvx512: return 4;
    case IsaLevel::kAvx2: return 2;
    default: return 1;
  }
}

bool windowed_window_too_short(int k, IsaLevel isa) {
  // Windows per block of the windowed decoder: the 8 trellis states fill
  // one 128-bit lane, wider registers split the block into equal windows.
  // Same 1/2/4 window progression the windowed decoder uses per tier.
  const int nw = TurboBatchDecoder::lane_capacity(isa);
  return nw > 1 && k / nw < kMinWindowSteps;
}

TurboBatchDecoder::TurboBatchDecoder(int k, TurboBatchConfig cfg)
    : k_(k),
      capacity_(lane_capacity(cfg.isa)),
      cfg_(cfg),
      interleaver_(k) {
  if (cfg_.max_iterations < 1) {
    throw std::invalid_argument(
        "TurboBatchDecoder: max_iterations must be >= 1");
  }
  if (cfg_.isa < IsaLevel::kSse41) {
    throw std::invalid_argument(
        "TurboBatchDecoder: batched decoding requires a SIMD tier");
  }
  if (cfg_.isa > best_isa()) {
    throw std::invalid_argument(
        "TurboBatchDecoder: requested ISA not available");
  }
  const std::size_t n = static_cast<std::size_t>(k_);
  stride_ = (n + 31) / 32 * 32;
  const std::size_t cn = static_cast<std::size_t>(capacity_) * stride_;
  sys2_.resize(cn);
  apr1_.resize(cn);
  apr2_.resize(cn);
  ext_.resize(cn);
  gs_.resize(cn);
  lall_.resize(cn);
  tg_.resize(cn);
  tp1_.resize(cn);
  tp2_.resize(cn);
  // Radix-2 stores one LN-wide register per step; radix-4 halves that
  // but the full size keeps the knob switchable per call site.
  alpha_ws_.resize(n * static_cast<std::size_t>(capacity_) * 8 + 64);
  zeros_.resize(stride_);
  std::fill(zeros_.begin(), zeros_.end(), std::int16_t{0});
  hard_.resize(cn);
  hard_prev_.resize(cn);
}

void TurboBatchDecoder::decode_arranged(
    std::span<const TurboBatchInput> blocks,
    std::span<const std::span<std::uint8_t>> outs,
    std::span<TurboBatchResult> results,
    std::span<const std::uint8_t> force_full) {
  using namespace turbo_internal;
  const std::size_t n = static_cast<std::size_t>(k_);
  const std::size_t nt = n + kTurboTail;
  const int nb = static_cast<int>(blocks.size());
  if (nb < 1 || nb > capacity_) {
    throw std::invalid_argument("TurboBatchDecoder: bad batch size");
  }
  if (outs.size() != blocks.size() || results.size() != blocks.size() ||
      (!force_full.empty() && force_full.size() != blocks.size())) {
    throw std::invalid_argument("TurboBatchDecoder: span count mismatch");
  }

  // Per-block setup: tails, beta boundary training, interleaved
  // systematic stream, zeroed constituent-1 a-priori.
  std::int16_t sys_tail2[kMaxLanes][3];
  std::int16_t par_tail2[kMaxLanes][3];
  bool converged[kMaxLanes] = {};
  bool have_prev[kMaxLanes] = {};
  for (int b = 0; b < nb; ++b) {
    const auto& in = blocks[static_cast<std::size_t>(b)];
    if (in.sys.size() != nt || in.p1.size() != nt || in.p2.size() != nt ||
        outs[static_cast<std::size_t>(b)].size() != n) {
      throw std::invalid_argument("TurboBatchDecoder: bad block sizes");
    }
    const auto sys = in.sys;
    const auto p1 = in.p1;
    const auto p2 = in.p2;
    // 36.212 tail multiplexing (see turbo_encoder.cc).
    const std::int16_t st1[3] = {sys[n], p2[n], p1[n + 1]};
    const std::int16_t pt1[3] = {p1[n], sys[n + 1], p2[n + 1]};
    sys_tail2[b][0] = sys[n + 2];
    sys_tail2[b][1] = p2[n + 2];
    sys_tail2[b][2] = p1[n + 3];
    par_tail2[b][0] = p1[n + 2];
    par_tail2[b][1] = sys[n + 3];
    par_tail2[b][2] = p2[n + 3];

    beta_tail1_[b][0] = 0;
    beta_tail2_[b][0] = 0;
    for (int s = 1; s < 8; ++s) {
      beta_tail1_[b][s] = kMetricFloor;
      beta_tail2_[b][s] = kMetricFloor;
    }
    for (int t = 2; t >= 0; --t) {
      scalar_beta_step(beta_tail1_[b], st1[t], pt1[t]);
      scalar_beta_step(beta_tail2_[b], sys_tail2[b][t], par_tail2[b][t]);
    }

    interleaver_.interleave(
        sys.first(n),
        std::span<std::int16_t>(
            sys2_.data() + static_cast<std::size_t>(b) * stride_, n));
    std::fill_n(apr1_.data() + static_cast<std::size_t>(b) * stride_, n,
                std::int16_t{0});
    results[static_cast<std::size_t>(b)] = TurboBatchResult{};
  }

  // Lane assignment: slot s runs block slot_blocks[s]. Converged blocks
  // ride along at full width until at least half the batch is done, then
  // the survivors are compacted into the narrowest covering kernel.
  int slot_blocks[kMaxLanes] = {};
  int n_slots = 0;
  IsaLevel tier = IsaLevel::kSse41;
  int nw = 1;
  int n_converged = 0;

  const auto assign_lanes = [&]() {
    const bool compact = 2 * n_converged >= nb;
    int desired[kMaxLanes];
    int nd = 0;
    for (int b = 0; b < nb; ++b) {
      if (compact && converged[b]) continue;
      desired[nd++] = b;
    }
    if (nd == n_slots &&
        std::equal(desired, desired + nd, slot_blocks)) {
      return;
    }
    n_slots = nd;
    std::copy(desired, desired + nd, slot_blocks);
    tier = tier_for(n_slots);
    nw = lane_capacity(tier);
    // Re-pack parity transposes and boundary metrics for the new lanes.
    const std::int16_t* p1s[kMaxLanes];
    const std::int16_t* p2s[kMaxLanes];
    std::fill_n(ainit_, nw * 8, std::int16_t{0});
    std::fill_n(binit1_, nw * 8, std::int16_t{0});
    std::fill_n(binit2_, nw * 8, std::int16_t{0});
    for (int s = 0; s < nw; ++s) {
      if (s < n_slots) {
        const int b = slot_blocks[s];
        p1s[s] = blocks[static_cast<std::size_t>(b)].p1.data();
        p2s[s] = blocks[static_cast<std::size_t>(b)].p2.data();
        ainit_[s * 8] = 0;
        for (int st = 1; st < 8; ++st) ainit_[s * 8 + st] = kMetricFloor;
        std::copy_n(beta_tail1_[b], 8, binit1_ + s * 8);
        std::copy_n(beta_tail2_[b], 8, binit2_ + s * 8);
      } else {
        p1s[s] = zeros_.data();
        p2s[s] = zeros_.data();
      }
    }
    transpose_step_major(p1s, nw, n, tp1_.data());
    transpose_step_major(p2s, nw, n, tp2_.data());
  };

  const auto slot_gs = [&](int s) {
    return gs_.data() + static_cast<std::size_t>(s) * stride_;
  };
  const std::int16_t* gs_srcs[kMaxLanes];

  for (int it = 0; it < cfg_.max_iterations; ++it) {
    assign_lanes();
    if (n_slots == 0) break;
    // Includes the alignment padding between slots; the elementwise
    // helpers just pass over it.
    const std::size_t used = static_cast<std::size_t>(n_slots) * stride_;

    // ---- Constituent 1 (natural order) ----
    for (int s = 0; s < nw; ++s) {
      gs_srcs[s] = s < n_slots ? slot_gs(s) : zeros_.data();
    }
    for (int s = 0; s < n_slots; ++s) {
      const std::size_t b = static_cast<std::size_t>(slot_blocks[s]);
      vec_sat_add(cfg_.isa, blocks[b].sys.first(n),
                  std::span<const std::int16_t>(apr1_.data() + b * stride_, n),
                  std::span<std::int16_t>(slot_gs(s), n));
    }
    transpose_step_major(gs_srcs, nw, n, tg_.data());
    map_decode_batch(tier, n, tg_.data(), tp1_.data(), ainit_, binit1_,
                     ext_.data(), stride_, alpha_ws_.data(), cfg_.radix4);
    // apr2 = scaled ext1, gathered through the interleaver per block.
    vec_scale_extrinsic(cfg_.isa, std::span<std::int16_t>(ext_.data(), used));
    for (int s = 0; s < n_slots; ++s) {
      const std::size_t b = static_cast<std::size_t>(slot_blocks[s]);
      const std::int16_t* eb =
          ext_.data() + static_cast<std::size_t>(s) * stride_;
      std::int16_t* a2 = apr2_.data() + b * stride_;
      for (std::size_t i = 0; i < n; ++i) {
        a2[i] = eb[static_cast<std::size_t>(
            interleaver_.pi(static_cast<int>(i)))];
      }
    }

    // ---- Constituent 2 (interleaved order) ----
    for (int s = 0; s < n_slots; ++s) {
      const std::size_t b = static_cast<std::size_t>(slot_blocks[s]);
      vec_sat_add(cfg_.isa,
                  std::span<const std::int16_t>(sys2_.data() + b * stride_, n),
                  std::span<const std::int16_t>(apr2_.data() + b * stride_, n),
                  std::span<std::int16_t>(slot_gs(s), n));
    }
    transpose_step_major(gs_srcs, nw, n, tg_.data());
    map_decode_batch(tier, n, tg_.data(), tp2_.data(), ainit_, binit2_,
                     ext_.data(), stride_, alpha_ws_.data(), cfg_.radix4);
    // Full APP for hard bits (ext + gs, before scaling), then scale.
    vec_sat_add(cfg_.isa, std::span<const std::int16_t>(ext_.data(), used),
                std::span<const std::int16_t>(gs_.data(), used),
                std::span<std::int16_t>(lall_.data(), used));
    vec_scale_extrinsic(cfg_.isa, std::span<std::int16_t>(ext_.data(), used));
    for (int s = 0; s < n_slots; ++s) {
      const std::size_t b = static_cast<std::size_t>(slot_blocks[s]);
      const std::int16_t* eb =
          ext_.data() + static_cast<std::size_t>(s) * stride_;
      const std::int16_t* lb =
          lall_.data() + static_cast<std::size_t>(s) * stride_;
      std::int16_t* a1 = apr1_.data() + b * stride_;
      std::uint8_t* hb = hard_.data() + b * stride_;
      for (std::size_t i = 0; i < n; ++i) {
        const auto pi_i =
            static_cast<std::size_t>(interleaver_.pi(static_cast<int>(i)));
        a1[pi_i] = eb[i];
        hb[pi_i] = static_cast<std::uint8_t>(lb[i] > 0);
      }
    }

    // ---- Per-lane early-termination voting ----
    for (int s = 0; s < n_slots; ++s) {
      const int b = slot_blocks[s];
      if (converged[b]) continue;  // riding along, output frozen
      auto& res = results[static_cast<std::size_t>(b)];
      res.iterations = it + 1;
      const bool forced =
          !force_full.empty() && force_full[static_cast<std::size_t>(b)] != 0;
      const auto hb = std::span<const std::uint8_t>(
          hard_.data() + static_cast<std::size_t>(b) * stride_, n);
      auto hp = std::span<std::uint8_t>(
          hard_prev_.data() + static_cast<std::size_t>(b) * stride_, n);
      if (!forced && cfg_.crc.has_value() && crc_check(hb, *cfg_.crc)) {
        res.crc_ok = true;
        res.converged = true;
      } else if (!forced && cfg_.early_stop && have_prev[b] &&
                 std::equal(hb.begin(), hb.end(), hp.begin())) {
        res.converged = true;
        res.crc_ok = cfg_.crc.has_value() && crc_check(hb, *cfg_.crc);
      } else {
        std::copy(hb.begin(), hb.end(), hp.begin());
        have_prev[b] = true;
        continue;
      }
      // Converged: freeze the output now; later iterations may keep
      // rewriting hard_ for this lane while it rides along.
      std::copy(hb.begin(), hb.end(),
                outs[static_cast<std::size_t>(b)].begin());
      converged[b] = true;
      ++n_converged;
    }
    if (n_converged == nb) break;
  }

  // Retire unconverged blocks: honest final CRC over the last decisions.
  for (int b = 0; b < nb; ++b) {
    if (converged[b]) continue;
    auto& res = results[static_cast<std::size_t>(b)];
    const auto hb = std::span<const std::uint8_t>(
        hard_.data() + static_cast<std::size_t>(b) * stride_, n);
    res.crc_ok = cfg_.crc.has_value() && crc_check(hb, *cfg_.crc);
    std::copy(hb.begin(), hb.end(), outs[static_cast<std::size_t>(b)].begin());
  }
}

}  // namespace vran::phy
