// Batched-lane turbo decoder: bit-exactness against the single-block
// decoder at every register width, lane compaction / early-termination
// voting behaviour, the radix-4 trellis step option, and the decoder
// edge-case regressions fixed alongside the batch work (stale hard_ on
// zero-iteration configs, reused-decoder determinism).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "phy/crc/crc.h"
#include "phy/turbo/turbo_batch.h"
#include "phy/turbo/turbo_decoder.h"
#include "phy/turbo/turbo_encoder.h"

namespace vran::phy {
namespace {

/// One encoded block with per-stream LLRs (K+4 each, the arranged
/// layout) at a controllable noise level. `noise` >= `amp` flips signs.
struct NoisyBlock {
  std::vector<std::uint8_t> bits;
  AlignedVector<std::int16_t> sys, p1, p2;
};

NoisyBlock make_block(int k, std::uint64_t seed, int amp, int noise,
                      bool crc24b = false) {
  NoisyBlock nb;
  Xoshiro256 rng(seed);
  nb.bits.resize(static_cast<std::size_t>(k));
  if (crc24b) {
    nb.bits.resize(static_cast<std::size_t>(k) - 24);
    for (auto& b : nb.bits) b = static_cast<std::uint8_t>(rng.next() & 1);
    crc_attach(nb.bits, CrcType::k24B);
  } else {
    for (auto& b : nb.bits) b = static_cast<std::uint8_t>(rng.next() & 1);
  }
  const auto cw = turbo_encode(nb.bits);
  const std::size_t nt = cw.d0.size();
  nb.sys.resize(nt);
  nb.p1.resize(nt);
  nb.p2.resize(nt);
  const auto jitter = [&]() {
    return static_cast<std::int16_t>(
        static_cast<int>(rng.next() % (2 * static_cast<std::uint64_t>(noise) + 1)) -
        noise);
  };
  for (std::size_t t = 0; t < nt; ++t) {
    nb.sys[t] = static_cast<std::int16_t>((cw.d0[t] ? amp : -amp) + jitter());
    nb.p1[t] = static_cast<std::int16_t>((cw.d1[t] ? amp : -amp) + jitter());
    nb.p2[t] = static_cast<std::int16_t>((cw.d2[t] ? amp : -amp) + jitter());
  }
  return nb;
}

/// Single-block reference: the SSE windowed decoder (bit-exact with the
/// scalar reference) at the same iteration config.
TurboDecodeResult decode_single(const NoisyBlock& nb, int k,
                                std::span<std::uint8_t> out, int max_it,
                                bool crc24b, bool force = false) {
  TurboDecodeConfig cfg;
  cfg.isa = IsaLevel::kSse41;
  cfg.max_iterations = max_it;
  if (crc24b) cfg.crc = CrcType::k24B;
  TurboDecoder dec(k, cfg);
  return dec.decode_arranged(nb.sys, nb.p1, nb.p2, out, force);
}

void expect_batch_matches_single(IsaLevel isa, int k, int batch_size,
                                 std::uint64_t seed, int amp, int noise,
                                 bool crc24b, bool radix4) {
  TurboBatchConfig bc;
  bc.isa = isa;
  bc.max_iterations = 6;
  bc.radix4 = radix4;
  if (crc24b) bc.crc = CrcType::k24B;
  TurboBatchDecoder bdec(k, bc);
  ASSERT_LE(batch_size, bdec.capacity());

  std::vector<NoisyBlock> blocks;
  std::vector<TurboBatchInput> inputs;
  std::vector<std::vector<std::uint8_t>> outs(
      static_cast<std::size_t>(batch_size));
  std::vector<std::span<std::uint8_t>> out_spans;
  for (int b = 0; b < batch_size; ++b) {
    blocks.push_back(make_block(k, seed + static_cast<std::uint64_t>(b), amp,
                                noise, crc24b));
    outs[static_cast<std::size_t>(b)].resize(static_cast<std::size_t>(k));
  }
  for (int b = 0; b < batch_size; ++b) {
    inputs.push_back({blocks[static_cast<std::size_t>(b)].sys,
                      blocks[static_cast<std::size_t>(b)].p1,
                      blocks[static_cast<std::size_t>(b)].p2});
    out_spans.emplace_back(outs[static_cast<std::size_t>(b)]);
  }
  std::vector<TurboBatchResult> results(static_cast<std::size_t>(batch_size));
  bdec.decode_arranged(inputs, out_spans, results);

  for (int b = 0; b < batch_size; ++b) {
    std::vector<std::uint8_t> ref(static_cast<std::size_t>(k));
    const auto rr = decode_single(blocks[static_cast<std::size_t>(b)], k, ref,
                                  6, crc24b);
    const auto& br = results[static_cast<std::size_t>(b)];
    EXPECT_EQ(outs[static_cast<std::size_t>(b)], ref)
        << "K=" << k << " isa=" << isa_name(isa) << " block " << b
        << " batch=" << batch_size << " radix4=" << radix4;
    EXPECT_EQ(br.iterations, rr.iterations) << "K=" << k << " block " << b;
    EXPECT_EQ(br.crc_ok, rr.crc_ok) << "K=" << k << " block " << b;
    EXPECT_EQ(br.converged, rr.converged) << "K=" << k << " block " << b;
  }
}

/// `src` copied to `byte_offset` bytes past a 64-byte boundary inside
/// `storage`, so no tier's vector width divides the input address.
std::span<const std::int16_t> at_offset(const AlignedVector<std::int16_t>& src,
                                        std::size_t byte_offset,
                                        AlignedVector<std::int16_t>& storage) {
  const std::size_t skip = byte_offset / sizeof(std::int16_t);
  storage.assign(src.size() + skip, 0);
  std::copy(src.begin(), src.end(),
            storage.begin() + static_cast<std::ptrdiff_t>(skip));
  return std::span<const std::int16_t>(storage).subspan(skip, src.size());
}

TEST(TurboAlignment, OffsetInputsDecodeIdenticallyAtEveryTier) {
  // The MAP kernels must not assume vector-aligned input streams: plain
  // std::vector storage is only 16-byte aligned.
  const int k = 1024;
  for (const IsaLevel isa :
       {IsaLevel::kSse41, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (isa > best_isa()) continue;
    const int cap = TurboBatchDecoder::lane_capacity(isa);
    std::vector<NoisyBlock> blocks;
    for (int b = 0; b < cap; ++b) {
      blocks.push_back(make_block(k, 40 + static_cast<std::uint64_t>(b), 60, 70,
                                  /*crc24b=*/true));
    }
    TurboDecodeConfig dc;
    dc.isa = isa;
    dc.crc = CrcType::k24B;
    TurboBatchConfig bc;
    bc.isa = isa;
    bc.crc = CrcType::k24B;

    std::vector<std::vector<std::uint8_t>> want_single, want_batch;
    std::vector<TurboDecodeResult> want_single_res;
    std::vector<TurboBatchResult> want_batch_res;
    for (const std::size_t offset : {0u, 2u, 16u, 32u}) {
      std::vector<AlignedVector<std::int16_t>> storage(3 * blocks.size());
      std::vector<TurboBatchInput> inputs;
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        inputs.push_back({at_offset(blocks[b].sys, offset, storage[3 * b]),
                          at_offset(blocks[b].p1, offset, storage[3 * b + 1]),
                          at_offset(blocks[b].p2, offset, storage[3 * b + 2])});
      }
      std::vector<std::vector<std::uint8_t>> single(
          blocks.size(),
          std::vector<std::uint8_t>(static_cast<std::size_t>(k)));
      std::vector<TurboDecodeResult> single_res;
      TurboDecoder dec(k, dc);
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        single_res.push_back(dec.decode_arranged(inputs[b].sys, inputs[b].p1,
                                                 inputs[b].p2, single[b]));
      }
      auto batch = single;
      std::vector<std::span<std::uint8_t>> outs(batch.begin(), batch.end());
      std::vector<TurboBatchResult> batch_res(blocks.size());
      TurboBatchDecoder(k, bc).decode_arranged(inputs, outs, batch_res);
      if (offset == 0) {
        want_single = single;
        want_batch = batch;
        want_single_res = single_res;
        want_batch_res = batch_res;
        continue;
      }
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        const auto where = ::testing::Message()
                           << "isa=" << isa_name(isa) << " offset=" << offset
                           << " block " << b;
        EXPECT_EQ(single[b], want_single[b]) << where;
        EXPECT_EQ(single_res[b].iterations, want_single_res[b].iterations)
            << where;
        EXPECT_EQ(single_res[b].crc_ok, want_single_res[b].crc_ok) << where;
        EXPECT_EQ(batch[b], want_batch[b]) << where;
        EXPECT_EQ(batch_res[b].iterations, want_batch_res[b].iterations)
            << where;
        EXPECT_EQ(batch_res[b].crc_ok, want_batch_res[b].crc_ok) << where;
      }
    }
  }
}

TEST(TurboBatch, MatchesSingleSseAtEveryTierFullBatch) {
  for (const IsaLevel isa :
       {IsaLevel::kSse41, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (isa > best_isa()) continue;
    const int cap = TurboBatchDecoder::lane_capacity(isa);
    for (const int k : {40, 512, 2432, 6144}) {
      expect_batch_matches_single(isa, k, cap, 1000 + static_cast<std::uint64_t>(k),
                                  6, 9, true, false);
    }
  }
}

TEST(TurboBatch, MatchesSingleOnRaggedBatches) {
  const IsaLevel isa = best_isa();
  if (TurboBatchDecoder::lane_capacity(isa) < 2) {
    GTEST_SKIP() << "no multi-lane tier on this host";
  }
  const int cap = TurboBatchDecoder::lane_capacity(isa);
  for (int bs = 1; bs <= cap; ++bs) {
    expect_batch_matches_single(isa, 1504, bs,
                                77 + static_cast<std::uint64_t>(bs), 6, 9,
                                true, false);
    expect_batch_matches_single(isa, 320, bs,
                                770 + static_cast<std::uint64_t>(bs), 6, 9,
                                true, false);
  }
}

TEST(TurboBatch, Radix4BitExactWithRadix2) {
  const IsaLevel isa = best_isa();
  const int cap = TurboBatchDecoder::lane_capacity(isa);
  for (const int k : {40, 1120, 6144}) {
    expect_batch_matches_single(isa, k, cap, 5000 + static_cast<std::uint64_t>(k),
                                6, 9, true, true);
  }
}

TEST(TurboBatch, MixedConvergenceVotesPerLane) {
  // One clean block (CRC-stops after the first iteration), the rest
  // noisy enough to burn several iterations: the clean lane must freeze
  // early and the survivors must still match single-block decoding
  // after compaction kicks in.
  const IsaLevel isa = best_isa();
  const int cap = TurboBatchDecoder::lane_capacity(isa);
  if (cap < 2) GTEST_SKIP() << "no multi-lane tier on this host";
  const int k = 2048;

  TurboBatchConfig bc;
  bc.isa = isa;
  bc.crc = CrcType::k24B;
  TurboBatchDecoder bdec(k, bc);

  std::vector<NoisyBlock> blocks;
  blocks.push_back(make_block(k, 42, 60, 0, true));  // noiseless: instant
  for (int b = 1; b < cap; ++b) {
    blocks.push_back(
        make_block(k, 600 + static_cast<std::uint64_t>(b), 5, 9, true));
  }
  std::vector<TurboBatchInput> inputs;
  std::vector<std::vector<std::uint8_t>> outs(blocks.size());
  std::vector<std::span<std::uint8_t>> out_spans;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    outs[b].resize(static_cast<std::size_t>(k));
    inputs.push_back({blocks[b].sys, blocks[b].p1, blocks[b].p2});
    out_spans.emplace_back(outs[b]);
  }
  std::vector<TurboBatchResult> results(blocks.size());
  bdec.decode_arranged(inputs, out_spans, results);

  EXPECT_EQ(results[0].iterations, 1);
  EXPECT_TRUE(results[0].crc_ok);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    std::vector<std::uint8_t> ref(static_cast<std::size_t>(k));
    const auto rr = decode_single(blocks[b], k, ref, 6, true);
    EXPECT_EQ(outs[b], ref) << "block " << b;
    EXPECT_EQ(results[b].iterations, rr.iterations) << "block " << b;
    EXPECT_EQ(results[b].crc_ok, rr.crc_ok) << "block " << b;
  }
}

TEST(TurboBatch, ForceFullIterationsMatchesSingle) {
  const IsaLevel isa = best_isa();
  const int cap = TurboBatchDecoder::lane_capacity(isa);
  const int k = 512;
  TurboBatchConfig bc;
  bc.isa = isa;
  bc.crc = CrcType::k24B;
  TurboBatchDecoder bdec(k, bc);

  std::vector<NoisyBlock> blocks;
  std::vector<TurboBatchInput> inputs;
  std::vector<std::vector<std::uint8_t>> outs(static_cast<std::size_t>(cap));
  std::vector<std::span<std::uint8_t>> out_spans;
  std::vector<std::uint8_t> force(static_cast<std::size_t>(cap), 0);
  for (int b = 0; b < cap; ++b) {
    blocks.push_back(
        make_block(k, 900 + static_cast<std::uint64_t>(b), 40, 0, true));
    outs[static_cast<std::size_t>(b)].resize(static_cast<std::size_t>(k));
    force[static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(b % 2);  // force odd lanes only
  }
  for (int b = 0; b < cap; ++b) {
    inputs.push_back({blocks[static_cast<std::size_t>(b)].sys,
                      blocks[static_cast<std::size_t>(b)].p1,
                      blocks[static_cast<std::size_t>(b)].p2});
    out_spans.emplace_back(outs[static_cast<std::size_t>(b)]);
  }
  std::vector<TurboBatchResult> results(static_cast<std::size_t>(cap));
  bdec.decode_arranged(inputs, out_spans, results, force);

  for (int b = 0; b < cap; ++b) {
    std::vector<std::uint8_t> ref(static_cast<std::size_t>(k));
    const auto rr = decode_single(blocks[static_cast<std::size_t>(b)], k, ref,
                                  6, true, b % 2 != 0);
    EXPECT_EQ(outs[static_cast<std::size_t>(b)], ref) << "block " << b;
    EXPECT_EQ(results[static_cast<std::size_t>(b)].iterations, rr.iterations)
        << "block " << b;
    EXPECT_EQ(results[static_cast<std::size_t>(b)].crc_ok, rr.crc_ok)
        << "block " << b;
  }
}

// ---------------------------------------------------------------------------
// Decoder edge-case regressions (satellite bugfixes).
// ---------------------------------------------------------------------------

TEST(TurboDecoderRegression, ZeroIterationConfigRejected) {
  // Pre-fix behaviour: max_iterations <= 0 skipped the MAP loop entirely
  // and decode_arranged copied the *previous* decode's hard_ into
  // bits_out (and CRC-checked the stale bits). The config is now
  // rejected at construction.
  for (const int bad : {0, -1, -6}) {
    TurboDecodeConfig cfg;
    cfg.max_iterations = bad;
    EXPECT_THROW(TurboDecoder(512, cfg), std::invalid_argument) << bad;
    TurboBatchConfig bc;
    bc.max_iterations = bad;
    EXPECT_THROW(TurboBatchDecoder(512, bc), std::invalid_argument) << bad;
  }
}

TEST(TurboDecoderRegression, ReusedDecoderOutputIndependentOfHistory) {
  // Decoding block B after block A must give exactly the bits a fresh
  // decoder gives for B — no state (hard_, hard_prev_, extrinsics) may
  // leak between calls on the same object.
  const int k = 320;
  const auto a = make_block(k, 11, 6, 9, true);
  const auto b = make_block(k, 12, 6, 9, true);

  TurboDecodeConfig cfg;
  cfg.isa = IsaLevel::kSse41;
  cfg.crc = CrcType::k24B;
  TurboDecoder fresh(k, cfg);
  std::vector<std::uint8_t> ref(static_cast<std::size_t>(k));
  const auto ref_res = fresh.decode_arranged(b.sys, b.p1, b.p2, ref);

  TurboDecoder reused(k, cfg);
  std::vector<std::uint8_t> tmp(static_cast<std::size_t>(k));
  reused.decode_arranged(a.sys, a.p1, a.p2, tmp);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(k));
  const auto res = reused.decode_arranged(b.sys, b.p1, b.p2, out);

  EXPECT_EQ(out, ref);
  EXPECT_EQ(res.iterations, ref_res.iterations);
  EXPECT_EQ(res.crc_ok, ref_res.crc_ok);
}

TEST(TurboBatch, RejectsBadGeometry) {
  TurboBatchConfig bc;
  bc.isa = IsaLevel::kScalar;
  EXPECT_THROW(TurboBatchDecoder(512, bc), std::invalid_argument);

  TurboBatchDecoder dec(512);
  std::vector<TurboBatchInput> none;
  std::vector<std::span<std::uint8_t>> outs;
  std::vector<TurboBatchResult> results;
  EXPECT_THROW(dec.decode_arranged(none, outs, results),
               std::invalid_argument);
}

}  // namespace
}  // namespace vran::phy
