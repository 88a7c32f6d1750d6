// google-benchmark micro-suite over the hot kernels: data arrangement
// (every method x ISA x order), stride-2 splits, constituent MAP passes,
// the full-width element kernels, the receive front end (max-log
// demap per modulation, LLR descramble per tier, bit scramble) and the
// bit plumbing around the turbo code (CRC, rate (de)matching,
// desegmentation).
// Complements the figure harnesses with statistically-managed
// per-kernel numbers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <vector>

#include "arrange/arrange.h"
#include "common/aligned.h"
#include "common/bitio.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "phy/crc/crc.h"
#include "phy/modulation/modulation.h"
#include "phy/ratematch/rate_match.h"
#include "phy/scramble/scrambler.h"
#include "phy/segmentation/segmentation.h"
#include "phy/turbo/turbo_decoder.h"
#include "phy/turbo/turbo_encoder.h"

using namespace vran;

namespace {

AlignedVector<std::int16_t> random_i16(std::size_t n, std::uint64_t seed) {
  AlignedVector<std::int16_t> v(n);
  Xoshiro256 rng(seed);
  for (auto& x : v) x = static_cast<std::int16_t>(rng.next());
  return v;
}

void BM_Deinterleave3(benchmark::State& state, arrange::Method method,
                      IsaLevel isa, arrange::Order order) {
  if (method != arrange::Method::kScalar && isa > best_isa()) {
    state.SkipWithError("ISA unavailable");
    return;
  }
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto src = random_i16(3 * n, 1);
  AlignedVector<std::int16_t> s(n), p1(n), p2(n);
  const arrange::Options opt{method, isa, order};
  for (auto _ : state) {
    arrange::deinterleave3_i16(src, s, p1, p2, opt);
    benchmark::DoNotOptimize(s.data());
    benchmark::DoNotOptimize(p1.data());
    benchmark::DoNotOptimize(p2.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(6 * n));
}

void BM_Deinterleave2(benchmark::State& state, arrange::Method method,
                      IsaLevel isa) {
  if (method != arrange::Method::kScalar && isa > best_isa()) {
    state.SkipWithError("ISA unavailable");
    return;
  }
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto src = random_i16(2 * n, 2);
  AlignedVector<std::int16_t> a(n), b(n);
  for (auto _ : state) {
    arrange::deinterleave2_i16(src, a, b, method, isa);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * n));
}

void BM_MapDecode(benchmark::State& state, IsaLevel isa) {
  if (isa != IsaLevel::kScalar && isa > best_isa()) {
    state.SkipWithError("ISA unavailable");
    return;
  }
  const int k = static_cast<int>(state.range(0));
  const auto sys = random_i16(static_cast<std::size_t>(k), 3);
  const auto par = random_i16(static_cast<std::size_t>(k), 4);
  const auto apr = random_i16(static_cast<std::size_t>(k), 5);
  AlignedVector<std::int16_t> ext(static_cast<std::size_t>(k));
  AlignedVector<std::int16_t> ws(static_cast<std::size_t>(k) * 32 + 64);
  AlignedVector<std::int16_t> gs(static_cast<std::size_t>(k) * 3);
  const std::int16_t st[3] = {10, -10, 5};
  const std::int16_t pt[3] = {-10, 10, -5};
  for (auto _ : state) {
    if (isa == IsaLevel::kScalar) {
      phy::turbo_internal::map_decode_scalar(sys, par, apr, st, pt, ext, {},
                                             ws.data(), gs.data());
    } else {
      phy::turbo_internal::map_decode_simd(isa, sys, par, apr, st, pt, ext,
                                           {}, ws.data(), gs.data());
    }
    benchmark::DoNotOptimize(ext.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}

void BM_VecSatAdd(benchmark::State& state, IsaLevel isa) {
  if (isa != IsaLevel::kScalar && isa > best_isa()) {
    state.SkipWithError("ISA unavailable");
    return;
  }
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = random_i16(n, 6);
  const auto b = random_i16(n, 7);
  AlignedVector<std::int16_t> out(n);
  for (auto _ : state) {
    phy::turbo_internal::vec_sat_add(isa, a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(6 * n));
}

void BM_TurboEncode(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(k));
  Xoshiro256 rng(8);
  for (auto& x : bits) x = static_cast<std::uint8_t>(rng.next() & 1);
  const phy::TurboEncoder enc(k);
  for (auto _ : state) {
    auto cw = enc.encode(bits);
    benchmark::DoNotOptimize(cw.d1.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}

// Receive front end, sized like one cell_bulk code word (~4.8k symbols).
// Symbols are noisy constellation points, as the demapper sees them.
void BM_Demap(benchmark::State& state, phy::Modulation m, IsaLevel isa) {
  if (isa != IsaLevel::kScalar && isa > best_isa()) {
    state.SkipWithError("ISA tier unavailable on this CPU");
    return;
  }
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto points = phy::constellation(m);
  Xoshiro256 rng(9);
  std::vector<phy::IqSample> sym(n);
  const auto noise = [&rng] { return static_cast<int>(rng.next() % 801) - 400; };
  for (auto& y : sym) {
    const auto& p = points[rng.next() % points.size()];
    y.i = static_cast<std::int16_t>(p.i + noise());
    y.q = static_cast<std::int16_t>(p.q + noise());
  }
  AlignedVector<std::int16_t> llr(n * static_cast<std::size_t>(
                                          phy::bits_per_symbol(m)));
  const double n0 = 0.02 * phy::kIqScale * phy::kIqScale;
  for (auto _ : state) {
    phy::demodulate_llr_into(sym, m, n0, llr, 8.0, isa);
    benchmark::DoNotOptimize(llr.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(llr.size()));
}

void BM_Descramble(benchmark::State& state, IsaLevel isa) {
  if (isa != IsaLevel::kScalar && isa > best_isa()) {
    state.SkipWithError("ISA tier unavailable on this CPU");
    return;
  }
  auto llr = random_i16(static_cast<std::size_t>(state.range(0)), 10);
  // A new c_init per call, as per TTI in the receiver: a fixed sequence
  // lets the branch predictor learn it.
  std::uint32_t c_init = 0x1234567u;
  for (auto _ : state) {
    phy::descramble_llr(llr, c_init++, isa);
    benchmark::DoNotOptimize(llr.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_Scramble(benchmark::State& state) {
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(state.range(0)));
  Xoshiro256 rng(11);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next() & 1);
  std::uint32_t c_init = 0x1234567u;
  for (auto _ : state) {
    phy::scramble_bits(bits, c_init++);
    benchmark::DoNotOptimize(bits.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

std::vector<std::uint8_t> random_bits(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> bits(n);
  Xoshiro256 rng(seed);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next() & 1);
  return bits;
}

// CRC over one-bit-per-byte messages: the TB CRC24A and the per-block
// CRC24B that the turbo decoders' early stop re-runs every iteration.
void BM_CrcBits(benchmark::State& state, phy::CrcType t) {
  const auto bits = random_bits(static_cast<std::size_t>(state.range(0)), 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::crc_bits(bits, t));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

// Transmit-side bit selection of one code block: Args {K, E}.
void BM_RateMatch(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int e = static_cast<int>(state.range(1));
  const phy::RateMatcher rm(k);
  const auto cw = phy::TurboEncoder(k).encode(
      random_bits(static_cast<std::size_t>(k), 13));
  for (auto _ : state) {
    auto out = rm.match(cw, e, /*rv=*/0);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * e);
}

// Receive-side de-rate-match of one code block, as the receiver's
// dematch stage runs it: accumulate E LLRs into a zeroed circular
// buffer, then scatter it into the decoder's triples. Args {K, E}.
void BM_Dematch(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int e = static_cast<int>(state.range(1));
  const phy::RateMatcher rm(k);
  const auto llr = random_i16(static_cast<std::size_t>(e), 14);
  AlignedVector<std::int16_t> w(static_cast<std::size_t>(rm.buffer_size()));
  AlignedVector<std::int16_t> triples(3 * static_cast<std::size_t>(k + 4));
  for (auto _ : state) {
    std::fill(w.begin(), w.end(), std::int16_t{0});
    rm.dematch_accumulate(llr, /*rv=*/0, w);
    rm.buffer_to_triples_into(w, triples);
    benchmark::DoNotOptimize(triples.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * e);
}

// Receive-side desegmentation of one transport block, as the receiver's
// desegmentation stage runs it: per-block CRC24B and reassembly, the TB
// CRC24A, then packing the payload into bytes. Arg: TBS in bits.
void BM_Desegment(benchmark::State& state) {
  const auto tbs = static_cast<std::size_t>(state.range(0));
  auto tb = random_bits(tbs, 15);
  phy::crc_attach(tb, phy::CrcType::k24A);
  const auto plan = phy::make_segmentation_plan(static_cast<int>(tb.size()));
  const auto blocks = phy::segment_bits(tb, plan);
  std::vector<std::span<const std::uint8_t>> views(blocks.begin(),
                                                   blocks.end());
  std::vector<std::uint8_t> bits(tb.size());
  std::vector<std::uint8_t> pdu((tbs + 7) / 8);
  for (auto _ : state) {
    const bool ok = phy::desegment_bits(
        std::span<const std::span<const std::uint8_t>>(views), plan,
        std::span<std::uint8_t>(bits));
    benchmark::DoNotOptimize(ok && phy::crc_check(bits, phy::CrcType::k24A));
    pack_bits_into(std::span<const std::uint8_t>(bits).first(tbs), pdu);
    benchmark::DoNotOptimize(pdu.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

}  // namespace

#define ARRANGE_BENCH(method, isa, order)                                    \
  BENCHMARK_CAPTURE(BM_Deinterleave3, method##_##isa##_##order,              \
                    arrange::Method::k##method, IsaLevel::k##isa,            \
                    arrange::Order::k##order)                                \
      ->Arg(6148)                                                            \
      ->Arg(49184)

ARRANGE_BENCH(Scalar, Scalar, Canonical);
ARRANGE_BENCH(Extract, Sse41, Canonical);
ARRANGE_BENCH(Extract, Avx2, Canonical);
ARRANGE_BENCH(Extract, Avx512, Canonical);
ARRANGE_BENCH(Apcm, Sse41, Batched);
ARRANGE_BENCH(Apcm, Sse41, Canonical);
ARRANGE_BENCH(Apcm, Avx2, Batched);
ARRANGE_BENCH(Apcm, Avx2, Canonical);
ARRANGE_BENCH(Apcm, Avx512, Batched);
ARRANGE_BENCH(Apcm, Avx512, Canonical);

BENCHMARK_CAPTURE(BM_Deinterleave2, extract_sse, arrange::Method::kExtract,
                  IsaLevel::kSse41)
    ->Arg(32768);
BENCHMARK_CAPTURE(BM_Deinterleave2, apcm_sse, arrange::Method::kApcm,
                  IsaLevel::kSse41)
    ->Arg(32768);
BENCHMARK_CAPTURE(BM_Deinterleave2, apcm_avx512, arrange::Method::kApcm,
                  IsaLevel::kAvx512)
    ->Arg(32768);

BENCHMARK_CAPTURE(BM_MapDecode, scalar, IsaLevel::kScalar)->Arg(6144);
BENCHMARK_CAPTURE(BM_MapDecode, sse128, IsaLevel::kSse41)->Arg(6144);
BENCHMARK_CAPTURE(BM_MapDecode, avx256, IsaLevel::kAvx2)->Arg(6144);
BENCHMARK_CAPTURE(BM_MapDecode, avx512, IsaLevel::kAvx512)->Arg(6144);

BENCHMARK_CAPTURE(BM_VecSatAdd, sse128, IsaLevel::kSse41)->Arg(65536);
BENCHMARK_CAPTURE(BM_VecSatAdd, avx512, IsaLevel::kAvx512)->Arg(65536);

BENCHMARK(BM_TurboEncode)->Arg(1024)->Arg(6144);

#define DEMAP_BENCH(name, mod)                                        \
  BENCHMARK_CAPTURE(BM_Demap, name##_scalar, phy::Modulation::k##mod,   \
                    IsaLevel::kScalar)                                  \
      ->Arg(4800);                                                      \
  BENCHMARK_CAPTURE(BM_Demap, name##_sse128, phy::Modulation::k##mod,   \
                    IsaLevel::kSse41)                                   \
      ->Arg(4800);                                                      \
  BENCHMARK_CAPTURE(BM_Demap, name##_avx256, phy::Modulation::k##mod,   \
                    IsaLevel::kAvx2)                                    \
      ->Arg(4800);                                                      \
  BENCHMARK_CAPTURE(BM_Demap, name##_avx512, phy::Modulation::k##mod,   \
                    IsaLevel::kAvx512)                                  \
      ->Arg(4800)

DEMAP_BENCH(qpsk, Qpsk);
DEMAP_BENCH(qam16, 16Qam);
DEMAP_BENCH(qam64, 64Qam);

BENCHMARK_CAPTURE(BM_Descramble, scalar, IsaLevel::kScalar)->Arg(28800);
BENCHMARK_CAPTURE(BM_Descramble, sse128, IsaLevel::kSse41)->Arg(28800);
BENCHMARK_CAPTURE(BM_Descramble, avx256, IsaLevel::kAvx2)->Arg(28800);
BENCHMARK_CAPTURE(BM_Descramble, avx512, IsaLevel::kAvx512)->Arg(28800);

BENCHMARK(BM_Scramble)->Arg(28800);

// Sized like cell_bulk: TBS 12440 (12464 bits with CRC24A), C = 3
// blocks of K = 4224 at E = 7200.
BENCHMARK_CAPTURE(BM_CrcBits, crc24a, phy::CrcType::k24A)->Arg(12440);
BENCHMARK_CAPTURE(BM_CrcBits, crc24b, phy::CrcType::k24B)
    ->Arg(4224)
    ->Arg(6144);
BENCHMARK(BM_RateMatch)->Args({4224, 7200})->Args({6144, 9216});
BENCHMARK(BM_Dematch)->Args({4224, 7200})->Args({6144, 9216});
BENCHMARK(BM_Desegment)->Arg(12440);

BENCHMARK_MAIN();
