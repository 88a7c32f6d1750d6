// Tier-exactness harness for the receive front end (DESIGN.md §5g): the
// max-log demapper and the Gold-sequence (de)scrambler must be
// byte-identical at every ISA tier. Oracles:
//   * demapper — the scalar tier and the exhaustive 2-D search
//     (demodulate_llr_exhaustive), plus an integer model of the rounding
//     rule where inv is a power of two (exact halves land on ±k.5);
//   * Gold sequence — a textbook bit-serial 36.211 §7.2 generator written
//     here, GoldSequence::next() and the independent Python vectors in
//     tests/vectors/gold.txt;
//   * descrambler — the per-bit next() reference with the saturating
//     -32768 -> 32767 negate.
// The whole binary also re-runs under VRAN_FORCE_ISA=<tier> (CTest
// variants) so the default-dispatch paths are pinned per tier too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "phy/modulation/modulation.h"
#include "phy/scramble/scrambler.h"

namespace vran::phy {
namespace {

std::vector<IsaLevel> tiers() {
  std::vector<IsaLevel> out{IsaLevel::kScalar};
  for (const IsaLevel isa :
       {IsaLevel::kSse41, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (isa <= cpu_features().best()) out.push_back(isa);
  }
  return out;
}

constexpr Modulation kMods[] = {Modulation::kQpsk, Modulation::k16Qam,
                                Modulation::k64Qam};

// --- Demapper ---------------------------------------------------------------

std::vector<IqSample> random_symbols(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> full(-32768, 32767);
  std::uniform_int_distribution<int> near(-6000, 6000);
  std::vector<IqSample> v(n);
  for (std::size_t s = 0; s < n; ++s) {
    // Mostly near the constellation, some anywhere, and the int16
    // extremes on both axes.
    auto draw = [&]() -> std::int16_t {
      const int r = static_cast<int>(rng() % 16);
      if (r == 0) return -32768;
      if (r == 1) return 32767;
      if (r < 5) return static_cast<std::int16_t>(full(rng));
      return static_cast<std::int16_t>(near(rng));
    };
    v[s].i = draw();
    v[s].q = draw();
  }
  return v;
}

/// Demaps at `isa` into a buffer with guard words on both sides and
/// checks the kernel wrote nothing outside its span.
std::vector<std::int16_t> demap_at(const std::vector<IqSample>& sym,
                                   Modulation m, double n0, double scale,
                                   IsaLevel isa) {
  constexpr std::int16_t kGuard = 0x5A5A;
  constexpr std::size_t kPad = 64;
  const std::size_t n = sym.size() * static_cast<std::size_t>(
                                         bits_per_symbol(m));
  std::vector<std::int16_t> buf(n + 2 * kPad, kGuard);
  demodulate_llr_into(sym, m, n0, std::span(buf).subspan(kPad, n), scale,
                      isa);
  for (std::size_t i = 0; i < kPad; ++i) {
    EXPECT_EQ(buf[i], kGuard) << "write before output, " << isa_name(isa);
    EXPECT_EQ(buf[kPad + n + i], kGuard)
        << "write past output, " << isa_name(isa);
  }
  return {buf.begin() + kPad, buf.begin() + kPad + static_cast<long>(n)};
}

void expect_all_tiers_exact(const std::vector<IqSample>& sym, Modulation m,
                            double n0, double scale) {
  const auto ex = demodulate_llr_exhaustive(sym, m, n0, scale);
  const std::vector<std::int16_t> ref(ex.begin(), ex.end());
  for (const IsaLevel isa : tiers()) {
    ASSERT_EQ(demap_at(sym, m, n0, scale, isa), ref)
        << modulation_name(m) << " " << isa_name(isa) << " symbols "
        << sym.size() << " n0 " << n0 << " scale " << scale;
  }
  // Default dispatch (best_isa(), pinned per CTest variant).
  const auto dflt = demodulate_llr(sym, m, n0, scale);
  ASSERT_EQ(std::vector<std::int16_t>(dflt.begin(), dflt.end()), ref);
}

TEST(DemapExactness, EveryTierEveryTailLength) {
  // 0..70 symbols hits every remainder of every tier's chunk (4 or 8
  // symbols) several times over.
  for (const Modulation m : kMods) {
    for (std::size_t n = 0; n <= 70; ++n) {
      const auto sym = random_symbols(n, static_cast<std::uint32_t>(n + 1));
      expect_all_tiers_exact(sym, m, 0.08 * kIqScale * kIqScale, 8.0);
    }
  }
}

TEST(DemapExactness, NoiseLevelsScalesAndSaturation) {
  const auto sym = random_symbols(1003, 0xDE3Au);
  // From LLRs of a few LSB to every LLR pinned at -32768 / 32767.
  const double n0s[] = {4.0 * kIqScale * kIqScale,
                        0.08 * kIqScale * kIqScale, 1337.25, 16.0, 1e-3};
  for (const Modulation m : kMods) {
    for (const double n0 : n0s) {
      for (const double scale : {8.0, 3.7, 0.01, 1e6}) {
        expect_all_tiers_exact(sym, m, n0, scale);
      }
    }
  }
}

TEST(DemapExactness, SaturatedOutputHitsBothInt16Bounds) {
  const auto sym = random_symbols(256, 0x5A7u);
  for (const Modulation m : kMods) {
    for (const IsaLevel isa : tiers()) {
      const auto llr = demap_at(sym, m, 1e-3, 8.0, isa);
      bool lo = false, hi = false;
      for (const auto v : llr) {
        lo |= v == -32768;
        hi |= v == 32767;
      }
      EXPECT_TRUE(lo && hi) << modulation_name(m) << " " << isa_name(isa);
    }
  }
}

/// Exact per-bit distance differences d0 - d1 over the full 2-D
/// constellation (int64, independent of the library's axis tables).
std::vector<std::int64_t> exact_diffs(const std::vector<IqSample>& sym,
                                      Modulation m) {
  const int bps = bits_per_symbol(m);
  const auto pts = constellation(m);
  std::vector<std::int64_t> out;
  for (const auto& y : sym) {
    for (int b = 0; b < bps; ++b) {
      std::int64_t d[2] = {std::numeric_limits<std::int64_t>::max(),
                           std::numeric_limits<std::int64_t>::max()};
      for (std::size_t g = 0; g < pts.size(); ++g) {
        const std::int64_t di = std::int64_t{y.i} - pts[g].i;
        const std::int64_t dq = std::int64_t{y.q} - pts[g].q;
        auto& slot = d[(g >> (bps - 1 - b)) & 1u];
        slot = std::min(slot, di * di + dq * dq);
      }
      out.push_back(d[0] - d[1]);
    }
  }
  return out;
}

TEST(DemapExactness, ExactHalvesRoundAwayFromZero) {
  // With inv = 2^-k every product d * inv is exact, and odd multiples of
  // 2^(k-1) land exactly on ±j.5. The expected LLR is computed here in
  // integers: sign(d) * ((|d| + 2^(k-1)) >> k), clamped — lround's rule,
  // which half-to-even conversion and trunc(x ± 0.5) both break.
  std::vector<IqSample> sym;
  for (int i = -9000; i <= 9000; i += 37) {
    sym.push_back({static_cast<std::int16_t>(i),
                   static_cast<std::int16_t>(-i / 3 + 1)});
  }
  for (const std::int16_t e : {-32768, -32767, 32766, 32767}) {
    sym.push_back({e, static_cast<std::int16_t>(-e - 1)});
  }
  for (const Modulation m : kMods) {
    const auto diffs = exact_diffs(sym, m);
    int halves = 0;
    for (int k = 1; k <= 10; ++k) {
      const double inv = std::ldexp(1.0, -k);
      const std::int64_t half = std::int64_t{1} << (k - 1);
      std::vector<std::int16_t> want(diffs.size());
      for (std::size_t i = 0; i < diffs.size(); ++i) {
        const std::int64_t d = diffs[i];
        const std::int64_t mag = ((d < 0 ? -d : d) + half) >> k;
        want[i] = static_cast<std::int16_t>(
            std::clamp<std::int64_t>(d < 0 ? -mag : mag, -32768, 32767));
        const std::int64_t rem = (d < 0 ? -d : d) & ((half << 1) - 1);
        halves += rem == half;
      }
      // llr_scale = inv with n0 = 1, and the usual scale 8 with
      // n0 = 8 / inv: the same multiplier either way.
      for (const IsaLevel isa : tiers()) {
        ASSERT_EQ(demap_at(sym, m, 1.0, inv, isa), want)
            << modulation_name(m) << " k " << k << " " << isa_name(isa);
        ASSERT_EQ(demap_at(sym, m, 8.0 / inv, 8.0, isa), want)
            << modulation_name(m) << " k " << k << " " << isa_name(isa);
      }
      expect_all_tiers_exact(sym, m, 1.0, inv);
    }
    EXPECT_GT(halves, 100) << modulation_name(m);
  }
}

TEST(DemapExactness, ProductsBesideHalvesRoundLikeLround) {
  // Products one ulp either side of ±k.5, and 0.5 - 2^-54 in particular:
  // there x + 0.5 rounds up to 1.0 in the addition, so trunc(x + 0.5)
  // gives 1 where lround gives 0. For each symbol, pick inv so that
  // d * inv (d = bit 0's exact distance difference) is exactly the
  // target, then demap a register's worth of copies at every tier.
  std::vector<double> targets;
  for (const double h : {0.5, 1.5, 2.5, 100.5, 32766.5}) {
    for (const double t : {std::nextafter(h, 0.0), h, std::nextafter(h, 1e9)}) {
      targets.push_back(t);
      targets.push_back(-t);
    }
  }
  int checked = 0;
  for (const Modulation m : kMods) {
    for (const int yi : {1, 7, -300, 2900, -4424, 12345, -32768}) {
      const std::vector<IqSample> sym(
          19, IqSample{static_cast<std::int16_t>(yi), 5});
      const std::int64_t d = exact_diffs({sym[0]}, m)[0];
      if (d == 0) continue;
      for (const double target : targets) {
        // A positive inv with d * inv == target exactly, searched among
        // the neighbours of target / d.
        double c = target / static_cast<double>(d);
        if (!(c > 0)) continue;
        for (int k = 0; k < 4; ++k) c = std::nextafter(c, 0.0);
        double inv = 0;
        for (int k = 0; k < 9 && inv == 0; ++k, c = std::nextafter(c, 1e300)) {
          if (static_cast<double>(d) * c == target) inv = c;
        }
        if (inv == 0) continue;
        const auto want = static_cast<std::int16_t>(std::lround(target));
        for (const IsaLevel isa : tiers()) {
          const auto llr = demap_at(sym, m, 1.0, inv, isa);
          for (std::size_t s = 0; s < sym.size(); ++s) {
            ASSERT_EQ(llr[s * static_cast<std::size_t>(bits_per_symbol(m))],
                      want)
                << modulation_name(m) << " y " << yi << " target "
                << target << " " << isa_name(isa);
          }
        }
        expect_all_tiers_exact(sym, m, 1.0, inv);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 60);
}

TEST(DemapExactness, ExplicitTierIsClampedNeverSigill) {
  // Asking for a tier above the CPU's capability must clamp, not crash.
  const auto sym = random_symbols(37, 0xC1A3u);
  for (const Modulation m : kMods) {
    EXPECT_EQ(demap_at(sym, m, 5000.0, 8.0, IsaLevel::kAvx512),
              demap_at(sym, m, 5000.0, 8.0, IsaLevel::kScalar));
  }
}

// --- Gold sequence ----------------------------------------------------------

/// Textbook 36.211 §7.2 generator: two 31-bit LFSRs stepped one bit at a
/// time through the Nc = 1600 warm-up.
std::vector<std::uint8_t> textbook_gold(std::uint32_t c_init, std::size_t n) {
  std::vector<std::uint8_t> x1(n + 1600 + 31, 0), x2(n + 1600 + 31, 0);
  x1[0] = 1;
  for (int i = 0; i < 31; ++i) x2[i] = (c_init >> i) & 1u;
  for (std::size_t j = 0; j + 31 < x1.size(); ++j) {
    x1[j + 31] = x1[j + 3] ^ x1[j];
    x2[j + 31] = x2[j + 3] ^ x2[j + 2] ^ x2[j + 1] ^ x2[j];
  }
  std::vector<std::uint8_t> c(n);
  for (std::size_t i = 0; i < n; ++i) c[i] = x1[i + 1600] ^ x2[i + 1600];
  return c;
}

std::vector<std::uint32_t> c_inits() {
  std::vector<std::uint32_t> v{0u, 1u, 0x7FFFFFFFu, 0x12345u};
  std::mt19937 rng(0x601Du);
  for (int i = 0; i < 4; ++i) v.push_back(rng() & 0x7FFFFFFFu);
  return v;
}

TEST(GoldWords, MatchTextbookGeneratorBitAndWordWise) {
  for (const std::uint32_t c_init : c_inits()) {
    const auto want = textbook_gold(c_init, 4096);
    EXPECT_EQ(gold_sequence(c_init, want.size()), want) << c_init;
    GoldSequence bits(c_init);
    GoldSequence words(c_init);
    for (std::size_t w = 0; w < want.size() / 32; ++w) {
      const std::uint32_t word = words.next_word();
      for (std::size_t k = 0; k < 32; ++k) {
        ASSERT_EQ((word >> k) & 1u, want[32 * w + k]) << c_init << " " << w;
        ASSERT_EQ(bits.next(), want[32 * w + k]) << c_init << " " << w;
      }
    }
  }
}

TEST(GoldWords, MixedBitAndWordStepsContinueTheSequence) {
  auto want = textbook_gold(0x5EEDu, 2000);
  GoldSequence g(0x5EEDu);
  std::vector<std::uint8_t> got;
  std::mt19937 rng(7);
  while (got.size() + 32 <= want.size()) {
    if (rng() % 2) {
      got.push_back(g.next());
    } else {
      const std::uint32_t w = g.next_word();
      for (int k = 0; k < 32; ++k) got.push_back((w >> k) & 1u);
    }
  }
  want.resize(got.size());
  EXPECT_EQ(got, want);
}

TEST(GoldWords, OnlyTheLow31BitsOfCInitCount) {
  EXPECT_EQ(gold_sequence(0x80000000u | 777u, 500), gold_sequence(777u, 500));
}

std::string vector_dir() {
  if (const char* env = std::getenv("VRAN_VECTOR_DIR")) return env;
  return VRAN_VECTOR_DIR;
}

TEST(GoldWords, MatchIndependentVectors) {
  std::ifstream in(vector_dir() + "/gold.txt");
  ASSERT_TRUE(in.good()) << "missing gold.txt in " << vector_dir();
  std::string line;
  int checked = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::uint32_t c_init;
    std::size_t n;
    std::string bits;
    ss >> c_init >> n >> bits;
    ASSERT_EQ(bits.size(), n);
    GoldSequence g(c_init);
    std::uint32_t word = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 32 == 0) word = g.next_word();
      ASSERT_EQ(static_cast<char>('0' + ((word >> (i % 32)) & 1u)), bits[i])
          << "c_init " << c_init << " bit " << i;
    }
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

// --- Scramble / descramble --------------------------------------------------

std::vector<std::size_t> lengths() {
  std::vector<std::size_t> v;
  for (std::size_t n = 0; n <= 100; ++n) v.push_back(n);
  v.push_back(20000);  // crosses the descrambler's word-chunk boundary
  return v;
}

TEST(ScrambleExactness, ScrambleBitsMatchesPerBitReference) {
  for (const std::uint32_t c_init : c_inits()) {
    for (const std::size_t n : lengths()) {
      std::mt19937 rng(static_cast<std::uint32_t>(n) ^ c_init);
      std::vector<std::uint8_t> bits(n), want(n);
      GoldSequence ref(c_init);
      for (std::size_t i = 0; i < n; ++i) {
        bits[i] = rng() & 1u;
        want[i] = bits[i] ^ ref.next();
      }
      scramble_bits(bits, c_init);
      ASSERT_EQ(bits, want) << "c_init " << c_init << " n " << n;
    }
  }
}

TEST(ScrambleExactness, DescrambleEveryTierMatchesPerBitReference) {
  for (const std::uint32_t c_init : c_inits()) {
    for (const std::size_t n : lengths()) {
      std::mt19937 rng(static_cast<std::uint32_t>(n) * 31u + c_init);
      std::vector<std::int16_t> llr(n), want(n);
      GoldSequence ref(c_init);
      for (std::size_t i = 0; i < n; ++i) {
        const int r = static_cast<int>(rng() % 8);
        llr[i] = r == 0   ? std::int16_t{-32768}
                 : r == 1 ? std::int16_t{32767}
                          : static_cast<std::int16_t>(rng());
        const bool flip = ref.next() != 0;
        want[i] = !flip ? llr[i]
                  : llr[i] == -32768
                      ? std::int16_t{32767}
                      : static_cast<std::int16_t>(-llr[i]);
      }
      for (const IsaLevel isa : tiers()) {
        auto got = llr;
        descramble_llr(got, c_init, isa);
        ASSERT_EQ(got, want) << isa_name(isa) << " c_init " << c_init
                             << " n " << n;
      }
      auto dflt = llr;
      descramble_llr(dflt, c_init);
      ASSERT_EQ(dflt, want) << "default tier, c_init " << c_init << " n " << n;
    }
  }
}

TEST(ScrambleExactness, DescrambleTouchesOnlyItsSpan) {
  // Masked AVX-512 tails and the narrower tiers' scalar tails must not
  // write past the span.
  for (const IsaLevel isa : tiers()) {
    for (std::size_t n = 0; n <= 70; ++n) {
      std::vector<std::int16_t> buf(n + 64, 0x1234);
      descramble_llr(std::span(buf).subspan(0, n), 0x7FFFFFFFu, isa);
      for (std::size_t i = n; i < buf.size(); ++i) {
        ASSERT_EQ(buf[i], 0x1234) << isa_name(isa) << " n " << n;
      }
    }
  }
}

}  // namespace
}  // namespace vran::phy
