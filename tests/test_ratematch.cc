// Rate matching / de-matching tests: geometry, permutation structure,
// encode/decode round trips at several code rates and redundancy
// versions, and HARQ-style soft combining.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "common/saturate.h"
#include "phy/ratematch/rate_match.h"
#include "phy/turbo/qpp_interleaver.h"
#include "phy/turbo/turbo_encoder.h"

namespace vran::phy {
namespace {

std::vector<std::uint8_t> random_bits(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> b(n);
  Xoshiro256 rng(seed);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next() & 1);
  return b;
}

// 36.212 §5.1.4.1.1 sub-block interleaver, one position at a time:
// v0_src[i] is the index into the null-padded stream y (nulls first)
// that lands at output i for d0 and d1, v2_src[i] the same for d2.
struct SubblockMap {
  SubblockGeometry geo;
  std::vector<int> v0_src, v2_src;
};

SubblockMap subblock_map(int d) {
  SubblockMap m;
  m.geo = subblock_geometry(d);
  const int rows = m.geo.rows;
  const auto perm = subblock_column_permutation();
  // d0/d1: write y row by row into R x 32, permute columns, read by
  // column. d2: pi(k) = (P[k / R] + 32 * (k mod R) + 1) mod kp.
  for (int k = 0; k < m.geo.kp; ++k) {
    const int col = perm[static_cast<std::size_t>(k / rows)];
    m.v0_src.push_back(32 * (k % rows) + col);
    m.v2_src.push_back((col + 32 * (k % rows) + 1) % m.geo.kp);
  }
  return m;
}

// Position-at-a-time reference: the per-position map (circular-buffer
// position -> flat d-stream index 3 * p + stream, -1 for nulls) and the
// modulo wrap loop the run-table implementation must reproduce exactly.
struct RefMatcher {
  int k;
  int ncb;
  std::vector<int> w_src;

  explicit RefMatcher(int k_) : k(k_) {
    const auto m = subblock_map(k + kTurboTail);
    const int kp = m.geo.kp;
    ncb = 3 * kp;
    w_src.assign(static_cast<std::size_t>(ncb), -1);
    for (int j = 0; j < kp; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      const int y0 = m.v0_src[ju] - m.geo.nulls;
      const int y2 = m.v2_src[ju] - m.geo.nulls;
      if (y0 >= 0) w_src[ju] = 3 * y0;
      if (y0 >= 0) w_src[static_cast<std::size_t>(kp + 2 * j)] = 3 * y0 + 1;
      if (y2 >= 0) w_src[static_cast<std::size_t>(kp + 2 * j + 1)] = 3 * y2 + 2;
    }
  }

  int k0(int rv) const {
    const int r = ncb / 96;
    return r * (2 * ((ncb + 8 * r - 1) / (8 * r)) * rv + 2);
  }

  // Buffer positions visited by E consecutive non-null selections.
  std::vector<int> positions(int e, int rv) const {
    std::vector<int> pos;
    for (int j = 0; static_cast<int>(pos.size()) < e; ++j) {
      const int w = (k0(rv) + j) % ncb;
      if (w_src[static_cast<std::size_t>(w)] >= 0) pos.push_back(w);
    }
    return pos;
  }

  std::vector<std::uint8_t> match(const TurboCodeword& cw, int e,
                                  int rv) const {
    const std::uint8_t* s[3] = {cw.d0.data(), cw.d1.data(), cw.d2.data()};
    std::vector<std::uint8_t> out;
    for (const int w : positions(e, rv)) {
      const int f = w_src[static_cast<std::size_t>(w)];
      out.push_back(s[f % 3][f / 3]);
    }
    return out;
  }

  void accumulate(std::span<const std::int16_t> llr, int rv,
                  std::span<std::int16_t> w_llr) const {
    const auto pos = positions(static_cast<int>(llr.size()), rv);
    for (std::size_t i = 0; i < pos.size(); ++i) {
      auto& acc = w_llr[static_cast<std::size_t>(pos[i])];
      acc = sat_add16_sym(acc, llr[i]);
    }
  }

  std::vector<std::int16_t> triples(std::span<const std::int16_t> w_llr) const {
    std::vector<std::int16_t> t(3 * static_cast<std::size_t>(k + kTurboTail));
    for (int w = 0; w < ncb; ++w) {
      const int f = w_src[static_cast<std::size_t>(w)];
      if (f < 0) continue;
      t[static_cast<std::size_t>(f)] = w_llr[static_cast<std::size_t>(w)];
    }
    return t;
  }
};

// LLRs that hit the saturation corners: extremes (INT16_MIN included)
// half the time, small values otherwise.
AlignedVector<std::int16_t> corner_llrs(std::size_t n, Xoshiro256& rng) {
  static constexpr std::int16_t kEdge[] = {INT16_MIN, -32767, -32766, -1, 0,
                                           1, 32766, 32767};
  AlignedVector<std::int16_t> v(n);
  for (auto& x : v) {
    x = rng.coin() ? kEdge[rng.bounded(std::size(kEdge))]
                   : static_cast<std::int16_t>(
                         static_cast<int>(rng.bounded(65536)) - 32768);
  }
  return v;
}

TEST(RateMatchExact, MatchesPositionReferenceForEveryK) {
  Xoshiro256 rng(2024);
  for (const int k : qpp_block_sizes()) {
    const RateMatcher rm(k);
    const RefMatcher ref(k);
    ASSERT_EQ(rm.buffer_size(), ref.ncb);
    const auto cw = turbo_encode(random_bits(static_cast<std::size_t>(k),
                                             static_cast<std::uint64_t>(k)));
    const int u = rm.usable_size();
    for (int rv = 0; rv < 4; ++rv) {
      ASSERT_EQ(rm.k0(rv), ref.k0(rv)) << "k=" << k;
      for (const int e : {1, 2, 7, u / 3, u - 1, u, u + 1, 3 * u + 5}) {
        ASSERT_EQ(rm.match(cw, e, rv), ref.match(cw, e, rv))
            << "k=" << k << " rv=" << rv << " e=" << e;
        // Accumulators start near the rails so every add saturates
        // somewhere.
        auto w = corner_llrs(static_cast<std::size_t>(ref.ncb), rng);
        auto w_ref = w;
        const auto llr = corner_llrs(static_cast<std::size_t>(e), rng);
        rm.dematch_accumulate(llr, rv, w);
        ref.accumulate(llr, rv, w_ref);
        ASSERT_EQ(w, w_ref) << "k=" << k << " rv=" << rv << " e=" << e;
        // Stale contents: every triple must be overwritten.
        AlignedVector<std::int16_t> t(
            3 * static_cast<std::size_t>(k + kTurboTail), std::int16_t{7});
        rm.buffer_to_triples_into(w, t);
        const auto t_ref = ref.triples(w_ref);
        ASSERT_TRUE(std::equal(t.begin(), t.end(), t_ref.begin(), t_ref.end()))
            << "k=" << k << " rv=" << rv << " e=" << e;
      }
    }
  }
}

TEST(RateMatchExact, AnyStreamLengthIncludingNoNulls) {
  // Legal K always leaves 4..28 nulls; other lengths reach nulls == 0,
  // where column 31's last d2 position wraps to d2[0].
  Xoshiro256 rng(5);
  for (int k = 1; k <= 160; ++k) {
    const RateMatcher rm(k);
    const RefMatcher ref(k);
    TurboCodeword cw;
    for (auto* v : {&cw.d0, &cw.d1, &cw.d2}) {
      *v = random_bits(static_cast<std::size_t>(k + kTurboTail), rng.next());
    }
    const int u = rm.usable_size();
    for (int rv = 0; rv < 4; ++rv) {
      for (const int e : {1, u / 2, u, 2 * u + 3}) {
        ASSERT_EQ(rm.match(cw, e, rv), ref.match(cw, e, rv))
            << "k=" << k << " rv=" << rv << " e=" << e;
        auto w = corner_llrs(static_cast<std::size_t>(ref.ncb), rng);
        auto w_ref = w;
        const auto llr = corner_llrs(static_cast<std::size_t>(e), rng);
        rm.dematch_accumulate(llr, rv, w);
        ref.accumulate(llr, rv, w_ref);
        ASSERT_EQ(w, w_ref) << "k=" << k << " rv=" << rv << " e=" << e;
        const auto t = rm.buffer_to_triples(w);
        const auto t_ref = ref.triples(w_ref);
        ASSERT_TRUE(std::equal(t.begin(), t.end(), t_ref.begin(), t_ref.end()))
            << "k=" << k << " rv=" << rv << " e=" << e;
      }
    }
  }
}

TEST(RateMatchExact, HarqChainMatchesPositionReference) {
  // Redundancy versions in HARQ order 0 -> 2 -> 3 -> 1 into one buffer.
  Xoshiro256 rng(77);
  for (const int k : {40, 1008, 4224, 6144}) {
    const RateMatcher rm(k);
    const RefMatcher ref(k);
    AlignedVector<std::int16_t> w(static_cast<std::size_t>(ref.ncb), 0);
    auto w_ref = w;
    for (const int rv : {0, 2, 3, 1}) {
      const auto llr = corner_llrs(
          static_cast<std::size_t>(rm.usable_size()) * 2 / 3 + 11, rng);
      rm.dematch_accumulate(llr, rv, w);
      ref.accumulate(llr, rv, w_ref);
      ASSERT_EQ(w, w_ref) << "k=" << k << " rv=" << rv;
    }
    const auto t = rm.buffer_to_triples(w);
    const auto t_ref = ref.triples(w_ref);
    EXPECT_TRUE(std::equal(t.begin(), t.end(), t_ref.begin(), t_ref.end()));
  }
}

TEST(Subblock, GeometryBasics) {
  const auto g = subblock_geometry(44);  // K=40 stream
  EXPECT_EQ(g.rows, 2);
  EXPECT_EQ(g.kp, 64);
  EXPECT_EQ(g.nulls, 20);
  const auto g2 = subblock_geometry(6148);
  EXPECT_EQ(g2.rows, 193);
  EXPECT_EQ(g2.kp, 6176);
  EXPECT_EQ(g2.nulls, 28);
}

TEST(Subblock, ColumnPermutationIsAPermutation) {
  const auto p = subblock_column_permutation();
  std::vector<int> s(p.begin(), p.end());
  std::sort(s.begin(), s.end());
  for (int i = 0; i < 32; ++i) EXPECT_EQ(s[static_cast<std::size_t>(i)], i);
}

TEST(Subblock, MapsArePermutationsOfPaddedStream) {
  for (int d : {44, 108, 516, 6148}) {
    const auto m = subblock_map(d);
    for (const auto* v : {&m.v0_src, &m.v2_src}) {
      std::vector<int> s(*v);
      std::sort(s.begin(), s.end());
      for (int i = 0; i < m.geo.kp; ++i) {
        ASSERT_EQ(s[static_cast<std::size_t>(i)], i) << "d=" << d;
      }
    }
  }
}

TEST(RateMatch, UsableSizeIsThreeD) {
  // Every non-null position appears exactly once in the circular buffer.
  const RateMatcher rm(40);
  EXPECT_EQ(rm.usable_size(), 3 * 44);
  EXPECT_EQ(rm.buffer_size(), 3 * 64);
}

TEST(RateMatch, K0DistinctPerRv) {
  const RateMatcher rm(512);
  std::vector<int> offs;
  for (int rv = 0; rv < 4; ++rv) offs.push_back(rm.k0(rv));
  std::sort(offs.begin(), offs.end());
  EXPECT_TRUE(std::adjacent_find(offs.begin(), offs.end()) == offs.end());
  EXPECT_THROW(rm.k0(4), std::invalid_argument);
}

TEST(RateMatch, FullBufferRoundTripsExactly) {
  // E = usable size at rv 0 reproduces every d-stream bit exactly once.
  const int k = 104;
  const auto bits = random_bits(static_cast<std::size_t>(k), 3);
  const auto cw = turbo_encode(bits);
  const RateMatcher rm(k);
  const int e = rm.usable_size();
  const auto tx = rm.match(cw, e, 0);
  ASSERT_EQ(tx.size(), static_cast<std::size_t>(e));

  // Soft values +-7; dematch and compare signs against the codeword.
  AlignedVector<std::int16_t> llr(tx.size());
  for (std::size_t i = 0; i < tx.size(); ++i) {
    llr[i] = tx[i] ? 7 : -7;
  }
  const auto triples = rm.dematch(llr, 0);
  ASSERT_EQ(triples.size(), static_cast<std::size_t>(3 * (k + 4)));
  for (int t = 0; t < k + 4; ++t) {
    EXPECT_EQ(triples[static_cast<std::size_t>(3 * t)] > 0, cw.d0[static_cast<std::size_t>(t)] == 1);
    EXPECT_EQ(triples[static_cast<std::size_t>(3 * t + 1)] > 0, cw.d1[static_cast<std::size_t>(t)] == 1);
    EXPECT_EQ(triples[static_cast<std::size_t>(3 * t + 2)] > 0, cw.d2[static_cast<std::size_t>(t)] == 1);
  }
}

TEST(RateMatch, RepetitionAccumulates) {
  const int k = 40;
  const auto bits = random_bits(static_cast<std::size_t>(k), 4);
  const auto cw = turbo_encode(bits);
  const RateMatcher rm(k);
  const int e = 2 * rm.usable_size();  // every bit sent twice
  const auto tx = rm.match(cw, e, 0);
  AlignedVector<std::int16_t> llr(tx.size());
  for (std::size_t i = 0; i < tx.size(); ++i) llr[i] = tx[i] ? 5 : -5;
  const auto triples = rm.dematch(llr, 0);
  // Twice-sent positions accumulate to +-10.
  for (const auto v : triples) {
    EXPECT_TRUE(v == 10 || v == -10) << v;
  }
}

TEST(RateMatch, PuncturedPositionsComeBackZero) {
  const int k = 256;
  const auto bits = random_bits(static_cast<std::size_t>(k), 5);
  const auto cw = turbo_encode(bits);
  const RateMatcher rm(k);
  const int e = rm.usable_size() / 3;  // high rate: 2/3 of bits punctured
  const auto tx = rm.match(cw, e, 0);
  AlignedVector<std::int16_t> llr(tx.size());
  for (std::size_t i = 0; i < tx.size(); ++i) llr[i] = tx[i] ? 9 : -9;
  const auto triples = rm.dematch(llr, 0);
  const auto zeros = std::count(triples.begin(), triples.end(), 0);
  EXPECT_EQ(zeros, static_cast<long>(triples.size()) - e);
}

TEST(RateMatch, HarqCombiningAcrossRvs) {
  const int k = 512;
  const auto bits = random_bits(static_cast<std::size_t>(k), 6);
  const auto cw = turbo_encode(bits);
  const RateMatcher rm(k);
  const int e = rm.usable_size() / 2;

  AlignedVector<std::int16_t> w(static_cast<std::size_t>(rm.buffer_size()), 0);
  for (int rv : {0, 2}) {
    const auto tx = rm.match(cw, e, rv);
    AlignedVector<std::int16_t> llr(tx.size());
    for (std::size_t i = 0; i < tx.size(); ++i) llr[i] = tx[i] ? 6 : -6;
    rm.dematch_accumulate(llr, rv, w);
  }
  const auto triples = rm.buffer_to_triples(w);
  // With two half-buffer transmissions at different offsets, most
  // positions are covered; verify no sign contradicts the codeword.
  int covered = 0;
  const std::uint8_t* streams[3] = {cw.d0.data(), cw.d1.data(), cw.d2.data()};
  for (std::size_t i = 0; i < triples.size(); ++i) {
    if (triples[i] == 0) continue;
    ++covered;
    const auto bit = streams[i % 3][i / 3];
    EXPECT_EQ(triples[i] > 0, bit == 1) << i;
  }
  EXPECT_GT(covered, static_cast<int>(triples.size() / 2));
}

TEST(RateMatch, HarqAccumulateThenNegationCancelsExactly) {
  // Unbiased soft combining: transmitting x and then -x at the same rv
  // must leave every buffer position exactly 0 — including extreme
  // values, where an asymmetric (paddsw-style) accumulator would pin at
  // INT16_MIN and never cancel.
  const int k = 256;
  const RateMatcher rm(k);
  const int e = rm.usable_size();
  Xoshiro256 rng(11);
  AlignedVector<std::int16_t> llr(static_cast<std::size_t>(e));
  for (auto& v : llr) {
    // Bias the draw toward the extremes to stress the clamp.
    const auto r = rng.next();
    if ((r & 7u) == 0) {
      v = (r & 8u) ? std::int16_t{-32768} : std::int16_t{32767};
    } else {
      v = static_cast<std::int16_t>(r);
    }
  }
  AlignedVector<std::int16_t> w(static_cast<std::size_t>(rm.buffer_size()),
                                0);
  rm.dematch_accumulate(llr, 0, w);
  // Negate what the buffer actually holds: INT16_MIN inputs clamp to
  // -32767 on the way in, so the stored value is always negatable.
  AlignedVector<std::int16_t> neg(llr.size());
  for (std::size_t i = 0; i < llr.size(); ++i) {
    const std::int16_t stored =
        llr[i] == -32768 ? std::int16_t{-32767} : llr[i];
    neg[i] = static_cast<std::int16_t>(-stored);
  }
  rm.dematch_accumulate(neg, 0, w);
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_EQ(w[i], 0) << i;
}

TEST(RateMatch, InputValidation) {
  const RateMatcher rm(40);
  TurboCodeword bad;
  bad.d0.resize(44);
  bad.d1.resize(44);
  bad.d2.resize(43);
  EXPECT_THROW(rm.match(bad, 100, 0), std::invalid_argument);
  const auto cw = turbo_encode(random_bits(40, 1));
  EXPECT_THROW(rm.match(cw, 0, 0), std::invalid_argument);
  AlignedVector<std::int16_t> w(10);
  AlignedVector<std::int16_t> llr(5);
  EXPECT_THROW(rm.dematch_accumulate(llr, 0, w), std::invalid_argument);
}

TEST(RateMatch, WrapLoopBoundRejectsAbsurdE) {
  // Regression: match()/dematch_accumulate() previously ran an unbounded
  // wrap loop over the circular buffer — an absurd E (corrupted DCI,
  // fuzzers) spun essentially forever. Both paths now refuse E beyond
  // kMaxRepetition circles, and succeed right at the cap.
  const int k = 40;
  const RateMatcher rm(k);
  const int usable = rm.usable_size();
  const auto cw = turbo_encode(random_bits(static_cast<std::size_t>(k), 3));

  const int at_cap = RateMatcher::kMaxRepetition * usable;
  EXPECT_EQ(rm.match(cw, at_cap, 0).size(),
            static_cast<std::size_t>(at_cap));
  EXPECT_THROW(rm.match(cw, at_cap + 1, 0), std::invalid_argument);

  AlignedVector<std::int16_t> w(static_cast<std::size_t>(rm.buffer_size()),
                                0);
  AlignedVector<std::int16_t> ok(static_cast<std::size_t>(at_cap),
                                 std::int16_t{1});
  rm.dematch_accumulate(ok, 0, w);  // at the cap: must complete
  AlignedVector<std::int16_t> over(static_cast<std::size_t>(at_cap) + 1,
                                   std::int16_t{1});
  EXPECT_THROW(rm.dematch_accumulate(over, 0, w), std::invalid_argument);
}

TEST(RateMatch, ManyCircleRepetitionCombinesEvenly) {
  // Property: when E is many times the circular-buffer usable size, every
  // usable position is emitted either floor(E/usable) or floor+1 times,
  // and soft-combining the repeated LLRs accumulates exactly that
  // multiple per position — for every redundancy version.
  const int k = 40;
  const RateMatcher rm(k);
  const int usable = rm.usable_size();
  const auto bits = random_bits(static_cast<std::size_t>(k), 17);
  const auto cw = turbo_encode(bits);
  const std::uint8_t* streams[3] = {cw.d0.data(), cw.d1.data(), cw.d2.data()};

  for (int rv = 0; rv < 4; ++rv) {
    const int e = 10 * usable + 17;  // E >> ncb, not circle-aligned
    const auto tx = rm.match(cw, e, rv);
    ASSERT_EQ(tx.size(), static_cast<std::size_t>(e));

    constexpr std::int16_t amp = 3;
    AlignedVector<std::int16_t> llr(tx.size());
    for (std::size_t i = 0; i < tx.size(); ++i) {
      llr[i] = tx[i] ? amp : static_cast<std::int16_t>(-amp);
    }
    const auto triples = rm.dematch(llr, rv);

    const int lo = e / usable;
    int extras = 0;
    for (std::size_t i = 0; i < triples.size(); ++i) {
      const bool bit = streams[i % 3][i / 3] == 1;
      const int reps = (bit ? triples[i] : -triples[i]) / amp;
      ASSERT_EQ(reps * amp, bit ? triples[i] : -triples[i])
          << "rv=" << rv << " i=" << i;
      ASSERT_TRUE(reps == lo || reps == lo + 1)
          << "rv=" << rv << " i=" << i << " reps=" << reps;
      extras += (reps == lo + 1);
    }
    EXPECT_EQ(extras, e % usable) << "rv=" << rv;
  }
}

}  // namespace
}  // namespace vran::phy
