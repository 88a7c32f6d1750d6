#include "phy/ratematch/rate_match.h"

#include <emmintrin.h>

#include <algorithm>
#include <array>
#include <stdexcept>

#include "common/saturate.h"

namespace vran::phy {

namespace {

// 36.212 Table 5.1.4-1 inter-column permutation for turbo-coded channels.
constexpr std::array<int, 32> kColPerm = {
    0, 16, 8,  24, 4, 20, 12, 28, 2, 18, 10, 26, 6, 22, 14, 30,
    1, 17, 9,  25, 5, 21, 13, 29, 3, 19, 11, 27, 7, 23, 15, 31};

// w[i] = sat_add16_sym(w[i], x[i]). paddsw clamps to [-32768, 32767];
// the max with -32767 lifts the one value sat_add16_sym never yields,
// so the pair equals it for every int16 input.
void accumulate_sym(std::int16_t* w, const std::int16_t* x, std::size_t n) {
  const __m128i floor = _mm_set1_epi16(-32767);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    auto* const acc = reinterpret_cast<__m128i*>(w + i);
    const __m128i s = _mm_adds_epi16(
        _mm_loadu_si128(acc),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i)));
    _mm_storeu_si128(acc, _mm_max_epi16(s, floor));
  }
  for (; i < n; ++i) w[i] = sat_add16_sym(w[i], x[i]);
}

// Calls fn(run, off, n, done) over `count` consecutive non-null buffer
// positions from position `start`, wrapping as often as needed: the
// run's positions [w + off, w + off + n) are the done-th onwards.
template <class Run, class Fn>
void walk(const std::vector<Run>& runs, int start, std::size_t count,
          Fn&& fn) {
  // First run ending after `start`; a start inside a run begins mid-run.
  auto it = std::find_if(runs.begin(), runs.end(),
                         [start](const Run& r) { return r.w + r.n > start; });
  int off = it == runs.end() ? 0 : std::max(start - it->w, 0);
  if (it == runs.end()) it = runs.begin();
  for (std::size_t done = 0; done < count;) {
    const std::size_t n =
        std::min(static_cast<std::size_t>(it->n - off), count - done);
    fn(*it, off, n, done);
    done += n;
    off = 0;
    if (++it == runs.end()) it = runs.begin();
  }
}

}  // namespace

std::span<const int> subblock_column_permutation() { return kColPerm; }

SubblockGeometry subblock_geometry(int d) {
  if (d <= 0) throw std::invalid_argument("subblock_geometry: d <= 0");
  SubblockGeometry g;
  g.d = d;
  g.rows = (d + 31) / 32;
  g.kp = 32 * g.rows;
  g.nulls = g.kp - d;
  return g;
}

RateMatcher::RateMatcher(int k)
    : k_(k), geo_(subblock_geometry(k + kTurboTail)) {
  // Nulls are y < nulls < 32, so only row 0 of a column can hold one and
  // each column is one run. Stream s's y has flat index 3 * (y - nulls) + s.
  const int rows = geo_.rows, nulls = geo_.nulls;
  int covered = 0;
  const auto add = [&](int w, int n, int flat, bool pairs) {
    if (n > 0) runs_.push_back({w, n, flat, pairs ? 96 : 192, pairs ? 4 : 96});
    covered += n;
  };
  // Section 0, w = c * R + r: v0 column c reads y = 32 r + P[c].
  for (int c = 0; c < 32; ++c) {
    const int col = kColPerm[static_cast<std::size_t>(c)];
    const int r0 = col < nulls;
    add(c * rows + r0, rows - r0, 3 * (32 * r0 + col - nulls), false);
  }
  // Section 1, w = kp + 2 t (v1) and kp + 2 t + 1 (v2), t = c * R + r:
  // v1 reads y = 32 r + P[c], v2 reads y + 1 (flat + 4) — except that
  // column 31's last v2 wraps to y = 0, and at P[c] + 1 == nulls row 0's
  // v2 (d2[0]) stands alone after a null v1.
  for (int c = 0; c < 32; ++c) {
    const int col = kColPerm[static_cast<std::size_t>(c)];
    const int w = geo_.kp + 2 * c * rows;
    if (col + 1 == nulls) add(w + 1, 1, 2, false);
    const int r0 = col < nulls, wraps = col == 31;
    add(w + 2 * r0, 2 * (rows - r0) - wraps,
        3 * (32 * r0 + col - nulls) + 1, true);
    if (wraps && nulls == 0) add(w + 2 * rows - 1, 1, 2, false);
  }
  if (covered != usable_size()) {
    throw std::logic_error("RateMatcher: run table does not cover 3*(K+4)");
  }
}

int RateMatcher::buffer_size_for(int k) {
  return 3 * subblock_geometry(k + kTurboTail).kp;
}

int RateMatcher::usable_size() const { return 3 * geo_.d; }

int RateMatcher::k0(int rv) const {
  if (rv < 0 || rv > 3) throw std::invalid_argument("rv out of range");
  const int R = geo_.rows;
  const int ncb = 3 * geo_.kp;
  return R * (2 * ((ncb + 8 * R - 1) / (8 * R)) * rv + 2);
}

std::vector<std::uint8_t> RateMatcher::match(const TurboCodeword& cw, int e,
                                             int rv) const {
  const std::size_t d = static_cast<std::size_t>(k_) + kTurboTail;
  if (cw.d0.size() != d || cw.d1.size() != d || cw.d2.size() != d) {
    throw std::invalid_argument("RateMatcher::match: codeword size mismatch");
  }
  if (e <= 0) throw std::invalid_argument("RateMatcher::match: e <= 0");
  // E beyond the cap can only come from a corrupted grant.
  if (e > kMaxRepetition * usable_size()) {
    throw std::invalid_argument(
        "RateMatcher::match: e exceeds repetition cap");
  }
  std::vector<std::uint8_t> out(static_cast<std::size_t>(e));
  const std::uint8_t* streams[3] = {cw.d0.data(), cw.d1.data(), cw.d2.data()};
  walk(runs_, k0(rv), out.size(),
       [&](const Run& r, int off, std::size_t n, std::size_t done) {
         // Mirror of buffer_to_triples_into, in stream units.
         const int b0 = r.flat / 3, b1 = (r.flat + r.odd) / 3, st = r.step / 3;
         const std::uint8_t* s0 = streams[r.flat % 3];
         const std::uint8_t* s1 = streams[(r.flat + r.odd) % 3];
         std::uint8_t* o = out.data() + done;
         std::size_t i = 0;
         int p = st * (off / 2);
         if (off % 2) o[i++] = s1[b1 + p], p += st;
         for (; i + 1 < n; i += 2, p += st) {
           o[i] = s0[b0 + p];
           o[i + 1] = s1[b1 + p];
         }
         if (i < n) o[i] = s0[b0 + p];
       });
  return out;
}

void RateMatcher::dematch_accumulate(std::span<const std::int16_t> llr,
                                     int rv,
                                     std::span<std::int16_t> w_llr) const {
  if (w_llr.size() != static_cast<std::size_t>(buffer_size())) {
    throw std::invalid_argument("dematch_accumulate: w_llr size mismatch");
  }
  // Mirror of match()'s cap: a longer input means a corrupted E.
  if (llr.size() > std::size_t{kMaxRepetition} * std::size_t(usable_size())) {
    throw std::invalid_argument(
        "dematch_accumulate: llr length exceeds repetition cap");
  }
  walk(runs_, k0(rv), llr.size(),
       [&](const Run& r, int off, std::size_t n, std::size_t done) {
         accumulate_sym(w_llr.data() + r.w + off, llr.data() + done, n);
       });
}

AlignedVector<std::int16_t> RateMatcher::buffer_to_triples(
    std::span<const std::int16_t> w_llr) const {
  const std::size_t d = static_cast<std::size_t>(k_) + kTurboTail;
  AlignedVector<std::int16_t> triples(3 * d, 0);
  buffer_to_triples_into(w_llr, triples);
  return triples;
}

void RateMatcher::buffer_to_triples_into(
    std::span<const std::int16_t> w_llr,
    std::span<std::int16_t> triples) const {
  if (w_llr.size() != static_cast<std::size_t>(buffer_size())) {
    throw std::invalid_argument("buffer_to_triples: size mismatch");
  }
  if (triples.size() != static_cast<std::size_t>(usable_size())) {
    throw std::invalid_argument("buffer_to_triples: triples size mismatch");
  }
  // The runs cover every flat index exactly once, so no pre-fill.
  for (const Run& r : runs_) {
    const std::int16_t* src = w_llr.data() + r.w;
    std::int16_t* dst = triples.data() + r.flat;
    for (int i = 0; i + 1 < r.n; i += 2, dst += r.step) {
      dst[0] = src[i];
      dst[r.odd] = src[i + 1];
    }
    if (r.n % 2) dst[0] = src[r.n - 1];
  }
}

AlignedVector<std::int16_t> RateMatcher::dematch(
    std::span<const std::int16_t> llr, int rv) const {
  AlignedVector<std::int16_t> w(static_cast<std::size_t>(buffer_size()), 0);
  dematch_accumulate(llr, rv, w);
  return buffer_to_triples(w);
}

}  // namespace vran::phy
