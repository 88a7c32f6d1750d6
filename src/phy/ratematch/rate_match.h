// 3GPP TS 36.212 §5.1.4.1 rate matching for turbo-coded transport
// channels: per-stream sub-block interleaving, bit collection into the
// circular buffer, and bit selection/pruning; plus the receiver-side
// inverse that soft-combines repeated bits and emits the decoder's
// triple-interleaved LLR stream.
//
// The de-rate-matcher deliberately produces the (d0,d1,d2)-interleaved
// int16 stream of length 3*(K+4): that is the exact input format of the
// turbo decoder's *data arrangement* step the paper studies — the stage
// boundary where APCM operates.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "phy/turbo/turbo_encoder.h"

namespace vran::phy {

/// Sub-block interleaver geometry for a stream of D bits.
struct SubblockGeometry {
  int d = 0;        ///< input length (K + 4)
  int rows = 0;     ///< R_subblock
  int kp = 0;       ///< 32 * rows (padded length)
  int nulls = 0;    ///< kp - d dummy positions
};
SubblockGeometry subblock_geometry(int d);

/// The inter-column permutation pattern (36.212 Table 5.1.4-1).
std::span<const int> subblock_column_permutation();

/// Rate matcher for one code block; reusable across calls of equal K.
class RateMatcher {
 public:
  /// `k` is the turbo block size (streams are K + 4 long).
  explicit RateMatcher(int k);

  int block_size() const { return k_; }
  /// Circular-buffer length K_w = 3 * K_pi.
  int buffer_size() const { return 3 * geo_.kp; }
  /// buffer_size() for block size `k` without constructing a matcher —
  /// lets callers size HARQ/workspace buffers up front.
  static int buffer_size_for(int k);
  /// Number of non-null positions in the circular buffer.
  int usable_size() const;

  /// Starting offset k0 for redundancy version rv (0..3).
  int k0(int rv) const;

  /// Encode side: select `e` output bits for redundancy version `rv` from
  /// a turbo codeword.
  std::vector<std::uint8_t> match(const TurboCodeword& cw, int e,
                                  int rv = 0) const;

  /// Receiver side: soft-combine `e` LLRs (the output of the demapper)
  /// back into d-stream LLR triples [d0_k d1_k d2_k ...], length 3*(K+4).
  /// Repeated positions accumulate with int16 saturation. LLRs at
  /// punctured (never-sent) positions come out as 0.
  AlignedVector<std::int16_t> dematch(std::span<const std::int16_t> llr,
                                      int rv = 0) const;

  /// In-place variant accumulating into an existing buffer (HARQ-style
  /// combining across retransmissions). `w_llr` must be buffer_size().
  /// Accumulation clamps symmetrically to ±32767 (sat_add16_sym) so
  /// combining x then -x always cancels back to 0 — INT16_MIN is never
  /// stored, keeping repeated retransmissions and sign-flip faults
  /// unbiased.
  void dematch_accumulate(std::span<const std::int16_t> llr, int rv,
                          std::span<std::int16_t> w_llr) const;

  /// Convert an accumulated circular buffer into the decoder triple
  /// stream.
  AlignedVector<std::int16_t> buffer_to_triples(
      std::span<const std::int16_t> w_llr) const;

  /// Allocation-free variant writing into caller-provided storage;
  /// `triples.size()` must be exactly 3 * (K + 4).
  void buffer_to_triples_into(std::span<const std::int16_t> w_llr,
                              std::span<std::int16_t> triples) const;

  /// Hard ceiling on circular-buffer repetition: match()/dematch paths
  /// refuse E > kMaxRepetition * usable_size() as a corrupted grant.
  /// 36.212 practice is E <= ~3 circles; 64 leaves headroom for stress.
  static constexpr int kMaxRepetition = 64;

 private:
  /// A stretch of consecutive non-null circular-buffer positions
  /// [w, w + n), all inside one sub-block column. Position w + i holds
  /// flat d-stream index (3 * p + stream) flat + step * (i / 2) +
  /// odd * (i % 2): step 192 / odd 96 for one stream, step 96 / odd 4 for
  /// the interlaced (d1, d2) pairs.
  struct Run {
    std::int32_t w, n, flat, step, odd;
  };

  int k_;
  SubblockGeometry geo_;
  std::vector<Run> runs_;  ///< in buffer order; at most 66
};

}  // namespace vran::phy
