// End-to-end vRAN pipelines (the paper's Figure 1 path).
//
// Uplink: UE-side encode (MAC PDU -> TB CRC -> segmentation -> turbo ->
// rate matching -> scrambling -> modulation -> OFDM) -> AWGN channel ->
// eNB-side decode (OFDM -> soft demap -> descramble -> de-rate-match ->
// *data arrangement* -> turbo decode -> desegmentation -> MAC parse) ->
// GTP-U encapsulation toward the EPC. Downlink runs the same chain in
// the opposite direction plus a DCI grant per TTI.
//
// Every stage is timed into a named accumulator so the benches can
// reproduce the paper's per-module CPU-share figures, and the turbo
// decoder's data-arrangement mechanism is taken from the config — the
// APCM-vs-extract comparison of Figs. 13/14 is a one-field change.
#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arrange/arrange.h"
#include "common/cpu_features.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "mac/mac_pdu.h"
#include "mac/tbs_tables.h"
#include "phy/channel/channel.h"
#include "phy/dci/dci.h"
#include "phy/modulation/modulation.h"
#include "phy/ofdm/ofdm.h"
#include "phy/ratematch/rate_match.h"
#include "phy/scramble/scrambler.h"
#include "phy/segmentation/segmentation.h"
#include "phy/turbo/turbo_decoder.h"
#include "pipeline/decode_scheduler.h"
#include "pipeline/workspace.h"

namespace vran::pipeline {

struct PipelineConfig {
  /// Default sized so a 1500-byte packet fits one 25-PRB transport block.
  int mcs = 20;
  int max_prb = 25;  ///< 5 MHz carrier
  double snr_db = 18.0;
  IsaLevel isa = IsaLevel::kSse41;
  arrange::Method arrange_method = arrange::Method::kApcm;
  /// Offer a multi-block TB's code blocks to the decode scheduler for
  /// batched decoding across SIMD lanes — one whole trellis per 8-state
  /// lane group (see phy/turbo/turbo_batch.h) — instead of
  /// window-splitting each block. The scheduler groups same-K blocks
  /// across every TB it is given in one run: one TB under send_packet,
  /// all flows' TBs (across UEs) under BatchRunner. Offered only when
  /// `isa` is AVX2 or wider. Independently of this flag the scheduler
  /// routes blocks too short for windowed decoding (K < 512 at AVX2,
  /// K < 1024 at AVX-512) to the batched kernel, single-block TBs
  /// included. Exact per-lane boundary metrics make the batched wide
  /// tiers bit-identical to single-block SSE decoding.
  bool batch_decode = true;
  std::uint16_t rnti = 0x1234;
  int cell_id = 1;
  std::uint32_t teid = 0xAB;
  int max_turbo_iterations = 6;
  /// HARQ: maximum transmissions per transport block (1 = no
  /// retransmission). Retransmissions cycle redundancy versions
  /// 0 -> 2 -> 3 -> 1 and soft-combine in the circular buffer.
  int harq_max_tx = 1;
  bool with_channel = true;   ///< false = wire the samples straight through
  std::uint64_t noise_seed = 99;
  phy::OfdmConfig ofdm;
  /// Worker threads for the per-code-block decode chain (de-rate-match ->
  /// data arrangement -> turbo decode). 1 = the legacy single-threaded
  /// path, bit-exact with previous releases; N > 1 decodes up to N code
  /// blocks concurrently and produces bit-identical egress/crc_ok (per-
  /// block decoding is deterministic; only the timing attribution is
  /// gathered per block and merged at the join).
  int num_workers = 1;
  /// Bound for each codec LRU map in the pipeline's workspace (distinct
  /// K values / decoder specs kept warm; see workspace.h). Traffic over
  /// more distinct sizes evicts and reconstructs instead of growing
  /// without bound.
  std::size_t codec_cache_capacity = 8;
  /// Metrics sink: every stage feeds a latency histogram
  /// ("stage.<name>_ns") alongside its StageTimes accumulator, and the
  /// pipeline records per-packet counters/histograms ("pipeline.*").
  /// Defaults to the process-wide registry; point at a private registry
  /// to isolate one run's distributions, or nullptr to disable.
  obs::MetricsRegistry* metrics = &obs::MetricsRegistry::global();
  /// Span recorder for chrome://tracing export; nullptr = tracing off.
  obs::TraceRecorder* trace = nullptr;
  /// Hardware PMU attribution (see obs/pmu.h): bracket every stage with
  /// a counter-group scope folding "pmu.stage.<name>.*" counters into
  /// `metrics` (cycles, instructions, L1D accesses, topdown slots where
  /// the CPU exposes them), and have decode workers attribute their
  /// share as "threadpool.pmu.*.w<id>". Availability is exported as the
  /// "pmu.available"/"pmu.topdown" gauges; on hosts where
  /// perf_event_open is refused (or under VRAN_PMU=off) everything
  /// degrades to a deterministic no-op and the counters stay absent.
  /// Off by default: the stage scopes then carry zero PMU overhead.
  bool pmu = false;
  /// Fault injector (see fault/fault.h); nullptr = no faults. Armed
  /// points hit the receive chain (LLR saturate/sign-flip bursts ahead
  /// of the data arrangement, forced turbo early-stop miss), the egress
  /// GTP-U frame, and the decode worker pool. Draws are keyed by
  /// (rnti, tti, rv, block), so fault sequences — and therefore egress —
  /// are identical across reruns and worker counts.
  fault::FaultInjector* fault = nullptr;
};

/// Every timed pipeline stage, transmit-to-receive order. Adding a
/// stage takes one value here and one kStageNames row; StageTimes, the
/// stage histograms, PMU counters, trace spans and flight-recorder slots
/// are all indexed by it.
enum class Stage : std::uint8_t {
  kMac,
  kCrcSegmentation,
  kTurboEncode,
  kRateMatch,
  kScramble,
  kModulation,
  kOfdmTx,
  kChannel,
  kOfdmRx,
  kDemodulation,
  kDescramble,
  kRateDematch,
  kArrange,      ///< the paper's data-arrangement process
  kTurboDecode,  ///< MAP iterations (excl. arrangement)
  kDesegmentation,
  kGtpu,
  kDci,
  kCount,
};
inline constexpr std::size_t kNumStages =
    static_cast<std::size_t>(Stage::kCount);

/// A stage's names: `display` labels StageTimes::entries() (the rows of
/// the paper's Figs. 3/4); `metric` names its "stage.<metric>_ns"
/// histogram, "pmu.stage.<metric>.*" counters and trace spans.
struct StageName {
  const char* display;
  const char* metric;
};

/// One row per Stage, in enum order.
inline constexpr StageName kStageNames[] = {
    {"MAC", "mac"},
    {"CRC+segmentation", "crc_segmentation"},
    {"Turbo encoding", "turbo_encode"},
    {"Rate matching", "rate_match"},
    {"Scrambling", "scramble"},
    {"Modulation", "modulation"},
    {"OFDM (tx)", "ofdm_tx"},
    {"Channel", "channel"},
    {"OFDM (rx)", "ofdm_rx"},
    {"Demodulation", "demodulation"},
    {"Descrambling", "descramble"},
    {"Rate dematch", "rate_dematch"},
    {"Data arrangement", "arrange"},
    {"Turbo decoding", "turbo_decode"},
    {"Desegmentation", "desegmentation"},
    {"GTP-U", "gtpu"},
    {"DCI", "dci"},
};
static_assert(std::size(kStageNames) == kNumStages,
              "one kStageNames row per Stage");

constexpr const StageName& stage_name(Stage s) {
  return kStageNames[static_cast<std::size_t>(s)];
}
/// "stage.<metric>_ns": the stage's latency histogram.
std::string stage_histogram(Stage s);
/// "pmu.stage.<metric>.": prefix of the stage's PMU counters.
std::string stage_pmu_prefix(Stage s);

/// Per-stage CPU-time accumulators, indexed by Stage.
///
/// Thread-safety contract: NOT internally synchronized. The parallel
/// decode path never writes a shared StageTimes from workers; each work
/// item records into its own slot and the caller folds the slots in with
/// merge()/TimeAccumulator::merge after the join, so totals are
/// deterministic and identical for any worker count.
class StageTimes {
 public:
  TimeAccumulator& operator[](Stage s) {
    return acc_[static_cast<std::size_t>(s)];
  }
  const TimeAccumulator& operator[](Stage s) const {
    return acc_[static_cast<std::size_t>(s)];
  }

  struct Entry {
    std::string name;
    double seconds;
  };
  /// Non-zero stages by display name, in Stage order.
  std::vector<Entry> entries() const;
  void reset();
  /// Fold another StageTimes into this one, stage by stage (join-side
  /// aggregation for per-worker/per-flow accumulators).
  void merge(const StageTimes& other);

 private:
  std::array<TimeAccumulator, kNumStages> acc_;
};

namespace detail {
/// Resolved metric handles (per-stage histograms and PMU counters,
/// packet counters) — internal to pipeline.cc; owned per pipeline so name
/// lookups happen once at construction.
struct PipelineObs;
/// In-flight staged-TTI state (see UplinkPipeline::tti_begin) —
/// internal to pipeline.cc.
struct UplinkTti;
}  // namespace detail

struct PacketResult {
  bool delivered = false;
  bool crc_ok = false;
  int transmissions = 0;  ///< HARQ attempts used
  int turbo_iterations = 0;
  double latency_seconds = 0;      ///< whole-pipeline processing time
  double channel_seconds = 0;      ///< synthetic-channel share (testbed
                                   ///< artifact, not vRAN processing)
  double arrange_seconds = 0;      ///< data-arrangement share
  std::size_t tb_bytes = 0;
  std::size_t code_blocks = 0;
  /// Heap allocations observed across the decode chain (OFDM rx through
  /// desegmentation), summed over HARQ transmissions. 0 in the steady
  /// state once the workspace arena and codec caches are warm. Only
  /// meaningful when the counting allocator is linked (see
  /// common/alloc_stats.h); otherwise stays 0.
  std::uint64_t decode_allocs = 0;
  /// Uplink: the GTP-U packet handed to the EPC; downlink: the IP packet
  /// handed to the UE.
  std::vector<std::uint8_t> egress;
};

class UplinkPipeline {
 public:
  explicit UplinkPipeline(PipelineConfig cfg);
  ~UplinkPipeline();

  const PipelineConfig& config() const { return cfg_; }
  StageTimes& times() { return times_; }
  const StageTimes& times() const { return times_; }
  /// Arena + codec caches backing the decode hot path (inspectable for
  /// tests/benches: arena high-water, cache sizes, evictions).
  const PipelineWorkspace& workspace() const { return ws_; }

  /// Carry one IP packet UE -> eNB -> EPC. Transport-block geometry is
  /// derived from the packet size and the configured MCS. Exactly the
  /// staged-TTI sequence below, driven with the pipeline's own decode
  /// scheduler (per-TB grouping).
  PacketResult send_packet(std::span<const std::uint8_t> ip_packet);

  /// --- Staged TTI API -------------------------------------------------
  /// Splits one packet's HARQ loop into phases so a caller (BatchRunner)
  /// can interleave MANY flows' phases around one shared DecodeScheduler
  /// and batch same-K code blocks across transport blocks/UEs:
  ///
  ///   tti_begin(pkt);                       // MAC + segment + encode
  ///   while (!tti_done()) {
  ///     tti_transmit();                     // tx chain + channel +
  ///                                         //   receive front (OFDM rx
  ///                                         //   .. arrangement)
  ///     sched.submit(pending_jobs());       // <- cross-flow gathering
  ///     sched.run(...);                     // (caller-owned)
  ///     tti_collect();                      // desegment + TB CRC,
  ///                                         //   advance HARQ state
  ///   }
  ///   PacketResult r = tti_finish();        // MAC parse + GTP-U
  ///
  /// One packet may be staged at a time per pipeline. latency_seconds
  /// accumulates the flow's own phase wall times (the shared decode
  /// window is attributed by the caller via tti_add_latency).
  void tti_begin(std::span<const std::uint8_t> ip_packet);
  bool tti_done() const;
  void tti_transmit();
  /// Decode jobs produced by the last tti_transmit(); spans stay valid
  /// until this pipeline's next tti_begin().
  std::span<const DecodeJob> pending_jobs() const { return jobs_; }
  void tti_collect();
  PacketResult tti_finish();
  /// Fold a share of caller-side work (the shared scheduler's wall time
  /// / heap allocations) into the staged packet's result.
  void tti_add_latency(double seconds);
  void tti_add_decode_allocs(std::uint64_t allocs);

  /// Degrade knob for deadline scheduling (see pipeline/cell_shard.h):
  /// override the configured HARQ transmission budget and turbo
  /// iteration cap. Values clamp to >= 1; takes effect at the next
  /// tti_begin(). Throws std::logic_error while a packet is staged —
  /// changing quality mid-HARQ-loop would make tti_done() inconsistent.
  void set_quality(int harq_max_tx, int max_turbo_iterations);

 private:
  friend class DownlinkPipeline;
  /// The downlink runs these same packet phases (see DownlinkPipeline).
  /// Its differences from the uplink are confined to them: MAC LCID 2, a
  /// DCI grant ahead of the data, one transmission at rv 0 (no HARQ), the
  /// channel seeded noise_seed + 1, and the SDU itself as egress instead
  /// of a GTP-U frame.
  UplinkPipeline(PipelineConfig cfg, bool downlink);

  PipelineConfig cfg_;
  const bool downlink_;
  StageTimes times_;
  phy::OfdmModulator ofdm_;
  phy::AwgnChannel channel_;
  std::unique_ptr<ThreadPool> pool_;  ///< nullptr when num_workers <= 1
  std::unique_ptr<detail::PipelineObs> obs_;
  PipelineWorkspace ws_;
  std::unique_ptr<DecodeScheduler> sched_;  ///< per-TB mode (send_packet)
  std::vector<DecodeJob> jobs_;  ///< decode-front output, reused per TTI
  std::unique_ptr<detail::UplinkTti> state_;
  std::uint32_t tti_ = 0;
};

/// Downlink: eNB encodes (with a DCI grant), UE decodes, through the
/// uplink's packet phases run in the downlink direction.
class DownlinkPipeline {
 public:
  explicit DownlinkPipeline(PipelineConfig cfg);

  const PipelineConfig& config() const { return link_.config(); }
  StageTimes& times() { return link_.times(); }
  const StageTimes& times() const { return link_.times(); }
  const PipelineWorkspace& workspace() const { return link_.workspace(); }

  PacketResult send_packet(std::span<const std::uint8_t> ip_packet) {
    return link_.send_packet(ip_packet);
  }

 private:
  UplinkPipeline link_;
};

/// Time-domain SNR that yields `snr_db` per resource element after the
/// receive FFT (forward FFT gain = nfft with this library's conventions).
double time_domain_snr_db(double snr_db, int nfft);

}  // namespace vran::pipeline
