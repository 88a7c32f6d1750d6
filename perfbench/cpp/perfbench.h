// Shared pieces of the receiver benchmark (README.md): run arguments,
// the result record every workload fills, timing/CPU/RSS helpers, seeded
// input generation, span recording, and the kernel pass.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test hook ("corrupt_egress" | "break_conservation"): deliberately
  /// breaks one output check so the benchmark's own test can show the
  /// check fires. Empty in real runs.
  std::string inject;
  std::string out_dir;  ///< trace + result files; empty = none written
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run produced. `e2e` is printed for --trace 0,
/// `layer` for --trace 1; `notes` are human-readable lines (sample
/// counts, reconciliation) printed ahead of the result line.
struct Result {
  bool correct = true;
  /// false when the open-loop generator, not the program, fell behind:
  /// the measurement is not trustworthy, so no result is printed
  /// (outputs were still checked).
  bool valid = true;
  std::uint64_t attempted = 0;  ///< packets offered
  /// Offered packets the program lost or corrupted: a good-CRC packet
  /// missing or egressed with wrong bytes, or a packet conservation does
  /// not account for. Each one fails an output check, so a correct run
  /// reports 0. Decode CRC failures, door drops and packets of dropped
  /// TTIs are the program's measured fail rate (the report's `fail_rate`
  /// line and per-layer metric), not lost packets: they vary with the
  /// run's length and timing.
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> notes;
  std::vector<std::string> errors;  ///< failed output checks

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
  /// Output check counted in packets: `lost` > 0 fails the run.
  void lose(std::uint64_t lost, const std::string& what) {
    failed += lost;
    check(lost == 0, what);
  }
  void note(const std::string& line) { notes.push_back(line); }
};

// --- Timing -------------------------------------------------------------

double now_s();           ///< steady clock, seconds
double process_cpu_s();   ///< CLOCK_PROCESS_CPUTIME_ID
double thread_cpu_s();    ///< CLOCK_THREAD_CPUTIME_ID of the caller
double peak_rss_mb();     ///< getrusage ru_maxrss
/// utime+stime of every task in /proc/self/task, by tid.
std::vector<std::pair<int, double>> task_cpu_s();
int current_tid();

/// Median and the 99th percentile (nearest rank) of `v` (sorted in
/// place), with how many samples lie beyond the p99 — the percentile is
/// only trusted with at least ten.
struct Quantiles {
  double p50 = 0, p99 = 0;
  std::size_t n = 0, beyond_p99 = 0;
};
Quantiles quantiles(std::vector<double>& v);
double median(std::vector<double> v);

/// "name p50=.. p99=.. (n=.., k beyond p99)" with a warning when the
/// tail is thinner than ten samples.
std::string describe(const char* name, const Quantiles& q, double scale,
                     const char* unit);

// --- Inputs -------------------------------------------------------------

/// Independent, reproducible stream for (seed, a, b).
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

/// One UDP/IPv4 packet of exactly `bytes` on the wire, payload bytes
/// drawn from `rng`. Distinct per flow by source port.
std::vector<std::uint8_t> make_packet(int bytes, int flow,
                                      vran::Xoshiro256& rng);

/// Uplink flow configuration shared by every workload: MCS 20, 25 PRB,
/// 18 dB, host's best ISA tier, cross-TB batching, tracing/PMU off.
/// Flow identity (rnti, teid, noise seed) derives from (seed, flow).
vran::pipeline::PipelineConfig flow_config(std::uint64_t seed, int flow);

// --- Spans --------------------------------------------------------------

/// The benchmark's own spans around every public call it makes, kept in
/// an obs::TraceRecorder and written as Chrome trace JSON. Each span
/// carries its own id in the event's `tti` field (TTI sequence id for
/// run_tti, packet id for offer, a pass-local call id otherwise) and its
/// parent's id in `block` (-1 = root). A null recorder records nothing.
class SpanLog {
 public:
  explicit SpanLog(vran::obs::TraceRecorder* rec) : rec_(rec) {}
  bool on() const { return rec_ != nullptr; }
  std::uint64_t now() const { return rec_ != nullptr ? rec_->now_ns() : 0; }
  void record(const char* name, std::uint64_t begin_ns, std::uint32_t id,
              std::int32_t parent) {
    if (rec_ == nullptr) return;
    vran::obs::TraceEvent ev;
    ev.name = name;
    ev.begin_ns = begin_ns;
    ev.dur_ns = rec_->now_ns() - begin_ns;
    ev.tti = id;
    ev.block = parent;
    rec_->record(ev);
  }
  std::uint32_t next_id() { return next_id_++; }

 private:
  vran::obs::TraceRecorder* rec_;
  std::uint32_t next_id_ = 0;
};

// --- Kernel pass --------------------------------------------------------

/// Median µs per workload TTI of every kernel the receive chain calls,
/// timed by calling each public function on codewords rendered from the
/// workload's own flows, seed and SNR (kernels.cc).
struct KernelTimes {
  double ue_tx_us = 0;    ///< testbed: UE MAC .. OFDM tx
  double channel_us = 0;  ///< testbed: AWGN channel
  double ofdm_rx_us = 0, demap_us = 0, descramble_us = 0, dematch_us = 0;
  double apcm_us = 0, turbo_us = 0, crc_deseg_us = 0;
  double mac_parse_us = 0, gtpu_encap_us = 0;
  double turbo_iters = 0;  ///< mean iterations per code block
  std::uint64_t blocks = 0, crc_fail = 0;
  bool bytes_ok = true;  ///< every good-CRC egress decapsulated intact

  double receive_sum() const {
    return ofdm_rx_us + demap_us + descramble_us + dematch_us + apcm_us +
           turbo_us + crc_deseg_us + mac_parse_us + gtpu_encap_us;
  }
  double total_sum() const { return receive_sum() + ue_tx_us + channel_us; }
};

/// One kernel-pass TTI: the flows and the packet each sends.
struct PassTti {
  std::vector<vran::pipeline::PipelineConfig> cfgs;
  std::vector<std::vector<std::uint8_t>> packets;
};

/// Render every TTI at set-up, then time `passes` sweeps over them;
/// `scale` multiplies the per-TTI times (calls per workload TTI when one
/// pass TTI stands for a fraction of a workload TTI).
KernelTimes kernel_pass(const std::vector<PassTti>& ttis, int passes,
                        double scale, SpanLog& spans);

/// The per-layer rows every workload reports from its kernel pass, plus
/// the reconciliation line against the traced run_tti median.
void add_kernel_metrics(Result& r, const KernelTimes& k, double run_tti_us);

// --- Workloads ----------------------------------------------------------

Result run_cell(const Args& a, bool small);
Result run_multicell(const Args& a);

/// Chrome trace of `rec` to <out_dir>/trace_<workload>_seed<seed>.json;
/// records the span count and drop count as notes.
void write_trace(const Args& a, const vran::obs::TraceRecorder& rec,
                 Result& r);

}  // namespace perfbench
