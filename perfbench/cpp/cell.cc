// cell_bulk and cell_small: one cell's BatchRunner driven closed loop on
// one thread, one packet per UE per TTI.
//
//   cell_bulk   4 UEs x 1500 B: multi-block TBs batched across UEs, so
//               the receive front end and turbo dominate.
//   cell_small  32 UEs x 40..300 B drawn per packet: single-block TBs of
//               mixed K decoded as windowed singletons, so per-packet
//               fixed costs and scheduler grouping dominate.
//
// Each packet is offered when its TTI starts and leaves when run_tti
// returns, so a packet's sojourn is its TTI's wall time. Every timing is
// the whole window's p50 and p99 over all its run_tti calls.
#include <chrono>
#include <cstdio>
#include <memory>

#include "net/gtpu.h"
#include "perfbench.h"
#include "pipeline/batch_runner.h"

namespace perfbench {

namespace {

using namespace vran;
using Clock = std::chrono::steady_clock;

/// Distinct TTIs of input; the measurement cycles through them (the
/// channel noise never repeats: each pipeline's noise stream runs on).
constexpr int kInputTtis = 64;
constexpr int kSetups = 9;
constexpr int kWarmupTtis = 16;
constexpr int kPassTtis = 8;
constexpr int kPasses = 5;

using Tti = std::vector<std::vector<std::uint8_t>>;

struct Window {
  std::vector<double> tti_s;  ///< every run_tti wall time
  double busy_s = 0;  ///< summed run_tti wall time
  double cpu_s = 0;   ///< thread CPU inside run_tti
  double bits = 0;    ///< intact payload bits
  std::uint64_t offered = 0, intact = 0, crc_fail = 0, lost = 0;
  std::uint64_t mismatched = 0;
  pipeline::DecodeScheduler::Stats sched;  ///< delta over the window
};

Window measure(pipeline::BatchRunner& runner, const std::vector<Tti>& inputs,
               double seconds, SpanLog& spans, std::uint32_t& seq,
               bool corrupt_egress) {
  Window w;
  std::vector<pipeline::PacketResult> results;
  const auto s0 = runner.decode_scheduler()->stats();
  const std::uint32_t root = spans.next_id();
  const std::uint64_t root_begin = spans.now();
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration<double>(seconds);
  while (Clock::now() < end) {
    const Tti& pk = inputs[seq % kInputTtis];
    const std::uint64_t b = spans.now();
    const double c0 = thread_cpu_s();
    const auto t0 = Clock::now();
    runner.run_tti(pk, results);
    const auto t1 = Clock::now();
    w.cpu_s += thread_cpu_s() - c0;
    spans.record("run_tti", b, seq, static_cast<std::int32_t>(root));
    w.tti_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    w.busy_s += w.tti_s.back();
    ++seq;

    // Output check: every good-CRC packet must come out as a GTP-U frame
    // whose inner packet is byte-identical to what was offered.
    for (std::size_t f = 0; f < pk.size(); ++f) {
      ++w.offered;
      const auto& res = results[f];
      if (!res.crc_ok) {
        ++w.crc_fail;
        continue;
      }
      if (!res.delivered) {
        ++w.lost;
        continue;
      }
      auto egress = res.egress;
      if (corrupt_egress && w.mismatched == 0 && !egress.empty()) {
        egress.back() ^= 0x01;
      }
      const auto decap = net::gtpu_decapsulate(egress);
      if (!decap.has_value() || decap->inner != pk[f]) {
        ++w.mismatched;
        continue;
      }
      ++w.intact;
      w.bits += 8.0 * double(pk[f].size());
    }
  }
  spans.record("measure", root_begin, root, -1);
  const auto& s1 = runner.decode_scheduler()->stats();
  w.sched.blocks = s1.blocks - s0.blocks;
  w.sched.batch_groups = s1.batch_groups - s0.batch_groups;
  w.sched.windowed_blocks = s1.windowed_blocks - s0.windowed_blocks;
  w.sched.lanes_filled = s1.lanes_filled - s0.lanes_filled;
  w.sched.lanes_available = s1.lanes_available - s0.lanes_available;
  return w;
}

}  // namespace

Result run_cell(const Args& a, bool small) {
  Result r;
  const int ues = small ? 32 : 4;

  // Inputs, from the seed alone and outside every timing.
  Xoshiro256 rng(mix(a.seed, small ? 2 : 1));
  std::vector<Tti> inputs(kInputTtis, Tti(static_cast<std::size_t>(ues)));
  for (auto& tti : inputs) {
    for (int f = 0; f < ues; ++f) {
      const int bytes = small ? 40 + static_cast<int>(rng.bounded(261)) : 1500;
      tti[static_cast<std::size_t>(f)] = make_packet(bytes, f, rng);
    }
  }
  std::vector<pipeline::PipelineConfig> cfgs;
  for (int f = 0; f < ues; ++f) cfgs.push_back(flow_config(a.seed, f));

  // Set-up, kSetups times: construct the runner and its pipelines, then
  // warm every codec cache and arena. The last runner is measured.
  std::vector<double> setup_s;
  std::unique_ptr<pipeline::BatchRunner> runner;
  std::vector<pipeline::PacketResult> warm;
  for (int i = 0; i < kSetups; ++i) {
    runner.reset();
    const double t0 = now_s();
    runner = std::make_unique<pipeline::BatchRunner>(
        pipeline::BatchRunner::Direction::kUplink, cfgs, /*num_workers=*/1,
        /*cross_tb_batch=*/true);
    for (int t = 0; t < kWarmupTtis; ++t) runner->run_tti(inputs[t], warm);
    setup_s.push_back(now_s() - t0);
  }

  const bool corrupt = a.inject == "corrupt_egress";
  std::uint32_t seq = kWarmupTtis;
  SpanLog no_spans(nullptr);
  Window w0 = measure(*runner, inputs, a.trace ? a.seconds / 2 : a.seconds,
                      no_spans, seq, corrupt);

  auto check_window = [&](const Window& w) {
    r.lose(w.mismatched, std::to_string(w.mismatched) +
                             " good-CRC packets egressed with wrong bytes");
    r.lose(w.lost, std::to_string(w.lost) +
                       " good-CRC packets were not delivered");
    r.attempted += w.offered;
  };
  check_window(w0);

  std::vector<double> tti = w0.tti_s;
  const Quantiles tq = quantiles(tti);
  // Every packet of a TTI was offered at its start and left at its end.
  std::vector<double> soj;
  soj.reserve(w0.tti_s.size() * static_cast<std::size_t>(ues));
  for (const double t : w0.tti_s) soj.insert(soj.end(), ues, t);
  const Quantiles sq = quantiles(soj);
  r.note(describe("tti", tq, 1e3, "ms"));
  r.note(describe("sojourn", sq, 1e3, "ms"));
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "offered %llu, delivered intact %llu, CRC failures %llu, "
                "fail_rate %.5f",
                static_cast<unsigned long long>(w0.offered),
                static_cast<unsigned long long>(w0.intact),
                static_cast<unsigned long long>(w0.crc_fail),
                w0.offered == 0
                    ? 0.0
                    : double(w0.offered - w0.intact) / double(w0.offered));
  r.note(buf);

  if (!a.trace) {
    r.e2e = {
        {"setup_s", median(setup_s), "s"},
        {"tti_p50_ms", tq.p50 * 1e3, "ms"},
        {"sojourn_p50_ms", sq.p50 * 1e3, "ms"},
        {"goodput_mbps", w0.busy_s > 0 ? w0.bits / w0.busy_s / 1e6 : 0,
         "Mbit/s"},
        {"cpu_us_per_pkt",
         w0.intact == 0 ? 0 : w0.cpu_s / double(w0.intact) * 1e6, "us"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    return r;
  }

  // Traced window: the same loop with the benchmark's spans on.
  obs::TraceRecorder rec(1 << 18);
  SpanLog spans(&rec);
  Window w1 = measure(*runner, inputs, a.seconds / 2, spans, seq, corrupt);
  check_window(w1);
  std::vector<double> tti1 = w1.tti_s;
  const Quantiles tq1 = quantiles(tti1);
  r.note(describe("traced tti", tq1, 1e3, "ms"));

  std::vector<PassTti> pass(kPassTtis);
  for (int t = 0; t < kPassTtis; ++t) {
    pass[static_cast<std::size_t>(t)].cfgs = cfgs;
    pass[static_cast<std::size_t>(t)].packets = inputs[static_cast<std::size_t>(t)];
  }
  const KernelTimes kt = kernel_pass(pass, kPasses, 1.0, spans);
  add_kernel_metrics(r, kt, tq1.p50 * 1e6);

  const double ttis = double(w1.tti_s.size());
  auto& L = r.layer;
  L.push_back({"pipeline.sched_lane_fill", w1.sched.fill(), "ratio"});
  L.push_back({"pipeline.sched_groups_per_tti",
               double(w1.sched.batch_groups) / ttis, "count"});
  L.push_back({"pipeline.sched_windowed_per_tti",
               double(w1.sched.windowed_blocks) / ttis, "count"});
  // Runtime ingest and the multi-cell runtime are not on this path.
  for (const char* n : {"net.offer_p50_us", "net.offer_p99_us",
                        "net.recycle_us", "runtime.producer_cpu_us_per_pkt",
                        "gen.poll_p99_us", "gen.late_p99_us"}) {
    L.push_back({n, 0, "us"});
  }
  for (const char* n : {"net.door_drops", "runtime.backlog_mean",
                        "runtime.dropped_ttis"}) {
    L.push_back({n, 0, "count"});
  }
  for (const char* n : {"runtime.steal_share", "runtime.miss_rate",
                        "runtime.degraded_share"}) {
    L.push_back({n, 0, "ratio"});
  }
  L.push_back({"runtime.pkts_per_tti", double(ues), "count"});
  L.push_back({"runtime.worker_busy_share", w1.cpu_s / w1.busy_s, "ratio"});
  L.push_back({"obs.trace_overhead", tq1.p50 / tq.p50 - 1.0, "ratio"});
  L.push_back({"obs.telemetry_ticks", 0, "count"});
  L.push_back({"obs.trace_dropped", double(rec.dropped()), "count"});
  L.push_back({"tti_p99_ms", tq.p99 * 1e3, "ms"});  // untraced half
  L.push_back({"sojourn_p99_ms", sq.p99 * 1e3, "ms"});
  L.push_back({"fail_rate",
               double(w1.offered - w1.intact) / double(w1.offered), "ratio"});
  write_trace(a, rec, r);
  return r;
}

}  // namespace perfbench
