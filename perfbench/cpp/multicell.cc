// multicell_1ms: open loop from one producer thread (this one) into the
// MultiCellRunner — 4 cells x 16 UEs, 2 drain workers, stealing and the
// degrade ladder on, 1 ms budget, telemetry publisher as shipped — at a
// fixed 4000 pps of 100 B packets.
//
// The producer holds the ideal schedule t_k = k / rate whatever the
// runner does, and times each packet's sojourn from t_k to the end of the
// shard TTI that consumed it: shards consume their ingest ring in FIFO
// order and bump the live "cell.packets" counter when a TTI ends, so the
// n-th increment of a shard's counter completes the n-th packet accepted
// into that shard. Between sends the producer polls those counters every
// ~10 us (Counter::value(), the relaxed read MetricsRegistry::sample()
// makes), which sets the sojourn resolution reported as gen.poll_p99_us.
//
// TTI times are exact: at each poll the producer also reads every shard's
// live "cell.tti_ns" sum, and when it moved, samples that histogram once
// (Histogram::sample()) for a consistent (count, sum). A shard runs one
// TTI at a time and a TTI takes far longer than a poll interval, so the
// sum moves by one TTI's measured elapsed ns; the log2 buckets are never
// used. A poll that sees more than one TTI end (the producer was held up)
// gives each the mean of them, and the report counts those samples.
//
// Every timing is the whole window's p50 and p99 over all its samples.
#include <sched.h>
#include <sys/prctl.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "net/gtpu.h"
#include "perfbench.h"
#include "pipeline/multicell.h"

namespace perfbench {

namespace {

using namespace vran;
using Clock = std::chrono::steady_clock;

constexpr int kCells = 4;
constexpr int kFlowsPerCell = 16;
constexpr int kWorkers = 2;
constexpr double kRatePps = 4000;
constexpr int kPacketBytes = 100;
constexpr int kSetups = 21;
/// Set-up warm-up: every flow sends this many packets back to back, so
/// each pipeline's codecs and arenas are warm before the window opens.
constexpr int kWarmupPerFlow = 2;
/// Verification burst after the measured window: this many packets per
/// flow (see verify_burst()).
constexpr int kVerifyRounds = 8;
/// A run is invalid when the generator, not the program, fell behind: when
/// one send in ten ran more than a TTI budget late against the ideal
/// schedule. The host takes a vCPU from the producer for a few ms now and
/// then, which delays the next few dozen sends; that moves the lateness
/// p99, not the p90.
constexpr double kMaxLateP90Us = 1000.0;

pipeline::MultiCellConfig runner_config(std::uint64_t seed) {
  pipeline::MultiCellConfig mc;
  mc.cells = kCells;
  mc.flows_per_cell = kFlowsPerCell;
  mc.workers = kWorkers;
  mc.steal = true;
  // Worker w on vCPU w. Left to the scheduler, the two workers sometimes
  // started on one vCPU and shared it through the whole set-up warm-up,
  // which made set-up time bimodal (~0.02 s or ~0.035 s a run).
  mc.pin_workers = true;
  mc.degrade = true;
  mc.tti_budget_ns = 1'000'000;
  mc.flow_template = flow_config(seed, 0);
  mc.telemetry.enabled = true;  // publisher as shipped: 100 ms, no socket
  mc.telemetry.period_ms = 100;
  return mc;
}

/// Restrict the calling thread to vCPUs first..last.
void set_cpus(int first, int last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = first; c <= last; ++c) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// FNV-1a over length-delimited egress frames — the fingerprint
/// CellShard::FlowStats::egress_hash chains (pipeline/cell_shard.cc).
std::uint64_t fnv1a_frame(std::uint64_t h, std::span<const std::uint8_t> f) {
  const auto step = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  };
  const std::uint64_t n = f.size();
  for (int i = 0; i < 8; ++i) step(static_cast<std::uint8_t>(n >> (8 * i)));
  for (const std::uint8_t b : f) step(b);
  return h;
}

/// Cumulative runner state at one quiesced instant (after drain()).
struct Mark {
  pipeline::MultiCellRunner::Totals totals;
  std::vector<pipeline::CellShard::FlowStats> flows;  ///< cell-major
  std::uint64_t sched_groups = 0, sched_windowed = 0;
  std::uint64_t lanes_filled = 0, lanes_available = 0;
  std::uint64_t ticks = 0;
  double process_cpu = 0, producer_cpu = 0, wall = 0;
  std::vector<std::pair<int, double>> tasks;
};

Mark mark(pipeline::MultiCellRunner& runner) {
  Mark m;
  m.totals = runner.totals();
  for (int c = 0; c < runner.cells(); ++c) {
    const auto st = runner.shard(c).stats();
    m.flows.insert(m.flows.end(), st.flow.begin(), st.flow.end());
    const auto& s = runner.shard(c).runner().decode_scheduler()->stats();
    m.sched_groups += s.batch_groups;
    m.sched_windowed += s.windowed_blocks;
    m.lanes_filled += s.lanes_filled;
    m.lanes_available += s.lanes_available;
  }
  m.ticks = runner.telemetry() != nullptr ? runner.telemetry()->ticks() : 0;
  m.process_cpu = process_cpu_s();
  m.producer_cpu = thread_cpu_s();
  m.wall = now_s();
  m.tasks = task_cpu_s();
  return m;
}

/// One open-loop window's producer-side observations.
struct Window {
  std::uint64_t offered = 0, accepted = 0, door_drops = 0;
  std::vector<double> late_us, offer_us, sojourn_s, tti_s, poll_gap_us;
  /// TTI samples that got the mean of a poll seeing several TTIs end.
  std::uint64_t tti_shared = 0;
  double backlog_sum = 0;
  std::uint64_t backlog_samples = 0;
  double recycle_us = 0;
  std::uint64_t recycle_calls = 0;
  double emit_s = 0;  ///< wall time of the emission schedule
  std::uint64_t drop_attributed = 0;  ///< packets mapped to dropped TTIs
  std::uint64_t unconsumed = 0;  ///< accepted, never seen leave
  std::vector<std::vector<std::size_t>> accepted_by_flow;  ///< packet idx
};

/// Producer wait between polls. Short sleeps at a fine timer slack keep
/// the sojourn resolution near this value without the producer taking a
/// whole vCPU from the runner's threads.
constexpr auto kPollSleep = std::chrono::microseconds(10);

Window open_loop(pipeline::MultiCellRunner& runner,
                 const std::vector<std::vector<std::uint8_t>>& packets,
                 SpanLog& spans) {
  Window w;
  w.accepted_by_flow.resize(kCells * kFlowsPerCell);
  const int old_slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  prctl(PR_SET_TIMERSLACK, 1000, 0, 0, 0);  // ns, this thread only
  struct Sent {
    Clock::time_point due, at;  ///< schedule slot, actual offer time
    int flow;
  };
  struct Cell {
    obs::Counter* packets = nullptr;  ///< "cell.packets": processed
    obs::Counter* dropped = nullptr;  ///< "cell.dropped": dropped TTIs
    obs::Histogram* tti_ns = nullptr;  ///< "cell.tti_ns": TTI wall times
    std::uint64_t base_packets = 0, base_dropped = 0;
    std::uint64_t tti_count = 0, tti_sum = 0;  ///< last consistent sample
    std::uint64_t consumed = 0, drops_seen = 0;
    std::vector<Sent> fifo;
    std::size_t head = 0;
  };
  std::array<Cell, kCells> cells;
  for (int c = 0; c < kCells; ++c) {
    auto& cs = cells[c];
    cs.packets = &runner.shard(c).metrics().counter("cell.packets");
    cs.dropped = &runner.shard(c).metrics().counter("cell.dropped");
    cs.base_packets = cs.packets->value();
    cs.base_dropped = cs.dropped->value();
    cs.tti_ns = &runner.shard(c).metrics().histogram("cell.tti_ns");
    const obs::HistogramStats h = cs.tti_ns->sample();
    cs.tti_count = h.count;
    cs.tti_sum = h.sum;
    cs.fifo.reserve(packets.size() / kCells + 1);
  }
  std::array<std::uint8_t, kFlowsPerCell> taken{};
  Clock::time_point last_poll = Clock::now();
  const auto poll = [&](Clock::time_point now) {
    bool any = false;
    for (auto& cs : cells) {
      const std::uint64_t done = cs.packets->value() - cs.base_packets;
      while (cs.consumed < done && cs.head < cs.fifo.size()) {
        const Sent& p = cs.fifo[cs.head++];
        w.sojourn_s.push_back(secs(now - p.due));
        ++cs.consumed;
        any = true;
      }
      // TTI times: when the live sum moved, one consistent sample gives
      // the TTIs that ended and their summed elapsed ns. A sample caught
      // between a TTI's bucket and sum updates is left for the next poll.
      if (cs.tti_ns->live_sum() != cs.tti_sum) {
        const obs::HistogramStats h = cs.tti_ns->sample();
        if (h.count > cs.tti_count && h.sum > cs.tti_sum) {
          const std::uint64_t n = h.count - cs.tti_count;
          const double each = double(h.sum - cs.tti_sum) / double(n) / 1e9;
          w.tti_s.insert(w.tti_s.end(), n, each);
          if (n > 1) w.tti_shared += n;
          cs.tti_count = h.count;
          cs.tti_sum = h.sum;
        }
      }
      // Then the dropped TTIs: the ladder drops a TTI right after a missed
      // one, so a drop seen in the same poll as completions came after
      // them. A dropped TTI took packets from the ring head the way every
      // TTI does — at most one per flow, stopping at a repeated flow — out
      // of what was already queued; those packets never leave processed.
      const std::uint64_t drops = cs.dropped->value() - cs.base_dropped;
      for (; cs.drops_seen < drops; ++cs.drops_seen) {
        taken.fill(0);
        while (cs.head < cs.fifo.size() && cs.fifo[cs.head].at <= last_poll &&
               taken[cs.fifo[cs.head].flow] == 0) {
          taken[cs.fifo[cs.head].flow] = 1;
          ++cs.head;
          ++w.drop_attributed;
        }
      }
    }
    if (any) w.poll_gap_us.push_back(secs(now - last_poll) * 1e6);
    last_poll = now;
  };

  const std::uint32_t root = spans.next_id();
  const std::uint64_t root_begin = spans.now();
  const double period_ns = 1e9 / kRatePps;
  const auto t0 = Clock::now();
  for (std::size_t k = 0; k < packets.size(); ++k) {
    const auto due =
        t0 + std::chrono::nanoseconds(
                 static_cast<std::int64_t>(double(k) * period_ns));
    Clock::time_point now;
    for (;;) {
      now = Clock::now();
      poll(now);
      if (now >= due) break;
      if (due - now > kPollSleep) {
        std::this_thread::sleep_for(kPollSleep);
      } else {
        std::this_thread::yield();
      }
    }
    w.late_us.push_back(secs(now - due) * 1e6);
    const int cell = static_cast<int>(k % kCells);
    const int flow = static_cast<int>((k / kCells) % kFlowsPerCell);
    const std::uint64_t b = spans.now();
    const auto o0 = Clock::now();
    const bool ok = runner.offer(cell, flow, packets[k]);
    const auto o1 = Clock::now();
    w.offer_us.push_back(secs(o1 - o0) * 1e6);
    spans.record("offer", b, static_cast<std::uint32_t>(k),
                 static_cast<std::int32_t>(root));
    ++w.offered;
    if (ok) {
      ++w.accepted;
      cells[cell].fifo.push_back({due, o1, flow});
      w.accepted_by_flow[cell * kFlowsPerCell + flow].push_back(k);
    } else {
      ++w.door_drops;
    }
    if ((k & 0xF) == 0) {
      const std::uint64_t bb = spans.now();
      w.backlog_sum += double(runner.backlog());
      ++w.backlog_samples;
      spans.record("backlog", bb, spans.next_id(),
                   static_cast<std::int32_t>(root));
    }
    // offer() recycles its own shard; sweep the others now and then.
    if ((k & 0x3F) == 0) {
      const std::uint64_t rb = spans.now();
      const auto r0 = Clock::now();
      runner.recycle_all();
      w.recycle_us += secs(Clock::now() - r0) * 1e6;
      ++w.recycle_calls;
      spans.record("recycle_all", rb, spans.next_id(),
                   static_cast<std::int32_t>(root));
    }
  }
  w.emit_s = secs(Clock::now() - t0);

  // Keep observing until every accepted packet has left or the shards
  // go quiet, then drain.
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  for (;;) {
    const auto now = Clock::now();
    poll(now);
    if (w.sojourn_s.size() + w.drop_attributed >= w.accepted ||
        (runner.backlog() == 0 && runner.drain(0)) || now > deadline) {
      break;
    }
    std::this_thread::sleep_for(kPollSleep);
  }
  const std::uint64_t db = spans.now();
  const bool drained = runner.drain(5000);
  spans.record("drain", db, spans.next_id(), static_cast<std::int32_t>(root));
  last_poll = Clock::now();
  poll(last_poll);
  w.unconsumed = w.accepted - w.sojourn_s.size() - w.drop_attributed;
  spans.record("open_loop", root_begin, root, -1);
  prctl(PR_SET_TIMERSLACK, old_slack, 0, 0, 0);
  if (!drained) throw std::runtime_error("open-loop window did not drain");
  return w;
}

std::vector<std::vector<std::uint8_t>> make_packets(std::uint64_t seed,
                                                    std::uint64_t stream,
                                                    std::size_t n) {
  Xoshiro256 rng(mix(seed, 3, stream));
  std::vector<std::vector<std::uint8_t>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    const int cell = static_cast<int>(k % kCells);
    const int flow = static_cast<int>((k / kCells) % kFlowsPerCell);
    out[k] = make_packet(kPacketBytes, cell * kFlowsPerCell + flow, rng);
  }
  return out;
}

std::uint64_t gap(std::uint64_t x, std::uint64_t y) {
  return x > y ? x - y : y - x;
}

/// Output checks of one window between quiesced marks `a` and `b`:
/// packet conservation, per-flow sums, and the egress fingerprint of
/// every flow that delivered all it was sent in the window. Returns how
/// many flows were fingerprinted. `inject` breaks one check on purpose.
int check_outputs(const Window& w, const Mark& a, const Mark& b,
                  const std::vector<std::vector<std::uint8_t>>& packets,
                  const std::string& inject, Result& r) {
  const auto& ta = a.totals;
  const auto& tb = b.totals;
  const std::uint64_t processed = tb.packets - ta.packets;
  const std::uint64_t dropped_pk = tb.dropped_packets - ta.dropped_packets;
  const std::uint64_t door = tb.offer_fails - ta.offer_fails;
  const std::uint64_t accepted =
      w.accepted + (inject == "break_conservation" ? 1 : 0);

  r.lose(gap(w.offered, accepted + w.door_drops),
         "conservation: offered != accepted + door drops");
  r.lose(gap(door, w.door_drops),
         "conservation: runner offer_fails != generator door drops");
  r.lose(gap(accepted, processed + dropped_pk),
         "conservation: accepted != processed + dropped-TTI packets");
  std::uint64_t flow_packets = 0;
  int fingerprinted = 0;
  const auto teid0 = runner_config(0).flow_template.teid;
  for (std::size_t f = 0; f < b.flows.size(); ++f) {
    const auto& fa = a.flows[f];
    const auto& fb = b.flows[f];
    const std::uint64_t pk = fb.packets - fa.packets;
    const std::uint64_t dl = fb.delivered - fa.delivered;
    const std::uint64_t ok = fb.crc_ok - fa.crc_ok;
    flow_packets += pk;
    constexpr std::uint64_t kFrame = kPacketBytes + net::kGtpuHeaderBytes;
    r.lose(ok > dl ? ok - dl : 0,
           "flow " + std::to_string(f) + ": crc_ok > delivered");
    r.lose(dl > pk ? dl - pk : 0,
           "flow " + std::to_string(f) + ": delivered > packets");
    r.lose((gap(fb.egress_bytes - fa.egress_bytes, dl * kFrame) + kFrame - 1) /
               kFrame,
           "flow " + std::to_string(f) + ": egress bytes != delivered frames");
    // Byte check: a flow that delivered every accepted packet must have
    // egressed exactly the GTP-U frames of what was sent, in order.
    const auto& sent = w.accepted_by_flow[f];
    if (pk != sent.size() || dl != pk) continue;
    std::uint64_t h = fa.egress_hash;
    for (const std::size_t k : sent) {
      auto frame = net::gtpu_encapsulate(
          teid0 + static_cast<std::uint32_t>(f), packets[k]);
      if (inject == "corrupt_egress" && fingerprinted == 0) frame.back() ^= 1;
      h = fnv1a_frame(h, frame);
    }
    r.lose(h == fb.egress_hash ? 0 : sent.size(),
           "flow " + std::to_string(f) + ": egress has wrong bytes");
    ++fingerprinted;
  }
  r.lose(gap(flow_packets, processed),
         "conservation: per-flow packets != runner packets");
  return fingerprinted;
}

/// Metrics of one window between marks `a` and `b`.
struct WindowStats {
  Quantiles tti, sojourn, late_us;
  double late_p90_us = 0;
  double goodput_mbps = 0, fail_rate = 0, cpu_us_per_pkt = 0;
  std::uint64_t intact = 0, not_intact = 0;
  double pkts_per_tti = 0, steal_share = 0, miss_rate = 0;
  double degraded_share = 0, worker_busy_share = 0, producer_cpu_us = 0;
  double lane_fill = 0, groups_per_tti = 0, windowed_per_tti = 0;
  std::uint64_t dropped_ttis = 0, dropped_packets = 0, ticks = 0;
  int fingerprinted = 0;
};

WindowStats settle(const Window& w,
                   const Mark& a, const Mark& b,
                   const std::vector<std::vector<std::uint8_t>>& packets,
                   int publisher_tasks, const std::string& inject,
                   Result& r) {
  WindowStats s;
  s.fingerprinted = check_outputs(w, a, b, packets, inject, r);
  const auto& ta = a.totals;
  const auto& tb = b.totals;
  const std::uint64_t ttis = tb.ttis - ta.ttis;
  const std::uint64_t processed = tb.packets - ta.packets;
  std::uint64_t delivered = 0;
  for (std::size_t f = 0; f < b.flows.size(); ++f) {
    delivered += b.flows[f].delivered - a.flows[f].delivered;
  }

  s.intact = delivered;
  s.not_intact = w.offered - delivered;
  s.fail_rate = w.offered == 0 ? 0 : double(s.not_intact) / double(w.offered);
  s.goodput_mbps =
      double(delivered) * kPacketBytes * 8.0 / w.emit_s / 1e6;

  // CPU: process minus this producer thread, per delivered packet.
  const double producer = b.producer_cpu - a.producer_cpu;
  const double process = b.process_cpu - a.process_cpu;
  s.cpu_us_per_pkt =
      delivered == 0 ? 0 : (process - producer) / double(delivered) * 1e6;
  s.producer_cpu_us = w.offered == 0 ? 0 : producer / double(w.offered) * 1e6;

  // Worker threads: the runner's tasks minus the publisher's, which
  // start() spawns first (lowest new tid).
  double workers_cpu = 0;
  int n = 0;
  for (const auto& [tid, cpu] : b.tasks) {
    if (tid == current_tid()) continue;
    double before = 0;
    for (const auto& [t0, c0] : a.tasks) {
      if (t0 == tid) before = c0;
    }
    if (n++ < publisher_tasks) continue;
    workers_cpu += cpu - before;
  }
  s.worker_busy_share = workers_cpu / (kWorkers * (b.wall - a.wall));

  s.pkts_per_tti = ttis == 0 ? 0 : double(processed) / double(ttis);
  s.steal_share = ttis == 0 ? 0 : double(tb.steals - ta.steals) / double(ttis);
  s.miss_rate =
      ttis == 0 ? 0 : double(tb.deadline_miss - ta.deadline_miss) / double(ttis);
  s.degraded_share =
      ttis == 0 ? 0 : double(tb.degraded - ta.degraded) / double(ttis);
  s.dropped_ttis = tb.dropped_ttis - ta.dropped_ttis;
  s.dropped_packets = tb.dropped_packets - ta.dropped_packets;
  const std::uint64_t avail = b.lanes_available - a.lanes_available;
  s.lane_fill = avail == 0 ? 1.0
                           : double(b.lanes_filled - a.lanes_filled) /
                                 double(avail);
  s.groups_per_tti =
      ttis == 0 ? 0 : double(b.sched_groups - a.sched_groups) / double(ttis);
  s.windowed_per_tti =
      ttis == 0 ? 0
                : double(b.sched_windowed - a.sched_windowed) / double(ttis);
  s.ticks = b.ticks - a.ticks;

  std::vector<double> tti = w.tti_s, soj = w.sojourn_s, late = w.late_us;
  s.tti = quantiles(tti);
  s.sojourn = quantiles(soj);
  s.late_us = quantiles(late);  // sorts `late`
  s.late_p90_us =
      late.empty() ? 0 : late[(late.size() * 9 + 9) / 10 - 1];  // nearest rank
  return s;
}

/// Untimed, after the measured window(s): kVerifyRounds packets per flow,
/// each offered once its shard is idle again, then the output checks. A
/// 30 s window sends each flow ~1900 packets, so at the known avx512
/// single-block CRC failure rate (~0.8 %) almost no flow delivers all of
/// them and the fingerprint check reaches none; over 8 packets most flows
/// do. One packet at a time keeps every TTI inside its budget, so the
/// degrade ladder never lowers decode quality here. Returns how many flows
/// were fingerprinted.
int verify_burst(pipeline::MultiCellRunner& runner, std::uint64_t seed,
                 const std::string& inject, Result& r) {
  constexpr int kFlows = kCells * kFlowsPerCell;
  const auto packets = make_packets(seed, 4, std::size_t{kVerifyRounds} * kFlows);
  Window w;
  w.accepted_by_flow.resize(kFlows);
  const Mark a = mark(runner);
  for (std::size_t k = 0; k < packets.size(); ++k) {
    const int cell = static_cast<int>(k % kCells);
    const int flow = static_cast<int>((k / kCells) % kFlowsPerCell);
    ++w.offered;
    if (runner.offer(cell, flow, packets[k])) {
      ++w.accepted;
      w.accepted_by_flow[cell * kFlowsPerCell + flow].push_back(k);
    } else {
      ++w.door_drops;
    }
    while (!runner.shard(cell).idle()) std::this_thread::yield();
  }
  if (!runner.drain(5000)) {
    throw std::runtime_error("verification burst did not drain");
  }
  const Mark b = mark(runner);
  const int fingerprinted = check_outputs(w, a, b, packets, inject, r);
  r.check(fingerprinted > 0,
          "verification burst: no flow delivered every packet, so no egress "
          "bytes were checked");
  r.attempted += w.offered;
  r.note("verification burst: " + std::to_string(w.offered) +
         " packets, egress bytes fingerprinted on " +
         std::to_string(fingerprinted) + " of " + std::to_string(kFlows) +
         " flows");
  return fingerprinted;
}

/// A run whose generator fell behind measured the host, not the program:
/// it is marked invalid and prints no result (main.cc); its outputs were
/// still checked.
void mark_validity(Result& r, double late_p90_us) {
  if (late_p90_us <= kMaxLateP90Us) return;
  r.valid = false;
  r.note("INVALID RUN: the generator fell behind its schedule (late p90 " +
         std::to_string(late_p90_us) + " us over the window)");
}

/// Sample counts and output-check tallies of one window.
void describe_window(Result& r, const char* label, const Window& w,
                     const WindowStats& s) {
  const std::string l = label;
  r.note(describe((l + "tti").c_str(), s.tti, 1e3, "ms"));
  r.note(describe((l + "sojourn").c_str(), s.sojourn, 1e3, "ms"));
  r.note(describe((l + "gen.late").c_str(), s.late_us, 1.0, "us"));
  std::vector<double> gaps = w.poll_gap_us;
  r.note(describe((l + "sojourn poll").c_str(), quantiles(gaps), 1.0, "us"));
  char buf[400];
  std::snprintf(buf, sizeof(buf),
                "%soffered %llu, accepted %llu, door drops %llu, delivered "
                "intact %llu, fail_rate %.5f, dropped TTIs %llu (%llu packets; "
                "%llu mapped by the sojourn observer), unobserved %llu; %llu of "
                "%zu TTI samples share a poll's mean; egress fingerprinted on "
                "%d flows",
                label, static_cast<unsigned long long>(w.offered),
                static_cast<unsigned long long>(w.accepted),
                static_cast<unsigned long long>(w.door_drops),
                static_cast<unsigned long long>(s.intact), s.fail_rate,
                static_cast<unsigned long long>(s.dropped_ttis),
                static_cast<unsigned long long>(s.dropped_packets),
                static_cast<unsigned long long>(w.drop_attributed),
                static_cast<unsigned long long>(w.unconsumed),
                static_cast<unsigned long long>(w.tti_shared), w.tti_s.size(),
                s.fingerprinted);
  r.note(buf);
}

}  // namespace

Result run_multicell(const Args& a) {
  Result r;
  const auto total = static_cast<std::size_t>(kRatePps * a.seconds);
  // Inputs first, outside every timing: the measured window(s) and the
  // set-up warm-up burst.
  const std::size_t window_n = a.trace ? total / 2 : total;
  const auto untraced_pk = make_packets(a.seed, 0, window_n);
  const auto traced_pk =
      a.trace ? make_packets(a.seed, 1, window_n)
              : std::vector<std::vector<std::uint8_t>>{};
  const auto warm_pk = make_packets(a.seed, 2, kCells * kFlowsPerCell *
                                                   kWarmupPerFlow);

  // Set-up, kSetups times: construct the runner (64 pipelines, pools,
  // rings, publisher), start its threads, and push the warm-up burst
  // through. Set-up ends when the shards have consumed the whole burst,
  // seen by spinning on their idle() flags; the drain that settles the
  // runner's stats comes after the clock stops. The last runner stays up
  // for the measurement.
  //
  // The producer (this thread) gets the last vCPU to itself, in set-up
  // and in the window. The workers are pinned to the first vCPUs
  // (runner_config) and the publisher floats over all but the last: it
  // inherits this thread's CPU mask when start() spawns it, so the mask
  // narrows first and this thread moves to the last vCPU afterwards. A
  // worker that shares the producer's vCPU delays its wake-ups by up to a
  // scheduler slice, and then one send in ten can run over a TTI late.
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<double> setup_s;
  std::unique_ptr<pipeline::MultiCellRunner> runner;
  int publisher_tasks = 0;
  for (int i = 0; i < kSetups; ++i) {
    runner.reset();
    if (cpus > 1) set_cpus(0, cpus - 2);
    const auto before = task_cpu_s();
    const double t0 = now_s();
    runner = std::make_unique<pipeline::MultiCellRunner>(runner_config(a.seed));
    runner->start();
    if (cpus > 1) set_cpus(cpus - 1, cpus - 1);
    for (std::size_t k = 0; k < warm_pk.size(); ++k) {
      const int cell = static_cast<int>(k % kCells);
      const int flow = static_cast<int>((k / kCells) % kFlowsPerCell);
      while (!runner->offer(cell, flow, warm_pk[k])) {
        runner->recycle_all();
        std::this_thread::yield();
      }
    }
    for (int c = 0; c < kCells;) {
      if (runner->shard(c).idle()) {
        ++c;
      } else {
        std::this_thread::yield();
      }
    }
    setup_s.push_back(now_s() - t0);
    r.check(runner->drain(10000), "set-up warm-up did not drain");
    publisher_tasks =
        static_cast<int>(task_cpu_s().size() - before.size()) - kWorkers;
  }

  SpanLog no_spans(nullptr);
  Mark m0 = mark(*runner);
  Window w0 = open_loop(*runner, untraced_pk, no_spans);
  Mark m1 = mark(*runner);
  WindowStats s0 = settle(w0, m0, m1, untraced_pk, publisher_tasks,
                          a.inject, r);
  r.attempted += w0.offered;
  std::vector<double> setup_sorted = setup_s;
  std::sort(setup_sorted.begin(), setup_sorted.end());
  std::string setups = "set-up (s, sorted):";
  for (const double v : setup_sorted) setups += " " + std::to_string(v);
  r.note(setups);
  describe_window(r, "", w0, s0);
  mark_validity(r, s0.late_p90_us);

  if (!a.trace) {
    verify_burst(*runner, a.seed, a.inject, r);
    runner->stop();
    r.e2e = {
        {"setup_s", median(setup_s), "s"},
        {"tti_p50_ms", s0.tti.p50 * 1e3, "ms"},
        {"sojourn_p50_ms", s0.sojourn.p50 * 1e3, "ms"},
        {"goodput_mbps", s0.goodput_mbps, "Mbit/s"},
        {"cpu_us_per_pkt", s0.cpu_us_per_pkt, "us"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    return r;
  }

  // Traced window: the same schedule, with the benchmark's spans on.
  obs::TraceRecorder rec(std::max<std::size_t>(1 << 16, 4 * window_n));
  SpanLog spans(&rec);
  Mark m2 = mark(*runner);
  Window w1 = open_loop(*runner, traced_pk, spans);
  Mark m3 = mark(*runner);
  WindowStats s1 = settle(w1, m2, m3, traced_pk, publisher_tasks,
                          a.inject, r);
  r.attempted += w1.offered;
  describe_window(r, "traced ", w1, s1);
  verify_burst(*runner, a.seed, a.inject, r);
  runner->stop();

  // Kernel pass: one packet per pass TTI, scaled to the shards' mean
  // packets per TTI.
  std::vector<PassTti> pass(16);
  for (std::size_t t = 0; t < pass.size(); ++t) {
    const int cell = static_cast<int>(t % kCells);
    const int flow = static_cast<int>(t % kFlowsPerCell);
    pass[t].cfgs.push_back(
        pipeline::MultiCellRunner::flow_config(runner_config(a.seed), cell,
                                               flow));
    pass[t].packets.push_back(traced_pk[t]);
  }
  const KernelTimes kt = kernel_pass(pass, 5, s1.pkts_per_tti, spans);
  add_kernel_metrics(r, kt, s1.tti.p50 * 1e6);

  std::vector<double> offer = w1.offer_us;
  const Quantiles offer_q = quantiles(offer);
  auto& L = r.layer;
  L.push_back({"pipeline.sched_lane_fill", s1.lane_fill, "ratio"});
  L.push_back({"pipeline.sched_groups_per_tti", s1.groups_per_tti, "count"});
  L.push_back(
      {"pipeline.sched_windowed_per_tti", s1.windowed_per_tti, "count"});
  L.push_back({"net.offer_p50_us", offer_q.p50, "us"});
  L.push_back({"net.offer_p99_us", offer_q.p99, "us"});
  L.push_back({"net.recycle_us",
               w1.recycle_calls == 0 ? 0 : w1.recycle_us / w1.recycle_calls,
               "us"});
  L.push_back({"net.door_drops", double(w1.door_drops), "count"});
  L.push_back({"runtime.pkts_per_tti", s1.pkts_per_tti, "count"});
  L.push_back({"runtime.backlog_mean",
               w1.backlog_samples == 0 ? 0
                                       : w1.backlog_sum / w1.backlog_samples,
               "count"});
  L.push_back({"runtime.steal_share", s1.steal_share, "ratio"});
  L.push_back({"runtime.miss_rate", s1.miss_rate, "ratio"});
  L.push_back({"runtime.degraded_share", s1.degraded_share, "ratio"});
  L.push_back({"runtime.dropped_ttis", double(s1.dropped_ttis), "count"});
  L.push_back({"runtime.worker_busy_share", s1.worker_busy_share, "ratio"});
  L.push_back(
      {"runtime.producer_cpu_us_per_pkt", s1.producer_cpu_us, "us"});
  L.push_back({"obs.trace_overhead",
               s0.tti.p50 > 0 ? s1.tti.p50 / s0.tti.p50 - 1.0 : 0, "ratio"});
  L.push_back({"obs.telemetry_ticks", double(s1.ticks), "count"});
  L.push_back({"obs.trace_dropped", double(rec.dropped()), "count"});
  std::vector<double> gaps1 = w1.poll_gap_us;
  L.push_back({"gen.poll_p99_us", quantiles(gaps1).p99, "us"});
  L.push_back({"fail_rate", s1.fail_rate, "ratio"});
  L.push_back({"tti_p99_ms", s0.tti.p99 * 1e3, "ms"});  // untraced
  L.push_back({"sojourn_p99_ms", s0.sojourn.p99 * 1e3, "ms"});
  L.push_back({"gen.late_p99_us", s1.late_us.p99, "us"});
  mark_validity(r, s1.late_p90_us);
  write_trace(a, rec, r);
  return r;
}

}  // namespace perfbench
