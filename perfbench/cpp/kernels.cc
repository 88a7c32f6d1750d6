// The kernel pass: every public function of the receive chain (and the
// testbed's UE transmit chain and channel) called on real noisy codewords
// rendered at set-up from the workload's own flows, seed and SNR, so
// turbo early termination behaves as in the workload. The order of calls
// and their arguments mirror pipeline.cc's uplink path; the turbo decode
// goes through the public DecodeScheduler so each block takes the route
// the workload's scheduler gives it (batched lanes for multi-block TBs,
// windowed singles otherwise).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "arrange/arrange.h"
#include "common/aligned.h"
#include "common/bitio.h"
#include "mac/mac_pdu.h"
#include "mac/tbs_tables.h"
#include "net/gtpu.h"
#include "perfbench.h"
#include "phy/crc/crc.h"
#include "phy/modulation/modulation.h"
#include "phy/scramble/scrambler.h"
#include "phy/segmentation/segmentation.h"

namespace perfbench {

namespace {

using namespace vran;
using Clock = std::chrono::steady_clock;

phy::Modulation mod_of(int mcs) {
  switch (mac::mcs_entry(mcs).modulation_bits) {
    case 2: return phy::Modulation::kQpsk;
    case 4: return phy::Modulation::k16Qam;
    default: return phy::Modulation::k64Qam;
  }
}

/// One UE transmission, rendered at set-up, plus its receive buffers.
struct Ue {
  const pipeline::PipelineConfig* cfg = nullptr;
  const std::vector<std::uint8_t>* packet = nullptr;
  std::uint32_t c_init = 0;
  std::uint64_t noise_seed = 0;  ///< per (flow, TTI) channel realization
  int e = 0;  ///< rate-matched bits per block
  phy::SegmentationPlan plan;
  std::vector<phy::Cf> noisy;
  std::vector<phy::Cf> scratch;  ///< channel input copy
  std::vector<phy::IqSample> symbols;
  AlignedVector<std::int16_t> llr;
  std::vector<AlignedVector<std::int16_t>> w, triples, sys, p1, p2;
  std::vector<std::vector<std::uint8_t>> hard;
  std::vector<std::span<const std::uint8_t>> views;  ///< into `hard`
  std::vector<pipeline::DecodeOutcome> out;
  std::vector<std::uint8_t> bits, pdu;
};

/// Codec objects shared by the pass, sized to hold every K the inputs
/// use, so the timed calls never construct one (construction churn is a
/// runtime cost and lands in pipeline.glue_us instead).
struct Codecs {
  std::map<int, std::unique_ptr<phy::TurboEncoder>> enc;
  std::map<int, std::unique_ptr<phy::RateMatcher>> rm;
  phy::TurboEncoder& encoder(int k) {
    auto& p = enc[k];
    if (!p) p = std::make_unique<phy::TurboEncoder>(k);
    return *p;
  }
  phy::RateMatcher& matcher(int k) {
    auto& p = rm[k];
    if (!p) p = std::make_unique<phy::RateMatcher>(k);
    return *p;
  }
};

/// UE side of pipeline.cc (MAC build, CRC + segmentation, turbo encode,
/// rate match, scramble, modulate, OFDM tx). Testbed work.
std::vector<phy::Cf> ue_transmit(Ue& u, Codecs& codecs,
                                 const phy::OfdmModulator& ofdm) {
  const auto& cfg = *u.cfg;
  const int payload_bits =
      static_cast<int>(u.packet->size() + mac::kMacHeaderBytes) * 8;
  const int n_prb = mac::prbs_for_payload(payload_bits, cfg.mcs, cfg.max_prb);
  mac::MacSdu sdu;
  sdu.lcid = 1;
  sdu.data = *u.packet;
  const auto pdu = mac::mac_build_pdu(
      sdu,
      static_cast<std::size_t>(mac::transport_block_bits(cfg.mcs, n_prb) / 8));
  auto bits = unpack_bits(pdu);
  phy::crc_attach(bits, phy::CrcType::k24A);
  u.plan = phy::make_segmentation_plan(static_cast<int>(bits.size()));
  const auto blocks = phy::segment_bits(bits, u.plan);
  const int g = mac::allocation_coded_bits(cfg.mcs, n_prb);
  const int qm = mac::mcs_entry(cfg.mcs).modulation_bits;
  u.e = (g / u.plan.c / qm) * qm;
  std::vector<std::uint8_t> coded;
  for (int i = 0; i < u.plan.c; ++i) {
    const int k = u.plan.block_size(i);
    const auto cw =
        codecs.encoder(k).encode(blocks[static_cast<std::size_t>(i)]);
    const auto e = codecs.matcher(k).match(cw, u.e, /*rv=*/0);
    coded.insert(coded.end(), e.begin(), e.end());
  }
  phy::scramble_bits(coded, u.c_init);
  const auto symbols = phy::modulate(coded, mod_of(cfg.mcs));
  return ofdm.modulate(symbols);
}

void size_rx_buffers(Ue& u, Codecs& codecs) {
  const auto qm = static_cast<std::size_t>(
      phy::bits_per_symbol(mod_of(u.cfg->mcs)));
  const std::size_t n_symbols =
      static_cast<std::size_t>(u.e) * static_cast<std::size_t>(u.plan.c) / qm;
  u.symbols.resize(n_symbols);
  u.llr.resize(n_symbols * qm);
  const auto c = static_cast<std::size_t>(u.plan.c);
  u.w.resize(c);
  u.triples.resize(c);
  u.sys.resize(c);
  u.p1.resize(c);
  u.p2.resize(c);
  u.hard.resize(c);
  u.out.resize(c);
  for (std::size_t i = 0; i < c; ++i) {
    const int k = u.plan.block_size(static_cast<int>(i));
    codecs.matcher(k);
    const auto nt = static_cast<std::size_t>(k + phy::kTurboTail);
    u.w[i].resize(static_cast<std::size_t>(phy::RateMatcher::buffer_size_for(k)));
    u.triples[i].resize(3 * nt);
    u.sys[i].resize(nt);
    u.p1[i].resize(nt);
    u.p2[i].resize(nt);
    u.hard[i].resize(static_cast<std::size_t>(k));
  }
  u.views.assign(u.hard.begin(), u.hard.end());
  u.bits.resize(static_cast<std::size_t>(u.plan.b));
  u.pdu.resize((static_cast<std::size_t>(u.plan.b) - 24 + 7) / 8);
}

/// Adds the wall time of `fn` to `acc` (µs) and records a span.
template <typename Fn>
void timed(double& acc, SpanLog& spans, const char* name,
           std::int32_t parent, Fn&& fn) {
  const std::uint64_t b = spans.now();
  const auto t0 = Clock::now();
  fn();
  acc += std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  spans.record(name, b, spans.next_id(), parent);
}

}  // namespace

KernelTimes kernel_pass(const std::vector<PassTti>& ttis, int passes,
                        double scale, SpanLog& spans) {
  const IsaLevel isa = ttis.front().cfgs.front().isa;
  const phy::OfdmModulator ofdm(ttis.front().cfgs.front().ofdm, isa);
  Codecs codecs;
  pipeline::PipelineWorkspace ws(256);
  pipeline::DecodeScheduler sched(nullptr);

  // Render: the same chain and channel as the workload's pipelines.
  std::vector<std::vector<Ue>> rendered(ttis.size());
  for (std::size_t t = 0; t < ttis.size(); ++t) {
    const auto& in = ttis[t];
    auto& ues = rendered[t];
    ues.resize(in.packets.size());
    for (std::size_t f = 0; f < ues.size(); ++f) {
      Ue& u = ues[f];
      u.cfg = &in.cfgs[f];
      u.packet = &in.packets[f];
      u.c_init = phy::pusch_c_init(u.cfg->rnti, 0, static_cast<int>(t % 20),
                                   u.cfg->cell_id);
      u.noise_seed = mix(u.cfg->noise_seed, t);
      u.noisy = ue_transmit(u, codecs, ofdm);
      phy::AwgnChannel ch(
          pipeline::time_domain_snr_db(u.cfg->snr_db, u.cfg->ofdm.nfft),
          u.noise_seed);
      ch.apply(std::span<phy::Cf>(u.noisy));
      size_rx_buffers(u, codecs);
    }
  }

  std::vector<phy::Cf> fft_scratch(
      static_cast<std::size_t>(ttis.front().cfgs.front().ofdm.nfft));
  std::vector<pipeline::DecodeJob> jobs;
  std::map<std::string, std::vector<double>> per_tti;
  KernelTimes kt;
  double iter_sum = 0;

  for (int pass = 0; pass < passes; ++pass) {
    for (auto& ues : rendered) {
      const std::uint32_t tti_id = spans.next_id();
      const std::uint64_t tti_begin = spans.now();
      const auto parent = static_cast<std::int32_t>(tti_id);
      double tx = 0, chan = 0, ofdm_rx = 0, demap = 0, descr = 0, dematch = 0;
      double apcm = 0, turbo = 0, deseg = 0, mac_us = 0, gtpu = 0;
      jobs.clear();
      for (Ue& u : ues) {
        const auto& cfg = *u.cfg;
        timed(tx, spans, "phy.ue_tx", parent,
              [&] { u.scratch = ue_transmit(u, codecs, ofdm); });
        phy::AwgnChannel ch(
            pipeline::time_domain_snr_db(cfg.snr_db, cfg.ofdm.nfft),
            u.noise_seed);
        timed(chan, spans, "phy.channel", parent,
              [&] { ch.apply(std::span<phy::Cf>(u.scratch)); });

        timed(ofdm_rx, spans, "phy.ofdm_rx", parent, [&] {
          ofdm.demodulate_into(u.noisy, u.symbols, fft_scratch);
        });
        const double n0_re = std::pow(10.0, -cfg.snr_db / 10.0);
        timed(demap, spans, "phy.demap", parent, [&] {
          phy::demodulate_llr_into(u.symbols, mod_of(cfg.mcs),
                                   n0_re * phy::kIqScale * phy::kIqScale,
                                   u.llr);
        });
        timed(descr, spans, "phy.descramble", parent,
              [&] { phy::descramble_llr(u.llr, u.c_init); });
        for (auto& w : u.w) std::fill(w.begin(), w.end(), std::int16_t{0});
        timed(dematch, spans, "phy.dematch", parent, [&] {
          for (int i = 0; i < u.plan.c; ++i) {
            const auto bi = static_cast<std::size_t>(i);
            const auto& rm = codecs.matcher(u.plan.block_size(i));
            rm.dematch_accumulate(
                std::span<const std::int16_t>(u.llr).subspan(
                    bi * static_cast<std::size_t>(u.e),
                    static_cast<std::size_t>(u.e)),
                0, u.w[bi]);
            rm.buffer_to_triples_into(u.w[bi], u.triples[bi]);
          }
        });
        timed(apcm, spans, "arrange.apcm", parent, [&] {
          arrange::Options opt;
          opt.method = cfg.arrange_method;
          opt.isa = cfg.isa;
          opt.order = arrange::Order::kCanonical;
          for (std::size_t bi = 0; bi < u.triples.size(); ++bi) {
            arrange::deinterleave3_i16(u.triples[bi], u.sys[bi], u.p1[bi],
                                       u.p2[bi], opt);
          }
        });
        const bool multi = u.plan.c > 1;
        for (std::size_t bi = 0; bi < u.triples.size(); ++bi) {
          pipeline::DecodeJob j;
          j.k = u.plan.block_size(static_cast<int>(bi));
          j.isa = cfg.isa;
          j.max_iterations = cfg.max_turbo_iterations;
          j.crc_multi = multi;
          j.arrange_method = cfg.arrange_method;
          j.batch_ok = cfg.batch_decode && multi &&
                       phy::TurboBatchDecoder::lane_capacity(cfg.isa) > 1;
          j.in = {u.sys[bi], u.p1[bi], u.p2[bi]};
          j.hard = u.hard[bi];
          j.out = &u.out[bi];
          jobs.push_back(j);
        }
      }
      ws.arena().reset();
      timed(turbo, spans, "phy.turbo_decode", parent, [&] {
        sched.begin();
        sched.submit(jobs);
        sched.run(ws, nullptr);
      });
      for (Ue& u : ues) {
        bool all_ok = true;
        for (const auto& o : u.out) {
          all_ok = all_ok && o.crc_ok;
          iter_sum += o.iterations;
          ++kt.blocks;
        }
        bool crc_ok = false;
        timed(deseg, spans, "phy.crc_deseg", parent, [&] {
          const bool seg_ok = phy::desegment_bits(u.views, u.plan, u.bits);
          const bool tb_ok = phy::crc_check(u.bits, phy::CrcType::k24A);
          crc_ok = seg_ok && all_ok && tb_ok;
          pack_bits_into(std::span<const std::uint8_t>(u.bits).first(
                             u.bits.size() - 24),
                         u.pdu);
        });
        if (!crc_ok) {
          ++kt.crc_fail;
          continue;
        }
        std::optional<mac::MacSdu> sdu;
        timed(mac_us, spans, "mac.pdu_parse", parent,
              [&] { sdu = mac::mac_parse_pdu(u.pdu); });
        if (!sdu.has_value()) {
          kt.bytes_ok = false;
          continue;
        }
        std::vector<std::uint8_t> egress;
        timed(gtpu, spans, "net.gtpu_encap", parent, [&] {
          egress = net::gtpu_encapsulate(u.cfg->teid, sdu->data);
        });
        const auto decap = net::gtpu_decapsulate(egress);
        kt.bytes_ok = kt.bytes_ok && decap.has_value() &&
                      decap->inner == *u.packet;
      }
      spans.record("kernel_tti", tti_begin, tti_id, -1);
      per_tti["ue_tx"].push_back(tx);
      per_tti["channel"].push_back(chan);
      per_tti["ofdm_rx"].push_back(ofdm_rx);
      per_tti["demap"].push_back(demap);
      per_tti["descramble"].push_back(descr);
      per_tti["dematch"].push_back(dematch);
      per_tti["apcm"].push_back(apcm);
      per_tti["turbo"].push_back(turbo);
      per_tti["deseg"].push_back(deseg);
      per_tti["mac"].push_back(mac_us);
      per_tti["gtpu"].push_back(gtpu);
    }
  }
  const auto med = [&](const char* k) { return median(per_tti[k]) * scale; };
  kt.ue_tx_us = med("ue_tx");
  kt.channel_us = med("channel");
  kt.ofdm_rx_us = med("ofdm_rx");
  kt.demap_us = med("demap");
  kt.descramble_us = med("descramble");
  kt.dematch_us = med("dematch");
  kt.apcm_us = med("apcm");
  kt.turbo_us = med("turbo");
  kt.crc_deseg_us = med("deseg");
  kt.mac_parse_us = med("mac");
  kt.gtpu_encap_us = med("gtpu");
  kt.turbo_iters = kt.blocks == 0 ? 0 : iter_sum / double(kt.blocks);
  return kt;
}

void add_kernel_metrics(Result& r, const KernelTimes& k, double run_tti_us) {
  auto& L = r.layer;
  L.push_back({"phy.ue_tx_us", k.ue_tx_us, "us"});
  L.push_back({"phy.channel_us", k.channel_us, "us"});
  L.push_back({"phy.ofdm_rx_us", k.ofdm_rx_us, "us"});
  L.push_back({"phy.demap_us", k.demap_us, "us"});
  L.push_back({"phy.descramble_us", k.descramble_us, "us"});
  L.push_back({"phy.dematch_us", k.dematch_us, "us"});
  L.push_back({"arrange.apcm_us", k.apcm_us, "us"});
  L.push_back({"phy.turbo_decode_us", k.turbo_us, "us"});
  L.push_back({"phy.turbo_iters", k.turbo_iters, "count"});
  L.push_back({"phy.crc_deseg_us", k.crc_deseg_us, "us"});
  L.push_back({"mac.pdu_parse_us", k.mac_parse_us, "us"});
  L.push_back({"net.gtpu_encap_us", k.gtpu_encap_us, "us"});
  L.push_back({"pipeline.run_tti_us", run_tti_us, "us"});
  L.push_back({"pipeline.glue_us", run_tti_us - k.total_sum(), "us"});
  r.check(k.bytes_ok, "kernel pass: good-CRC egress differs from the packet");

  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "reconcile: kernels %.1f us (receive %.1f + testbed %.1f) vs "
                "run_tti p50 %.1f us: gap %.1f us (%.1f%%)",
                k.total_sum(), k.receive_sum(), k.ue_tx_us + k.channel_us,
                run_tti_us, run_tti_us - k.total_sum(),
                run_tti_us > 0
                    ? 100.0 * (run_tti_us - k.total_sum()) / run_tti_us
                    : 0.0);
  r.note(buf);
  std::snprintf(buf, sizeof(buf),
                "kernel pass: %llu code blocks, %llu CRC failures, %.2f turbo "
                "iterations per block",
                static_cast<unsigned long long>(k.blocks),
                static_cast<unsigned long long>(k.crc_fail), k.turbo_iters);
  r.note(buf);
}

}  // namespace perfbench
