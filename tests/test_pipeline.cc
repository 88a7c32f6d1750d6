// End-to-end pipeline integration tests: uplink and downlink loopback
// across MCS / SNR / packet-size / arrangement-method combinations.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "net/gtpu.h"
#include "net/pktgen.h"
#include "obs/pmu.h"
#include "pipeline/pipeline.h"

namespace vran::pipeline {
namespace {

PipelineConfig base_config() {
  PipelineConfig cfg;
  cfg.isa = best_isa() >= IsaLevel::kSse41 ? IsaLevel::kSse41
                                           : IsaLevel::kScalar;
  cfg.snr_db = 25.0;
  return cfg;
}

std::vector<std::uint8_t> make_packet(int bytes, net::L4Proto proto) {
  net::FlowConfig fc;
  fc.packet_bytes = bytes;
  fc.proto = proto;
  net::PacketGenerator gen(fc);
  return gen.next();
}

TEST(Uplink, DeliversUdpPacketThroughGtpu) {
  UplinkPipeline ul(base_config());
  const auto pkt = make_packet(512, net::L4Proto::kUdp);
  const auto res = ul.send_packet(pkt);
  ASSERT_TRUE(res.delivered);
  EXPECT_TRUE(res.crc_ok);
  EXPECT_GT(res.latency_seconds, 0.0);

  const auto gtpu = net::gtpu_decapsulate(res.egress);
  ASSERT_TRUE(gtpu.has_value());
  EXPECT_EQ(gtpu->inner, pkt);
  EXPECT_GE(net::PacketGenerator::verify(gtpu->inner), 0);
}

TEST(Uplink, AllPacketSizes) {
  UplinkPipeline ul(base_config());
  for (int size : {64, 128, 256, 512, 1024, 1500}) {
    const auto pkt = make_packet(size, net::L4Proto::kUdp);
    const auto res = ul.send_packet(pkt);
    EXPECT_TRUE(res.delivered) << size;
  }
}

TEST(Uplink, TcpPacketsDeliver) {
  UplinkPipeline ul(base_config());
  const auto pkt = make_packet(1500, net::L4Proto::kTcp);
  const auto res = ul.send_packet(pkt);
  ASSERT_TRUE(res.delivered);
  const auto gtpu = net::gtpu_decapsulate(res.egress);
  ASSERT_TRUE(gtpu.has_value());
  EXPECT_EQ(gtpu->inner, pkt);
}

TEST(Uplink, LargePacketSegmentsIntoMultipleCodeBlocks) {
  auto cfg = base_config();
  cfg.mcs = 20;  // enough TBS headroom at 25 PRB
  UplinkPipeline ul(cfg);
  const auto pkt = make_packet(1500, net::L4Proto::kUdp);
  const auto res = ul.send_packet(pkt);
  EXPECT_TRUE(res.delivered);
  EXPECT_GE(res.code_blocks, 2u);
}

TEST(Uplink, ArrangementMethodsAllDeliver) {
  for (auto method : {arrange::Method::kScalar, arrange::Method::kExtract,
                      arrange::Method::kApcm}) {
    auto cfg = base_config();
    cfg.arrange_method = method;
    UplinkPipeline ul(cfg);
    const auto pkt = make_packet(1024, net::L4Proto::kUdp);
    const auto res = ul.send_packet(pkt);
    EXPECT_TRUE(res.delivered) << arrange::method_name(method);
    EXPECT_GT(res.arrange_seconds, 0.0);
  }
}

TEST(Uplink, WiderIsaDelivers) {
  for (auto isa : {IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (isa > best_isa()) continue;
    auto cfg = base_config();
    cfg.isa = isa;
    UplinkPipeline ul(cfg);
    const auto pkt = make_packet(1500, net::L4Proto::kUdp);
    EXPECT_TRUE(ul.send_packet(pkt).delivered) << isa_name(isa);
  }
}

TEST(Uplink, VeryLowSnrFailsCrc) {
  auto cfg = base_config();
  cfg.snr_db = -10.0;
  cfg.max_turbo_iterations = 4;
  UplinkPipeline ul(cfg);
  const auto pkt = make_packet(512, net::L4Proto::kUdp);
  const auto res = ul.send_packet(pkt);
  EXPECT_FALSE(res.crc_ok);
  EXPECT_FALSE(res.delivered);
}

TEST(Uplink, StageTimesPopulated) {
  UplinkPipeline ul(base_config());
  const auto pkt = make_packet(1500, net::L4Proto::kUdp);
  ul.send_packet(pkt);
  const auto entries = ul.times().entries();
  EXPECT_GE(entries.size(), 10u);
  double total = 0;
  bool has_arrange = false;
  for (const auto& e : entries) {
    EXPECT_GE(e.seconds, 0.0) << e.name;
    total += e.seconds;
    has_arrange = has_arrange || e.name == "Data arrangement";
  }
  EXPECT_TRUE(has_arrange);
  EXPECT_GT(total, 0.0);
  ul.times().reset();
  EXPECT_TRUE(ul.times().entries().empty());
}

// Pins the exported stage names: bench_e2e's stages_us_per_tti and the
// committed BENCH_PR*.json gates key on the display names; fig13,
// fig16, vran_top and the postmortem --expect-stage check read the
// "stage.<name>_ns" histograms.
TEST(StageNames, ExportedHistogramsAndDisplayOrder) {
  obs::MetricsRegistry reg;
  auto cfg = base_config();
  cfg.metrics = &reg;
  UplinkPipeline ul(cfg);
  DownlinkPipeline dl(cfg);
  const auto pkt = make_packet(1024, net::L4Proto::kUdp);
  ASSERT_TRUE(ul.send_packet(pkt).delivered);
  ASSERT_TRUE(dl.send_packet(pkt).delivered);

  std::vector<std::string> hists;
  for (const auto& [name, h] : reg.snapshot().histograms) {
    if (name.rfind("stage.", 0) != 0) continue;
    hists.push_back(name);
    EXPECT_GT(h.count, 0u) << name;  // between them, the two ran every stage
  }
  std::sort(hists.begin(), hists.end());
  const std::vector<std::string> want_hists = {
      "stage.arrange_ns",        "stage.channel_ns",
      "stage.crc_segmentation_ns", "stage.dci_ns",
      "stage.demodulation_ns",   "stage.descramble_ns",
      "stage.desegmentation_ns", "stage.gtpu_ns",
      "stage.mac_ns",            "stage.modulation_ns",
      "stage.ofdm_rx_ns",        "stage.ofdm_tx_ns",
      "stage.rate_dematch_ns",   "stage.rate_match_ns",
      "stage.scramble_ns",       "stage.turbo_decode_ns",
      "stage.turbo_encode_ns"};
  EXPECT_EQ(hists, want_hists);

  StageTimes all = ul.times();
  all.merge(dl.times());
  std::vector<std::string> names;
  for (const auto& e : all.entries()) names.push_back(e.name);
  const std::vector<std::string> want_names = {
      "MAC",          "CRC+segmentation", "Turbo encoding", "Rate matching",
      "Scrambling",   "Modulation",       "OFDM (tx)",      "Channel",
      "OFDM (rx)",    "Demodulation",     "Descrambling",   "Rate dematch",
      "Data arrangement", "Turbo decoding", "Desegmentation", "GTP-U",
      "DCI"};
  EXPECT_EQ(names, want_names);
}

// Runs only where perf_event_open is granted: the arrangement stage
// feeds its own PMU counters rather than turbo decoding's.
TEST(StagePmu, ArrangementCountsItsOwnCycles) {
  if (!obs::pmu_available()) GTEST_SKIP() << "no perf access on this host";
  obs::MetricsRegistry reg;
  auto cfg = base_config();
  cfg.metrics = &reg;
  cfg.pmu = true;
  UplinkPipeline ul(cfg);
  ASSERT_TRUE(ul.send_packet(make_packet(1024, net::L4Proto::kUdp)).delivered);
  std::uint64_t cycles = 0;
  for (const auto& [name, v] : reg.snapshot().counters) {
    if (name == "pmu.stage.arrange.cycles") cycles = v;
  }
  EXPECT_GT(cycles, 0u);
}

TEST(Uplink, NoChannelModeIsDeterministic) {
  auto cfg = base_config();
  cfg.with_channel = false;
  UplinkPipeline a(cfg), b(cfg);
  const auto pkt = make_packet(800, net::L4Proto::kUdp);
  const auto ra = a.send_packet(pkt);
  const auto rb = b.send_packet(pkt);
  ASSERT_TRUE(ra.delivered);
  ASSERT_TRUE(rb.delivered);
  EXPECT_EQ(ra.egress, rb.egress);
  EXPECT_EQ(ra.turbo_iterations, 1);  // noiseless: CRC passes first pass
}

TEST(Downlink, DeliversWithDciGrant) {
  DownlinkPipeline dl(base_config());
  const auto pkt = make_packet(1024, net::L4Proto::kUdp);
  const auto res = dl.send_packet(pkt);
  ASSERT_TRUE(res.delivered);
  EXPECT_EQ(res.egress, pkt);
  EXPECT_GT(dl.times()[Stage::kDci].total_seconds(), 0.0);
}

TEST(Downlink, SequentialPacketsKeepDelivering) {
  DownlinkPipeline dl(base_config());
  net::FlowConfig fc;
  fc.packet_bytes = 700;
  net::PacketGenerator gen(fc);
  for (int i = 0; i < 8; ++i) {
    const auto res = dl.send_packet(gen.next());
    EXPECT_TRUE(res.delivered) << i;
    EXPECT_EQ(net::PacketGenerator::verify(res.egress), i);
  }
}

TEST(Pipeline, TimeDomainSnrCompensatesFftGain) {
  EXPECT_NEAR(time_domain_snr_db(10.0, 512), 10.0 + 10.0 * std::log10(512.0),
              1e-9);
}

TEST(Pipeline, ApcmAndExtractProduceIdenticalEgress) {
  auto cfg = base_config();
  cfg.with_channel = false;
  cfg.arrange_method = arrange::Method::kExtract;
  UplinkPipeline a(cfg);
  cfg.arrange_method = arrange::Method::kApcm;
  UplinkPipeline b(cfg);
  const auto pkt = make_packet(1500, net::L4Proto::kUdp);
  const auto ra = a.send_packet(pkt);
  const auto rb = b.send_packet(pkt);
  ASSERT_TRUE(ra.delivered);
  ASSERT_TRUE(rb.delivered);
  EXPECT_EQ(ra.egress, rb.egress);
}

}  // namespace
}  // namespace vran::pipeline

namespace vran::pipeline {
namespace {

// ---------------------------------------------------------------------------
// HARQ retransmission with soft combining.
// ---------------------------------------------------------------------------

TEST(Harq, RecoversAtSnrWhereSingleShotFails) {
  // Pick an SNR where one transmission reliably fails CRC; four
  // incremental-redundancy transmissions must pull the block through.
  auto cfg = base_config();
  cfg.snr_db = 11.5;
  cfg.mcs = 20;
  cfg.max_turbo_iterations = 6;

  cfg.harq_max_tx = 1;
  UplinkPipeline single(cfg);
  cfg.harq_max_tx = 4;
  UplinkPipeline harq(cfg);

  const auto pkt = make_packet(700, net::L4Proto::kUdp);
  int single_ok = 0, harq_ok = 0, harq_tx_total = 0;
  const int trials = 6;
  for (int i = 0; i < trials; ++i) {
    single_ok += single.send_packet(pkt).delivered ? 1 : 0;
    const auto res = harq.send_packet(pkt);
    harq_ok += res.delivered ? 1 : 0;
    harq_tx_total += res.transmissions;
  }
  EXPECT_LT(single_ok, trials);          // single shot struggles here
  EXPECT_EQ(harq_ok, trials);            // HARQ always delivers
  EXPECT_GT(harq_tx_total, trials);      // and actually retransmitted
}

TEST(Harq, CleanChannelUsesOneTransmission) {
  auto cfg = base_config();
  cfg.harq_max_tx = 4;
  cfg.snr_db = 25.0;
  UplinkPipeline ul(cfg);
  const auto pkt = make_packet(512, net::L4Proto::kUdp);
  const auto res = ul.send_packet(pkt);
  EXPECT_TRUE(res.delivered);
  EXPECT_EQ(res.transmissions, 1);
}

TEST(Harq, ExhaustedAttemptsReportFailure) {
  auto cfg = base_config();
  cfg.harq_max_tx = 2;
  cfg.snr_db = -5.0;  // hopeless channel
  cfg.max_turbo_iterations = 3;
  UplinkPipeline ul(cfg);
  const auto pkt = make_packet(256, net::L4Proto::kUdp);
  const auto res = ul.send_packet(pkt);
  EXPECT_FALSE(res.delivered);
  EXPECT_EQ(res.transmissions, 2);
}

TEST(Harq, PayloadIntactAfterRetransmissions) {
  auto cfg = base_config();
  cfg.snr_db = 11.5;
  cfg.harq_max_tx = 4;
  UplinkPipeline ul(cfg);
  const auto pkt = make_packet(900, net::L4Proto::kTcp);
  const auto res = ul.send_packet(pkt);
  ASSERT_TRUE(res.delivered);
  const auto gtpu = net::gtpu_decapsulate(res.egress);
  ASSERT_TRUE(gtpu.has_value());
  EXPECT_EQ(gtpu->inner, pkt);
}

}  // namespace
}  // namespace vran::pipeline
