#include <dirent.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "net/packet.h"
#include "perfbench.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

int current_tid() { return static_cast<int>(syscall(SYS_gettid)); }

std::vector<std::pair<int, double>> task_cpu_s() {
  std::vector<std::pair<int, double>> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  const double tick = double(sysconf(_SC_CLK_TCK));
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    std::ifstream f(std::string("/proc/self/task/") + e->d_name + "/stat");
    std::string line;
    std::getline(f, line);
    // Fields after the parenthesised comm: state is field 3, utime and
    // stime are fields 14 and 15.
    const auto close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 2));
    std::string tok;
    double utime = 0, stime = 0;
    for (int field = 3; field <= 15 && (rest >> tok); ++field) {
      if (field == 14) utime = std::atof(tok.c_str());
      if (field == 15) stime = std::atof(tok.c_str());
    }
    out.emplace_back(std::atoi(e->d_name), (utime + stime) / tick);
  }
  closedir(dir);
  std::sort(out.begin(), out.end());
  return out;
}

Quantiles quantiles(std::vector<double>& v) {
  Quantiles q;
  q.n = v.size();
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const auto rank = [&](double p) {
    const auto r = static_cast<std::size_t>(std::ceil(p * double(v.size())));
    return std::min(v.size() - 1, r == 0 ? 0 : r - 1);
  };
  q.p50 = v[rank(0.50)];
  const std::size_t i99 = rank(0.99);
  q.p99 = v[i99];
  q.beyond_p99 = v.size() - 1 - i99;
  return q;
}

double median(std::vector<double> v) { return quantiles(v).p50; }

std::string describe(const char* name, const Quantiles& q, double scale,
                     const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-16s p50=%.4f %s  p99=%.4f %s  (n=%zu, %zu beyond p99)%s",
                name, q.p50 * scale, unit, q.p99 * scale, unit, q.n,
                q.beyond_p99,
                q.beyond_p99 < 10 ? "  WARNING: p99 tail under 10 samples"
                                  : "");
  return buf;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return vran::splitmix64(seed ^ vran::splitmix64(a * 0x9E3779B97F4A7C15ull ^
                                                   vran::splitmix64(b)));
}

std::vector<std::uint8_t> make_packet(int bytes, int flow,
                                      vran::Xoshiro256& rng) {
  const int payload_bytes =
      bytes - vran::net::kIpv4HeaderBytes - vran::net::kUdpHeaderBytes;
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(payload_bytes));
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
  vran::net::Ipv4Header ip;
  ip.src = 0x0A000001u + static_cast<std::uint32_t>(flow);
  ip.dst = 0x08080808u;
  ip.id = static_cast<std::uint16_t>(rng.next());
  vran::net::UdpHeader udp;
  udp.src_port = static_cast<std::uint16_t>(40000 + flow);
  udp.dst_port = 5201;
  return vran::net::build_udp_packet(ip, udp, payload);
}

vran::pipeline::PipelineConfig flow_config(std::uint64_t seed, int flow) {
  vran::pipeline::PipelineConfig c;
  c.mcs = 20;
  c.max_prb = 25;
  c.snr_db = 18.0;
  c.isa = vran::best_isa();
  c.batch_decode = true;
  c.rnti = static_cast<std::uint16_t>(0x1000 + flow);
  c.teid = 0x100u + static_cast<std::uint32_t>(flow);
  c.noise_seed = mix(seed, 1, static_cast<std::uint64_t>(flow));
  c.metrics = nullptr;
  c.trace = nullptr;
  c.pmu = false;
  return c;
}

void write_trace(const Args& a, const vran::obs::TraceRecorder& rec,
                 Result& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "trace: %zu spans retained, %llu dropped",
                rec.size(), static_cast<unsigned long long>(rec.dropped()));
  r.note(buf);
  r.check(rec.dropped() == 0, "trace ring dropped spans (trace incomplete)");
  if (a.out_dir.empty()) return;
  const std::string path = a.out_dir + "/trace_" + a.workload + "_seed" +
                           std::to_string(a.seed) + ".json";
  if (rec.write_chrome_json(path)) {
    r.note("trace: wrote " + path);
  } else {
    r.check(false, "could not write " + path);
  }
}

}  // namespace perfbench
