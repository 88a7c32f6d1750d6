// perfbench — the receiver benchmark (see ../README.md).
//
//   perfbench --workload cell_bulk|cell_small|multicell_1ms --seed N
//             --seconds S --trace 0|1 [--out DIR]
//
// Prints the human-readable sample counts, checks and (traced) per-layer
// table, a provenance line, and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when an output check fails, and 3 without a result line when
// the run is invalid (the open-loop generator fell behind its schedule).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench/bench_util.h"
#include "perfbench.h"

namespace {

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cell_bulk|cell_small|"
               "multicell_1ms --seed N --seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::atoi(v) != 0;
    else if (k == "--inject") a.inject = v;
    else if (k == "--out") a.out_dir = v;
    else return usage();
  }
  if (a.seconds <= 0) return usage();
  if (!a.inject.empty() && a.inject != "corrupt_egress" &&
      a.inject != "break_conservation") {
    return usage();
  }

  perfbench::Result r;
  try {
    if (a.workload == "cell_bulk") {
      r = perfbench::run_cell(a, /*small=*/false);
    } else if (a.workload == "cell_small") {
      r = perfbench::run_cell(a, /*small=*/true);
    } else if (a.workload == "multicell_1ms") {
      r = perfbench::run_multicell(a);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const auto& metrics = a.trace ? r.layer : r.e2e;
  for (const auto& m : metrics) {
    r.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }

  std::printf("== %s seed=%llu seconds=%g trace=%d isa=%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, vran::isa_name(vran::best_isa()));
  for (const auto& n : r.notes) std::printf("%s\n", n.c_str());
  for (const auto& m : metrics) {
    std::printf("  %-34s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& e : r.errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  char buf[128];
  std::string meta = "{\"workload\": \"" + a.workload + "\", \"seed\": " +
                     std::to_string(a.seed) + ", \"isa_used\": \"" +
                     vran::isa_name(vran::best_isa()) + "\", \"trace\": " +
                     (a.trace ? "true" : "false") + ", \"host\": " +
                     vran::bench::meta_json(-1) + "}";
  std::printf("meta: %s\n", meta.c_str());
  if (!r.valid) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: invalid run, no result\n");
    return r.correct ? 3 : 1;
  }

  std::string j = "{\"correct\": ";
  j += r.correct ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(r.attempted);
  j += ", \"failed\": " + std::to_string(r.failed);
  j += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    std::snprintf(buf, sizeof(buf), "%.10g",
                  std::isfinite(m.value) ? m.value : 0.0);
    j += (i ? ", \"" : "\"") + json_escape(m.name) + "\": {\"value\": " + buf +
         ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  j += "}}";

  if (!a.out_dir.empty()) {
    std::ofstream out(a.out_dir + "/result_" + a.workload + "_seed" +
                      std::to_string(a.seed) + "_trace" +
                      (a.trace ? "1" : "0") + ".json");
    out << "{\"meta\": " << meta << ", \"result\": " << j << "}\n";
  }
  std::printf("%s\n", j.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
