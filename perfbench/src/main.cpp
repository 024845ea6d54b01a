// perfbench — the repository benchmark program.
//
//   perfbench --workload offline|sweep --seed N --seconds S
//             --trace 0|1 --workdir DIR [--small] [--break CHECK]
//
// Links the perturb libraries and times calls into their public functions
// from outside.  With --trace 0 it measures the end-to-end metrics; with
// --trace 1 it records a span around every public call and reports the
// per-layer metrics instead.  Every run checks its outputs; a failed check
// counts as a failed operation and makes the exit code 1.  The last line of
// stdout is one JSON object {"attempted", "failed", "values"} mapping each
// measured metric's name to its value; run.py adds the units and directions
// BENCHMARK.json gives them.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload offline|sweep --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--small] "
               "[--break CHECK]\n",
               why);
  return 2;
}

void print_detail_line(const perfbench::Metric& m) {
  std::printf("%-7s %-36s %18.6f %-9s %s\n", "detail", m.name.c_str(),
              m.value, m.unit.c_str(), m.better.c_str());
}

/// A JSON number with all its digits; null for a value that is not finite
/// (a failed job's latency), whose failure the failed count already carries.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// Milliseconds a fixed single-threaded integer kernel takes (median of 5).
/// Printed with every run so machine-speed drift between runs is visible
/// next to the metrics; it enters no metric.
double calibration_ms() {
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t start = perfbench::now_ns();
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 20000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    // The kernel's result feeds the figure (by at most 1e-9 ms), so the
    // loop cannot be optimized away.
    ms.push_back(static_cast<double>(perfbench::now_ns() - start) * 1e-6 +
                 static_cast<double>(x & 1) * 1e-9);
  }
  return perfbench::median(ms);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const bool has_value = i + 1 < args.size();
    if (a == "--small") {
      options.small = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      options.workload = args[++i];
    } else if (a == "--seed") {
      options.seed = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      options.seconds = std::strtod(args[++i].c_str(), nullptr);
    } else if (a == "--trace") {
      options.trace = args[++i] == "1";
    } else if (a == "--workdir") {
      options.workdir = args[++i];
    } else if (a == "--break") {
      options.break_check = args[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (options.workload != "offline" && options.workload != "sweep")
    return usage("--workload must be offline or sweep");
  if (options.workdir.empty()) return usage("--workdir is required");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");
  options.threads = std::min<std::size_t>(
      2, std::max(1u, std::thread::hardware_concurrency()));

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.small ? " size=small" : "");
  std::printf("build compiler=\"%s\" type=%s flags=\"%s\" nproc=%u "
              "threads=%zu\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_FLAGS,
              std::thread::hardware_concurrency(), options.threads);

  perfbench::Report report;
  report.add_detail("host_calibration_ms", calibration_ms(), "ms", "lower");
  try {
    if (options.workload == "offline")
      perfbench::run_offline(options, report);
    else
      perfbench::run_sweep(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 4;
  }

  for (const std::string& f : report.failures)
    std::printf("FAILED  %s\n", f.c_str());
  for (const perfbench::Metric& m : report.detail) print_detail_line(m);

  std::string json = "{\"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"values\": {";
  bool first = true;
  for (const auto& [name, value] : report.values) {
    json += (first ? "\"" : ", \"") + name + "\": " + json_number(value);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.failed == 0 ? 0 : 1;
}
