// perfbench_workload: runs one benchmark workload in this process and prints
// its result as one JSON line. perfbench/run.py builds and drives it.
//
//   perfbench_workload --workload agent_durable --seed 1 --seconds 30 --trace 0
//                      [--specs specs] [--state-dir DIR]
//
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/workloads.h"

namespace perfbench {
namespace {

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void Print(const RunOptions& options, const Report& report) {
  std::string out = "{\"workload\": " + Quote(options.workload) +
                    ", \"seed\": " + std::to_string(options.seed) +
                    ", \"trace\": " + (options.trace ? "1" : "0") +
                    ", \"correct\": " + (report.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(report.attempted) +
                    ", \"failed\": " + std::to_string(report.failed) +
                    ", \"reps\": " + std::to_string(report.reps) + ", \"checks\": [";
  const char* sep = "";
  for (const Check& check : report.checks) {
    out += sep;
    out += "{\"name\": " + Quote(check.name) + ", \"ok\": " + (check.ok ? "true" : "false") +
           ", \"detail\": " + Quote(check.detail) + "}";
    sep = ", ";
  }
  out += "], \"metrics\": {";
  sep = "";
  for (const auto& [name, metric] : report.metrics) {
    out += sep;
    out += Quote(name) + ": {\"value\": " + Number(metric.value) +
           ", \"unit\": " + Quote(metric.unit) +
           ", \"samples\": " + std::to_string(metric.samples) + "}";
    sep = ", ";
  }
  out += "}";
  out += ", \"build\": {\"compiler\": " + Quote(PERFBENCH_COMPILER) +
         ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
         ", \"flags\": " + Quote(PERFBENCH_CXX_FLAGS) + "}}";
  std::puts(out.c_str());
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value != "0";
    } else if (flag == "--specs") {
      options.specs_dir = value;
    } else if (flag == "--state-dir") {
      options.state_dir = value;
    } else {
      std::fprintf(stderr, "perfbench_workload: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!have_workload || argc % 2 == 0) {
    std::fprintf(stderr, "usage: perfbench_workload --workload NAME [--seed N] [--seconds S] "
                         "[--trace 0|1] [--specs DIR] [--state-dir DIR]\n");
    return 2;
  }
  // Before any set-up: REPORT and engine diagnostics are formatted as usual
  // but never written, so the timed loop does no terminal I/O.
  InstallCountingLogSink();
  const std::optional<Report> report = RunWorkload(options);
  if (!report) {
    std::fprintf(stderr, "perfbench_workload: unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  Print(options, *report);
  return report->correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
