// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload fresh-session|long-history|service-mixed
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//             [--sampling 0|1]
//
// Prints the measured metrics by name with their units, then, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}:
// with --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.
// See perfbench/README.md for the workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"
#include "stats.h"

namespace {

using perfbench::Metric;
using perfbench::Report;

bool ParseArgs(int argc, char** argv, perfbench::RunOptions* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--sampling") {
      options->http_sampling = value != "0";
    } else if (flag == "--work-dir") {
      options->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() &&
         !options->work_dir.empty() && options->seconds > 0;
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void PrintMetrics(const char* title,
                  const std::map<std::string, Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-36s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

std::string ResultLine(const Report& report,
                       const std::map<std::string, Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += report.errors.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + Number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  return line + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--sampling 0|1]\n");
    return 2;
  }
  Report report;
  const std::string quantile_check = perfbench::CheckQuantile();
  report.Check(quantile_check.empty(),
               "percentile self-check: " + quantile_check);

  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);
  if (options.workload == "fresh-session") {
    perfbench::RunFreshSession(options, &report);
  } else if (options.workload == "long-history") {
    perfbench::RunLongHistory(options, &report);
  } else if (options.workload == "service-mixed") {
    perfbench::RunServiceMixed(options, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  std::filesystem::remove_all(options.work_dir);
  report.end_to_end["peak_rss_mb"] = {perfbench::PeakRssMb(), "MB"};
  report.ungated["error_rate"] = {
      report.attempted > 0
          ? static_cast<double>(report.failed) / report.attempted
          : 0.0,
      "ratio"};

  std::printf("workload %s, seed %llu, trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
  PrintMetrics("end-to-end:", report.end_to_end);
  PrintMetrics("end-to-end, not gated:", report.ungated);
  if (options.trace) PrintMetrics("per-layer:", report.per_layer);
  for (const std::string& error : report.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  std::printf("%s\n",
              ResultLine(report, options.trace ? report.per_layer
                                               : report.end_to_end)
                  .c_str());
  std::fflush(stdout);
  return 0;
}
