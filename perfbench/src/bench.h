#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probe.h"

namespace perfbench {

/// Command-line settings of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  /// service-mixed: run the /healthz probe and the scrapes. Turned off only
  /// to show that they do not change the other figures.
  bool http_sampling = true;
  std::string work_dir;  // Scratch space for journals; removed afterwards.
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload measured and checked.
struct Report {
  /// End-to-end metrics every workload reports (the gated set).
  std::map<std::string, Metric> end_to_end;
  /// End-to-end metrics printed but not gated: the ones only some workloads
  /// define, and trial_p90_ms, whose run-to-run spread on a shared VM left
  /// too little margin under the largest allowed bound.
  std::map<std::string, Metric> ungated;
  /// Per-layer metrics of the traced run.
  std::map<std::string, Metric> per_layer;
  /// Human-readable lines printed before the result (layer table etc.).
  std::vector<std::string> notes;
  /// Correctness failures; empty means every check passed.
  std::vector<std::string> errors;
  int64_t attempted = 0;
  int64_t failed = 0;

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

/// Counter values and span-histogram sums/counts of the program's
/// process-wide metrics registry. Only counts and sums are read from it:
/// quantiles always come from the benchmark's own raw samples.
class RegistrySnapshot {
 public:
  static RegistrySnapshot Take();
  /// Growth of a counter ("bo.sparse_switches"), a span histogram's sum in
  /// seconds ("span.bo.fit:sum") or its count ("span.bo.fit:count").
  double Delta(const RegistrySnapshot& before, const std::string& key) const;

 private:
  std::map<std::string, double> values_;
};

/// Durations of `calls`, in ms.
std::vector<double> DurationsMs(const std::vector<Call>& calls);

/// Adds every per-layer metric, set to 0; a workload overwrites the ones
/// whose layers it exercises.
void FillPerLayerDefaults(Report* report);

/// Sets the optimizers.{suggest,observe,checkpoint}.* and sim.* metrics from
/// the decorated calls of `probes`, and the surrogate.* metrics from the
/// registry's growth between `before` and `after`.
void ReportCallLayers(const std::vector<const Probe*>& probes,
                      const RegistrySnapshot& before,
                      const RegistrySnapshot& after, Report* report);

/// Time accounting of a sequence of `StepTrial` calls against the probe's
/// child calls: adds the suggest/observe/sim/self rows to the per-layer
/// metrics, checks that exactly one suggest, run and observe nest inside
/// each trial, and checks the decorated calls against the program's own
/// loop.suggest/evaluate/observe spans between `before` and `after`.
void AccountSteps(const std::vector<Call>& steps, const Probe& probe,
                  double wall_s, const RegistrySnapshot& before,
                  const RegistrySnapshot& after, Report* report);

std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

void RunFreshSession(const RunOptions& options, Report* report);
void RunLongHistory(const RunOptions& options, Report* report);
void RunServiceMixed(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
