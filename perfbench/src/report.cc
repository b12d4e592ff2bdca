#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "bench.h"
#include "obs/metrics.h"
#include "stats.h"

namespace perfbench {

namespace {

const char* const kCounters[] = {"bo.surrogate_refits",
                                 "bo.surrogate_incremental_updates",
                                 "bo.sparse_switches", "loop.incumbent_updates"};
const char* const kSpans[] = {"span.bo.fit",       "span.bo.observe_incremental",
                              "span.fleet.tick",   "span.service.trial",
                              "span.loop.suggest", "span.loop.evaluate",
                              "span.loop.observe"};
/// The decorated suggest, run and observe calls must account for at least
/// this share of the program's loop.suggest/evaluate/observe spans, which
/// wrap them.
constexpr double kMinSpanCoverage = 0.97;

/// Every per-layer metric, with its unit. A workload that does not
/// exercise a layer reports 0 for it.
const struct {
  const char* name;
  const char* unit;
} kPerLayer[] = {
    {"optimizers.suggest.count", "count"},
    {"optimizers.suggest.busy_s", "s"},
    {"optimizers.suggest.p50_ms", "ms"},
    {"optimizers.suggest.p90_ms", "ms"},
    {"optimizers.observe.count", "count"},
    {"optimizers.observe.busy_s", "s"},
    {"optimizers.observe.p90_ms", "ms"},
    {"optimizers.checkpoint.busy_s", "s"},
    {"optimizers.improve_ratio", "ratio"},
    {"surrogate.refits", "count"},
    {"surrogate.incremental_updates", "count"},
    {"surrogate.incremental_ratio", "ratio"},
    {"surrogate.sparse_switches", "count"},
    {"surrogate.fit_busy_s", "s"},
    {"surrogate.observe_busy_s", "s"},
    {"sim.run.count", "count"},
    {"sim.run.busy_s", "s"},
    {"sim.failed_ratio", "ratio"},
    {"core.step.self_ms", "ms"},
    {"obs.journal.bytes", "bytes"},
    {"obs.journal.bytes_per_trial", "bytes"},
    {"record.replay_ms", "ms"},
    {"core.resume_ms", "ms"},
    {"core.first_live_trial_ms", "ms"},
    {"service.dispatch_gap_p50_ms", "ms"},
    {"service.dispatch_gap_p90_ms", "ms"},
    {"service.admit_p50_ms", "ms"},
    {"service.admit_p90_ms", "ms"},
    {"service.http.metrics.p50_ms", "ms"},
    {"service.http.metrics.p99_ms", "ms"},
    {"service.http.fleet_statusz.p50_ms", "ms"},
    {"service.http.fleet_statusz.p99_ms", "ms"},
    {"service.fleet_tick.count", "count"},
    {"service.fleet_tick.busy_s", "s"},
    {"service.gen_lag_p99_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

/// The calls of `calls` (sorted by start) that lie inside [start, end].
double BusyWithin(const std::vector<Call>& calls, int64_t start, int64_t end,
                  int* count) {
  double busy_ms = 0.0;
  auto it = std::lower_bound(
      calls.begin(), calls.end(), start,
      [](const Call& call, int64_t t) { return call.start_ns < t; });
  for (; it != calls.end() && it->start_ns <= end; ++it) {
    if (it->end_ns <= end) {
      busy_ms += it->ms();
      ++*count;
    }
  }
  return busy_ms;
}

}  // namespace

std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

RegistrySnapshot RegistrySnapshot::Take() {
  autotune::obs::MetricsRegistry& registry =
      autotune::obs::MetricsRegistry::Global();
  RegistrySnapshot snapshot;
  for (const char* name : kCounters) {
    snapshot.values_[name] =
        static_cast<double>(registry.GetCounter(name)->value());
  }
  for (const char* name : kSpans) {
    const autotune::obs::Histogram* histogram = registry.GetHistogram(name);
    snapshot.values_[std::string(name) + ":sum"] = histogram->sum();
    snapshot.values_[std::string(name) + ":count"] =
        static_cast<double>(histogram->count());
  }
  return snapshot;
}

double RegistrySnapshot::Delta(const RegistrySnapshot& before,
                               const std::string& key) const {
  auto now = values_.find(key);
  auto then = before.values_.find(key);
  if (now == values_.end() || then == before.values_.end()) return 0.0;
  return now->second - then->second;
}

std::vector<double> DurationsMs(const std::vector<Call>& calls) {
  std::vector<double> ms;
  ms.reserve(calls.size());
  for (const Call& call : calls) ms.push_back(call.ms());
  return ms;
}

void FillPerLayerDefaults(Report* report) {
  for (const auto& metric : kPerLayer) {
    report->per_layer.emplace(metric.name, Metric{0.0, metric.unit});
  }
}

void ReportCallLayers(const std::vector<const Probe*>& probes,
                      const RegistrySnapshot& before,
                      const RegistrySnapshot& after, Report* report) {
  std::vector<double> suggest, observe, checkpoint, run;
  double failed_runs = 0;
  for (const Probe* probe : probes) {
    for (double ms : DurationsMs(probe->suggest)) suggest.push_back(ms);
    for (double ms : DurationsMs(probe->observe)) observe.push_back(ms);
    for (double ms : DurationsMs(probe->checkpoint)) checkpoint.push_back(ms);
    for (double ms : DurationsMs(probe->run)) run.push_back(ms);
    failed_runs += static_cast<double>(probe->failed_runs);
  }
  auto& layer = report->per_layer;
  layer["optimizers.suggest.count"].value = suggest.size();
  layer["optimizers.suggest.busy_s"].value = Sum(suggest) * 1e-3;
  layer["optimizers.suggest.p50_ms"].value = Quantile(suggest, 0.5);
  layer["optimizers.suggest.p90_ms"].value = Quantile(suggest, 0.9);
  layer["optimizers.observe.count"].value = observe.size();
  layer["optimizers.observe.busy_s"].value = Sum(observe) * 1e-3;
  layer["optimizers.observe.p90_ms"].value = Quantile(observe, 0.9);
  layer["optimizers.checkpoint.busy_s"].value = Sum(checkpoint) * 1e-3;
  layer["sim.run.count"].value = run.size();
  layer["sim.run.busy_s"].value = Sum(run) * 1e-3;
  layer["sim.failed_ratio"].value =
      run.empty() ? 0.0 : failed_runs / static_cast<double>(run.size());
  const double refits = after.Delta(before, "bo.surrogate_refits");
  const double incremental =
      after.Delta(before, "bo.surrogate_incremental_updates");
  layer["surrogate.refits"].value = refits;
  layer["surrogate.incremental_updates"].value = incremental;
  layer["surrogate.incremental_ratio"].value =
      refits + incremental > 0 ? incremental / (refits + incremental) : 0.0;
  layer["surrogate.sparse_switches"].value =
      after.Delta(before, "bo.sparse_switches");
  layer["surrogate.fit_busy_s"].value = after.Delta(before, "span.bo.fit:sum");
  layer["surrogate.observe_busy_s"].value =
      after.Delta(before, "span.bo.observe_incremental:sum");
}

void AccountSteps(const std::vector<Call>& steps, const Probe& probe,
                  double wall_s, const RegistrySnapshot& before,
                  const RegistrySnapshot& after, Report* report) {
  double suggest_ms = 0.0, observe_ms = 0.0, run_ms = 0.0, checkpoint_ms = 0.0;
  double step_ms = 0.0;
  std::vector<double> self_ms;
  int misnested = 0;
  for (const Call& step : steps) {
    int suggests = 0, observes = 0, runs = 0, checkpoints = 0;
    const double s = BusyWithin(probe.suggest, step.start_ns, step.end_ns,
                                &suggests);
    const double o = BusyWithin(probe.observe, step.start_ns, step.end_ns,
                                &observes);
    const double r = BusyWithin(probe.run, step.start_ns, step.end_ns, &runs);
    const double c = BusyWithin(probe.checkpoint, step.start_ns, step.end_ns,
                                &checkpoints);
    // Sequential trials: exactly one suggest, run and observe per step,
    // all inside it, so the children plus self time make up the step.
    const double children = s + o + r + c;
    if (suggests != 1 || observes != 1 || runs != 1 ||
        children > step.ms() * 1.0001) {
      ++misnested;
    }
    suggest_ms += s;
    observe_ms += o;
    run_ms += r;
    checkpoint_ms += c;
    step_ms += step.ms();
    self_ms.push_back(step.ms() - children);
  }
  const double self_total_ms = Sum(self_ms);
  report->Check(misnested == 0,
                Fmt("time accounting: %d of %zu trials do not nest exactly "
                    "one suggest/run/observe inside StepTrial",
                    misnested, steps.size()));
  // Self time is the remainder of each step, so the table below sums to
  // the steps by construction. The independent check is against the
  // program's own spans, read on its clock: they wrap the decorated calls,
  // so the calls must fit inside them and account for nearly all of them.
  const double decorated_s = (suggest_ms + run_ms + observe_ms) * 1e-3;
  const double spans_s = after.Delta(before, "span.loop.suggest:sum") +
                         after.Delta(before, "span.loop.evaluate:sum") +
                         after.Delta(before, "span.loop.observe:sum");
  const double coverage = spans_s > 0 ? decorated_s / spans_s : 0.0;
  report->Check(coverage >= kMinSpanCoverage && coverage <= 1.0001,
                Fmt("time accounting: decorated suggest/run/observe take "
                    "%.4f s, the program's loop.* spans %.4f s (%.2f%%)",
                    decorated_s, spans_s, coverage * 100));
  report->per_layer["core.step.self_ms"].value =
      steps.empty() ? 0.0 : self_total_ms / static_cast<double>(steps.size());

  report->Note(Fmt("layer table (timed trials; wall_s = %.4f s; decorated "
                   "calls cover %.2f%% of the loop.* spans):",
                   wall_s, coverage * 100));
  const struct {
    const char* layer;
    double ms;
  } rows[] = {{"optimizers.suggest", suggest_ms},
              {"optimizers.observe", observe_ms},
              {"optimizers.checkpoint", checkpoint_ms},
              {"sim.run", run_ms},
              {"core.step.self", self_total_ms},
              {"(between trials)", wall_s * 1e3 - step_ms}};
  for (const auto& row : rows) {
    report->Note(Fmt("  %-24s %10.4f s  %6.2f%%", row.layer, row.ms * 1e-3,
                     wall_s > 0 ? row.ms * 1e-3 / wall_s * 100 : 0.0));
  }
}

}  // namespace perfbench
