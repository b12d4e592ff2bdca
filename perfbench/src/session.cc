// The two single-session workloads: `fresh-session` (a journaled GP-BO
// session from zero, then crash recoveries from its journal) and
// `long-history` (a GP-BO optimizer pre-fed to just below the sparse
// threshold, then journaled live trials).

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/trial_runner.h"
#include "core/tuning_loop.h"
#include "env/workload.h"
#include "journal_diff.h"
#include "obs/journal.h"
#include "optimizers/bayesian.h"
#include "record/codec.h"
#include "sim/db_env.h"
#include "stats.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using autotune::Observation;
using autotune::TrialRunner;
using autotune::TuningLoop;
using autotune::TuningLoopOptions;
using autotune::obs::Json;

/// fresh-session: sessions (each with its own seed) and trials per session,
/// crash recoveries of the first session, and how many live trials after
/// each recovery must match the uninterrupted run.
constexpr int kFreshSessions = 5;
constexpr int kFreshTrials = 300;
constexpr int kRecoveries = 10;
constexpr int kCheckNext = 5;
/// fresh-session first runs an untimed warm-up session of this many trials,
/// with a fixed seed, on a stack of its own, so caches and lazily built
/// state are in place. Set-up is then building a session's stack
/// (environment, optimizer, runner, journal), timed kSetupRepeats times;
/// the first kFreshSessions stacks are the sessions'.
constexpr int kWarmupTrials = 50;
constexpr uint64_t kWarmupSeed = 7;
constexpr int kSetupRepeats = 50;
/// long-history: observations fed before the timed trials, then live
/// trials. The optimizer's full refits fall at history sizes 8, 16, 24,
/// 36, ..., 913, 1369, and the first one at or past its
/// sparse_history_threshold (1024) hands off to the sparse GP. Pre-feeding
/// 1350 puts that handoff at the 19th live trial: the first 19 trials time
/// the exact GP at n = 1350-1368, the other 101 the sparse GP.
constexpr int kPrefeed = 1350;
constexpr int kLiveTrials = 120;

/// One journaled GP-BO tuning stack on simdb/tpcc, built the way
/// `autotune_cli run --env=simdb --optimizer=bo` builds it. With a probe the
/// optimizer and environment are wrapped in the timing decorators.
struct Stack {
  std::unique_ptr<autotune::Environment> env;
  std::unique_ptr<autotune::Optimizer> optimizer;
  std::unique_ptr<TrialRunner> runner;
  std::unique_ptr<autotune::obs::Journal> journal;

  Stack(uint64_t seed, const std::string& journal_path, Probe* probe) {
    autotune::sim::DbEnvOptions env_options;
    env_options.workload = autotune::workload::TpcC();
    env_options.noise_seed = seed * 97;
    env_options.deterministic = true;
    env = std::make_unique<autotune::sim::DbEnv>(env_options);
    if (probe != nullptr) {
      env = std::make_unique<TimedEnvironment>(std::move(env), probe);
    }
    optimizer = autotune::MakeGpBo(&env->space(), seed);
    if (probe != nullptr) {
      optimizer = std::make_unique<TimedOptimizer>(std::move(optimizer), probe);
    }
    runner = std::make_unique<TrialRunner>(env.get(),
                                           autotune::TrialRunnerOptions{},
                                           seed * 31);
    auto opened = autotune::obs::Journal::Open(journal_path);
    if (opened.ok()) journal = std::move(opened).value();
  }

  TuningLoopOptions LoopOptions(int max_trials) const {
    TuningLoopOptions options;
    options.max_trials = max_trials;
    options.snapshot_every = 10;
    options.journal = journal.get();
    return options;
  }
};

std::string ConfigKey(const autotune::Configuration& config) {
  return autotune::record::EncodeConfig(config).Dump();
}

/// Copies the journal up to and including the `trial_started` event of
/// trial `crash_trial`: the process died while evaluating that trial.
bool WriteCrashedJournal(const std::string& from, const std::string& to,
                         int crash_trial) {
  std::ifstream in(from);
  std::ofstream out(to, std::ios::trunc);
  std::string line;
  while (std::getline(in, line)) {
    out << line << '\n';
    auto event = Json::Parse(line);
    if (event.ok() && event->GetString("event", "") == "trial_started" &&
        event->GetInt("trial", -1) == crash_trial) {
      return static_cast<bool>(out);
    }
  }
  return false;
}

/// What one pass of a session workload measured.
struct Pass {
  std::vector<double> setup_s;
  std::vector<Call> steps;          // Timed StepTrial calls, all sessions.
  std::vector<double> session_wall_s;
  std::vector<double> best_objective;
  int stopped_early = 0;            // Sessions short of their trial budget.
  // The first session's trials, which the recoveries are checked against.
  std::vector<std::string> trial_configs;
  std::vector<double> trial_objectives;
  // fresh-session recoveries, one entry each.
  std::vector<double> recovery_ms, replay_ms, resume_ms, first_live_ms;
  int recoveries_diverged = 0;
  std::vector<std::string> journals;  // Every journal the pass wrote.
  Probe probe;                        // Timed session trials only.
  RegistrySnapshot registry_before, registry_sessions_start,
      registry_sessions_end, registry_after;

  double wall_s() const { return Sum(session_wall_s); }
};

/// Runs the timed trials of one session, recording each StepTrial, then
/// finishes it.
void RunSession(TuningLoop* loop, int trials, Pass* pass) {
  const int64_t start = NowNs();
  int ran = 0;
  for (; ran < trials && !loop->done(); ++ran) {
    const int64_t t0 = NowNs();
    loop->StepTrial();
    pass->steps.push_back(Call{t0, NowNs()});
  }
  pass->session_wall_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  pass->best_objective.push_back(loop->best_objective().value_or(0.0));
  autotune::TuningResult result = loop->Finish();
  if (ran < trials || result.trials_run != trials) ++pass->stopped_early;
  if (!pass->trial_configs.empty()) return;
  for (const Observation& observation : result.history) {
    pass->trial_configs.push_back(ConfigKey(observation.config));
    pass->trial_objectives.push_back(observation.objective);
  }
}

/// Times one recovery from `journal`: ReplayJournal -> Resume -> first live
/// trial, then checks the next `kCheckNext` trials against the
/// uninterrupted run.
void Recover(uint64_t seed, const std::string& journal, int crash_trial,
             bool traced, Pass* pass) {
  Probe scratch;  // Decorated like the session, but not part of its table.
  const int64_t t0 = NowNs();
  Stack stack(seed, journal, traced ? &scratch : nullptr);
  auto replay = autotune::record::ReplayJournal(journal, &stack.env->space());
  const int64_t t1 = NowNs();
  if (!replay.ok() || stack.journal == nullptr) {
    ++pass->recoveries_diverged;
    return;
  }
  TuningLoop loop(stack.optimizer.get(), stack.runner.get(),
                  stack.LoopOptions(kFreshTrials));
  const autotune::Status resumed = loop.Resume(*replay);
  while (resumed.ok() && loop.pending_replay_trials() > 0 && !loop.done()) {
    loop.StepTrial();
  }
  const int64_t t2 = NowNs();
  loop.StepTrial();  // First live trial.
  const int64_t t3 = NowNs();
  pass->recovery_ms.push_back(static_cast<double>(t3 - t0) * 1e-6);
  pass->replay_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
  pass->resume_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
  pass->first_live_ms.push_back(static_cast<double>(t3 - t2) * 1e-6);
  for (int i = 1; i < kCheckNext; ++i) loop.StepTrial();
  autotune::TuningResult result = loop.Finish();
  bool identical = resumed.ok() &&
                   result.history.size() >=
                       static_cast<size_t>(crash_trial + kCheckNext);
  for (int i = crash_trial; identical && i < crash_trial + kCheckNext; ++i) {
    identical = ConfigKey(result.history[i].config) ==
                    pass->trial_configs[i] &&
                result.history[i].objective == pass->trial_objectives[i];
  }
  if (!identical) ++pass->recoveries_diverged;
}

Pass RunFreshPass(const RunOptions& options, const std::string& dir,
                  bool traced, Report* report) {
  Pass pass;
  pass.registry_before = RegistrySnapshot::Take();
  {
    Stack warmup(kWarmupSeed, dir + "/warmup.jsonl", nullptr);
    TuningLoop loop(warmup.optimizer.get(), warmup.runner.get(),
                    warmup.LoopOptions(kWarmupTrials));
    while (!loop.done()) loop.StepTrial();
    loop.Finish();
  }
  std::vector<std::unique_ptr<Stack>> stacks;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const std::string journal =
        dir + "/session-" + std::to_string(k) + ".jsonl";
    const int64_t t0 = NowNs();
    auto stack = std::make_unique<Stack>(options.seed * 1000 + k, journal,
                                         traced ? &pass.probe : nullptr);
    pass.setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (k < kFreshSessions) {
      stacks.push_back(std::move(stack));
      pass.journals.push_back(journal);
    } else {
      stack.reset();
      fs::remove(journal);
    }
  }
  pass.registry_sessions_start = RegistrySnapshot::Take();
  for (auto& stack : stacks) {
    TuningLoop loop(stack->optimizer.get(), stack->runner.get(),
                    stack->LoopOptions(kFreshTrials));
    RunSession(&loop, kFreshTrials, &pass);
    stack.reset();  // Closes and flushes the journal.
  }
  pass.registry_sessions_end = RegistrySnapshot::Take();

  // Crashes at consecutive trials of the first session, so the recoveries
  // cover every distance (0-9 trials) from the last checkpoint.
  for (int i = 0; i < kRecoveries; ++i) {
    const int crash_trial = kFreshTrials - kCheckNext - kRecoveries + i;
    const std::string crashed =
        dir + "/recover-" + std::to_string(i) + ".jsonl";
    if (!WriteCrashedJournal(pass.journals.front(), crashed, crash_trial)) {
      report->Check(false, "cannot write crashed journal " + crashed);
      continue;
    }
    Recover(options.seed * 1000, crashed, crash_trial, traced, &pass);
    pass.journals.push_back(crashed);
  }
  report->Check(pass.recoveries_diverged == 0,
                Fmt("%d of %d recoveries did not continue bit-identically "
                    "with the uninterrupted run",
                    pass.recoveries_diverged, kRecoveries));
  pass.registry_after = RegistrySnapshot::Take();
  return pass;
}

Pass RunLongPass(const RunOptions& options, const std::string& dir,
                 bool traced, Report* report) {
  Pass pass;
  pass.registry_before = RegistrySnapshot::Take();
  const std::string journal = dir + "/session-0.jsonl";
  fs::remove(journal);
  Probe prefeed_probe;
  const int64_t t0 = NowNs();
  Stack stack(options.seed * 1000, journal,
              traced ? &prefeed_probe : nullptr);
  {
    // Seeded random simdb evaluations through a runner of their own, fed to
    // the optimizer through its public Observe.
    TrialRunner prefeed_runner(stack.env.get(), autotune::TrialRunnerOptions{},
                               options.seed * 131);
    autotune::Rng rng(options.seed * 7919 + 1);
    for (int i = 0; i < kPrefeed; ++i) {
      auto config = stack.env->space().SampleFeasible(&rng);
      if (!config.ok()) continue;
      if (!stack.optimizer->Observe(prefeed_runner.Evaluate(*config)).ok()) {
        report->Check(false, "pre-feed: Observe failed");
      }
    }
  }
  pass.setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  report->Check(stack.optimizer->num_observations() ==
                    static_cast<size_t>(kPrefeed),
                "pre-feed: optimizer did not absorb every observation");
  if (auto* timed = dynamic_cast<TimedOptimizer*>(stack.optimizer.get())) {
    timed->set_probe(&pass.probe);
  }
  if (auto* timed = dynamic_cast<TimedEnvironment*>(stack.env.get())) {
    timed->set_probe(&pass.probe);
  }
  pass.journals.push_back(journal);
  TuningLoop loop(stack.optimizer.get(), stack.runner.get(),
                  stack.LoopOptions(kLiveTrials));
  pass.registry_sessions_start = RegistrySnapshot::Take();
  RunSession(&loop, kLiveTrials, &pass);
  pass.registry_sessions_end = RegistrySnapshot::Take();
  pass.registry_after = RegistrySnapshot::Take();
  return pass;
}

void ReportEndToEnd(const Pass& pass, Report* report) {
  const std::vector<double> trial_ms = DurationsMs(pass.steps);
  auto& e2e = report->end_to_end;
  e2e["setup_s"] = {Median(pass.setup_s), "s"};
  e2e["wall_s"] = {Median(pass.session_wall_s), "s"};
  e2e["trial_p50_ms"] = {Quantile(trial_ms, 0.5), "ms"};
  report->ungated["trial_p90_ms"] = {Quantile(trial_ms, 0.9), "ms"};
  report->ungated["best_objective"] = {Median(pass.best_objective), "ms"};
  report->Note(Fmt("sessions: %zu; timed trials: %zu samples; set-up: %zu "
                   "samples",
                   pass.session_wall_s.size(), trial_ms.size(),
                   pass.setup_s.size()));
  std::string walls;
  for (double s : pass.session_wall_s) walls += Fmt(" %.3f", s);
  report->Note("session wall times (s):" + walls);
  if (!pass.recovery_ms.empty()) {
    report->ungated["recovery_ms"] = {Median(pass.recovery_ms), "ms"};
    report->Note(Fmt("recoveries: %zu samples", pass.recovery_ms.size()));
  }
}

/// Each trial and each recovery is one attempted operation. A trial whose
/// configuration crashed the simulated system is a tuning outcome, not a
/// failed operation; a session cut short or a diverged recovery is.
void CountOperations(const Pass& pass, Report* report) {
  report->attempted += static_cast<int64_t>(pass.steps.size()) +
                       static_cast<int64_t>(pass.recovery_ms.size());
  report->failed += pass.stopped_early + pass.recoveries_diverged;
  report->Check(pass.stopped_early == 0,
                "a session stopped before its trial budget");
}

void ReportPerLayer(const Pass& traced, const Pass& untraced,
                    Report* report) {
  auto& layer = report->per_layer;
  ReportCallLayers({&traced.probe}, traced.registry_before,
                   traced.registry_after, report);
  const double trials = static_cast<double>(traced.steps.size());
  layer["optimizers.improve_ratio"].value =
      traced.registry_sessions_end.Delta(traced.registry_sessions_start,
                                         "loop.incumbent_updates") /
      trials;
  double journal_bytes = 0.0;  // The sessions' journals come first.
  for (size_t i = 0; i < traced.session_wall_s.size(); ++i) {
    journal_bytes += static_cast<double>(FileBytes(traced.journals[i]));
  }
  layer["obs.journal.bytes"].value = journal_bytes;
  layer["obs.journal.bytes_per_trial"].value = journal_bytes / trials;
  if (!traced.recovery_ms.empty()) {
    layer["record.replay_ms"].value = Median(traced.replay_ms);
    layer["core.resume_ms"].value = Median(traced.resume_ms);
    layer["core.first_live_trial_ms"].value = Median(traced.first_live_ms);
  }
  layer["trace.overhead_frac"].value =
      traced.wall_s() / untraced.wall_s() - 1.0;
  AccountSteps(traced.steps, traced.probe, traced.wall_s(),
               traced.registry_sessions_start, traced.registry_sessions_end,
               report);
  report->Note(Fmt("surrogate: %.0f refits (%.4f s), %.0f incremental "
                   "updates (%.4f s), %.0f sparse switches",
                   layer["surrogate.refits"].value,
                   layer["surrogate.fit_busy_s"].value,
                   layer["surrogate.incremental_updates"].value,
                   layer["surrogate.observe_busy_s"].value,
                   layer["surrogate.sparse_switches"].value));
}

/// Runs `run_pass` untraced, and with --trace 1 a second, decorated pass
/// whose journals must match the first one's.
template <typename RunPass>
void RunSessionWorkload(const RunOptions& options, RunPass run_pass,
                        Report* report) {
  const std::string plain_dir = options.work_dir + "/untraced";
  fs::create_directories(plain_dir);
  Pass untraced = run_pass(options, plain_dir, false, report);
  CountOperations(untraced, report);
  ReportEndToEnd(untraced, report);
  if (!options.trace) return;

  const std::string traced_dir = options.work_dir + "/traced";
  fs::create_directories(traced_dir);
  FillPerLayerDefaults(report);
  Pass traced = run_pass(options, traced_dir, true, report);
  CountOperations(traced, report);
  ReportPerLayer(traced, untraced, report);
  for (size_t i = 0; i < untraced.journals.size(); ++i) {
    const std::string diff =
        i < traced.journals.size()
            ? DiffJournals(untraced.journals[i], traced.journals[i])
            : "traced pass wrote fewer journals";
    report->Check(diff.empty(), "traced journal differs: " + diff);
  }
  report->Check(traced.trial_configs == untraced.trial_configs,
                "traced session suggested different configurations");
}

}  // namespace

void RunFreshSession(const RunOptions& options, Report* report) {
  RunSessionWorkload(options, RunFreshPass, report);
}

void RunLongHistory(const RunOptions& options, Report* report) {
  RunSessionWorkload(options, RunLongPass, report);
}

}  // namespace perfbench
