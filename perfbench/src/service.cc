// service-mixed: one `serve`-shaped process (ExperimentManager on a worker
// pool, ControlPlane, FleetMonitor at its default tick, HttpServer with the
// service handler). Tenants arrive on a seeded open-loop schedule as
// POST /experiments; client 1 probes /healthz at a fixed rate, client 2
// sends the admissions and scrapes /fleet/statusz and /metrics.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "http.h"
#include "journal_diff.h"
#include "obs/json.h"
#include "optimizers/bayesian.h"
#include "optimizers/cmaes.h"
#include "optimizers/random_search.h"
#include "optimizers/simulated_annealing.h"
#include "service/control_plane.h"
#include "service/endpoints.h"
#include "service/experiment_manager.h"
#include "service/fleet.h"
#include "service/http_server.h"
#include "sim/nginx_env.h"
#include "sim/redis_env.h"
#include "sim/spark_env.h"
#include "stats.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using autotune::ConfigSpace;
using autotune::Environment;
using autotune::Optimizer;
using autotune::Result;
using autotune::Status;
namespace service = autotune::service;

/// The fleet has the shape of the repo's E30 bench
/// (bench/bench_e30_control_plane.cc): sixteen tenants, twelve of one kind
/// and four of another, on a small pool. Here the twelve run a cheap
/// optimizer and every fourth tenant a model-based one (GP-BO or SMAC).
/// E30 admits its tenants back to back; here they arrive open-loop, one
/// every 100 ms with a seeded jitter, so the whole fleet is in after 1.6 s
/// and outnumbers the workers from the third arrival on.
constexpr int kTenants = 16;
constexpr int kModelEvery = 4;
constexpr double kArrivalsPerSecond = 10.0;
/// Trials are the amount of work, not a rate: each cheap tenant runs this
/// many per second of `--seconds`, which keeps the pool busy for about
/// `--seconds`.
constexpr int kCheapTrialsPerSecond = 800;
constexpr int kModelTrials = 100;
/// /healthz and the /fleet/statusz and /metrics scrapes are sampling
/// probes, not traffic. Kubernetes probes every 10 s by default
/// (periodSeconds) and Prometheus scrapes every minute (scrape_interval),
/// which would leave one or two samples per window. Client 1 probes
/// /healthz every kHealthzPeriodMs; client 2 scrapes every
/// kScrapePeriodMs, alternating /fleet/statusz and /metrics. README shows
/// that the trial and admission figures do not move when they are off
/// (`--sampling 0`).
constexpr int64_t kHealthzPeriodMs = 10;
constexpr int64_t kScrapePeriodMs = 50;
constexpr int kHttpTimeoutMs = 10000;
/// Set-up is starting the serve stack: pool, manager, control plane, fleet
/// monitor and HTTP server. It is timed this many times, each on a fresh
/// stack and journal directory, after one untimed warm-up stack that runs
/// a fixed-seed tenant, so lazily built state is in place before timing.
constexpr int kSetupRepeats = 20;
constexpr int kWarmupTrials = 300;
constexpr uint64_t kWarmupSeed = 7;
/// The open-loop generator fell behind (invalid run) if any admission left
/// more than this late, or if client 2's scrapes over the last quarter of
/// the window left this late at the median.
constexpr double kMaxGeneratorLagMs = 50.0;

const char* const kEnvs[] = {"redis", "nginx", "spark"};

/// The serve pool: every core but two, which the HTTP server and the two
/// clients need.
size_t WorkerCount() {
  return std::max(3u, std::thread::hardware_concurrency()) - 2;
}
const char* const kCheapOptimizers[] = {"random", "cmaes", "anneal"};

struct Tenant {
  std::string name;
  std::string env;
  std::string optimizer;
  int trials = 0;
  uint64_t seed = 0;
  int64_t due_offset_ns = 0;  // Admission time, relative to load start.
  Probe probe;                // Run always; suggest/observe when traced.
  int64_t post_sent_ns = 0;
  double admit_ms = 0.0;
};

std::vector<std::unique_ptr<Tenant>> PlanTenants(uint64_t seed,
                                                 int seconds) {
  autotune::Rng rng(seed * 2654435761ULL + 17);
  const double slot_ns = 1e9 / kArrivalsPerSecond;
  // The twelve cheap tenants: every (optimizer, env) pair once, plus the
  // three pairs of the diagonal again, so each optimizer and each env runs
  // four of them. Only their order depends on the seed, so every run
  // carries the same mix.
  std::vector<std::pair<const char*, const char*>> cheap;
  for (int o = 0; o < 3; ++o) {
    for (int e = 0; e < 3; ++e) {
      cheap.emplace_back(kCheapOptimizers[o], kEnvs[e]);
    }
    cheap.emplace_back(kCheapOptimizers[o], kEnvs[o]);
  }
  rng.Shuffle(&cheap);
  std::vector<std::unique_ptr<Tenant>> tenants;
  int model = 0;
  for (int i = 0; i < kTenants; ++i) {
    auto tenant = std::make_unique<Tenant>();
    tenant->name = "tenant-" + std::to_string(i);
    if (i % kModelEvery == kModelEvery - 1) {
      tenant->optimizer = model % 2 == 0 ? "bo" : "smac";
      tenant->env = kEnvs[(model / 2) % 3];
      tenant->trials = kModelTrials;
      ++model;
    } else {
      tenant->optimizer = cheap.back().first;
      tenant->env = cheap.back().second;
      cheap.pop_back();
      tenant->trials = kCheapTrialsPerSecond * seconds;
    }
    tenant->seed = rng.NextUint64() % 1000000;
    // Open-loop arrivals at a fixed rate, each jittered by a seeded offset
    // of up to a tenth of the interval.
    tenant->due_offset_ns =
        static_cast<int64_t>((i + 0.5 + rng.Uniform(-0.1, 0.1)) * slot_ns);
    tenants.push_back(std::move(tenant));
  }
  return tenants;
}

std::unique_ptr<Environment> MakeSimEnv(const std::string& name,
                                        uint64_t seed) {
  if (name == "redis") {
    autotune::sim::RedisEnvOptions options;
    options.noise_seed = seed * 97;
    options.deterministic = true;
    return std::make_unique<autotune::sim::RedisEnv>(options);
  }
  if (name == "nginx") {
    autotune::sim::NginxEnvOptions options;
    options.noise_seed = seed * 97;
    options.deterministic = true;
    return std::make_unique<autotune::sim::NginxEnv>(options);
  }
  autotune::sim::SparkEnvOptions options;
  options.noise_seed = seed * 97;
  options.deterministic = true;
  return std::make_unique<autotune::sim::SparkEnv>(options);
}

std::unique_ptr<Optimizer> MakeOptimizer(const std::string& name,
                                         const ConfigSpace* space,
                                         uint64_t seed) {
  if (name == "bo") return autotune::MakeGpBo(space, seed);
  if (name == "smac") return autotune::MakeSmac(space, seed);
  if (name == "cmaes") {
    return std::make_unique<autotune::CmaEsOptimizer>(space, seed);
  }
  if (name == "anneal") {
    return std::make_unique<autotune::SimulatedAnnealing>(space, seed);
  }
  return std::make_unique<autotune::RandomSearch>(space, seed);
}

/// The spec factory `serve` would install, restricted to the keys the
/// benchmark sends, with every tenant's environment (and, traced, its
/// optimizer) wrapped in the timing decorators.
service::ControlPlane::SpecFactory MakeSpecFactory(
    const std::map<std::string, Tenant*>* tenants, bool traced) {
  return [tenants, traced](const std::map<std::string, std::string>& keys)
             -> Result<service::ExperimentSpec> {
    const auto name = keys.find("name");
    const auto found =
        name == keys.end() ? tenants->end() : tenants->find(name->second);
    if (found == tenants->end()) {
      return Status::InvalidArgument("unknown tenant");
    }
    Tenant* tenant = found->second;
    service::ExperimentSpec spec;
    spec.name = tenant->name;
    spec.seed = tenant->seed;
    spec.loop_options.max_trials = tenant->trials;
    spec.loop_options.snapshot_every = 10;
    spec.make_environment = [tenant]() -> std::unique_ptr<Environment> {
      return std::make_unique<TimedEnvironment>(
          MakeSimEnv(tenant->env, tenant->seed), &tenant->probe);
    };
    spec.make_optimizer = [tenant, traced](const ConfigSpace* space,
                                           uint64_t seed)
        -> std::unique_ptr<Optimizer> {
      auto optimizer = MakeOptimizer(tenant->optimizer, space, seed);
      if (!traced) return optimizer;
      return std::make_unique<TimedOptimizer>(std::move(optimizer),
                                              &tenant->probe);
    };
    return spec;
  };
}

/// The serve process: pool, manager, control plane, fleet monitor and HTTP
/// server, destroyed in reverse order (server first: its handler points at
/// the others).
struct ServiceStack {
  std::unique_ptr<autotune::ThreadPool> pool;
  std::unique_ptr<service::ExperimentManager> manager;
  std::unique_ptr<service::ControlPlane> control;
  std::unique_ptr<service::FleetMonitor> monitor;
  std::unique_ptr<service::HttpServer> server;

  ~ServiceStack() {
    server.reset();
    monitor.reset();
    control.reset();
    manager.reset();
    pool.reset();
  }
};

std::unique_ptr<ServiceStack> StartService(
    const std::string& journal_dir, service::ControlPlane::SpecFactory factory,
    Report* report) {
  auto stack = std::make_unique<ServiceStack>();
  stack->pool = std::make_unique<autotune::ThreadPool>(WorkerCount());
  stack->manager =
      std::make_unique<service::ExperimentManager>(stack->pool.get());
  service::ControlPlane::Options control;
  control.journal_dir = journal_dir;
  control.shard_id = "perfbench-shard";
  auto started = service::ControlPlane::Start(stack->manager.get(),
                                              std::move(factory), control);
  if (!started.ok()) {
    report->Check(false, "ControlPlane::Start: " + started.status().ToString());
    return nullptr;
  }
  stack->control = std::move(started).value();
  stack->monitor = std::make_unique<service::FleetMonitor>(
      stack->manager.get(), service::FleetMonitor::Options{});
  auto server = service::HttpServer::Start(
      service::HttpServer::Options{},
      service::MakeServiceHandler(stack->manager.get(), nullptr,
                                  stack->control.get(), stack->monitor.get()));
  if (!server.ok()) {
    report->Check(false, "HttpServer::Start: " + server.status().ToString());
    return nullptr;
  }
  stack->server = std::move(server).value();
  stack->control->AnnounceEndpoint("127.0.0.1", stack->server->port());
  return stack;
}

/// The POST /experiments body admitting `tenant`.
std::string AdmissionBody(const Tenant& tenant) {
  return autotune::obs::Json(
             autotune::obs::Json::Object{
                 {"name", tenant.name},
                 {"env", tenant.env},
                 {"optimizer", tenant.optimizer},
                 {"trials", std::to_string(tenant.trials)},
                 {"seed", std::to_string(tenant.seed)}})
      .Dump();
}

void SleepUntil(int64_t deadline_ns) {
  const int64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

/// Every HTTP exchange of one client, checked for the expected status and
/// content type.
struct ClientLog {
  std::vector<double> healthz_ms;  // From when each probe was due.
  std::vector<double> statusz_ms;
  std::vector<double> metrics_ms;
  std::vector<double> lag_ms;      // How late each GET left.
  std::vector<double> admission_lag_ms;  // How late each POST left.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  void Expect(const HttpReply& reply, int status, const char* content_type,
              const std::string& what) {
    ++attempted;
    if (reply.status == status && reply.content_type == content_type) return;
    ++failed;
    if (errors.size() < 5) {
      errors.push_back(Fmt("%s: got %d '%s'", what.c_str(), reply.status,
                           reply.content_type.c_str()));
    }
  }
};

/// What one pass of the service workload measured.
struct Pass {
  std::vector<std::unique_ptr<Tenant>> tenants;
  std::vector<double> setup_s;
  double wall_s = 0.0;
  ClientLog probe_client, load_client;
  std::vector<std::string> journals;
  RegistrySnapshot before, after;
};

void RunLoad(int port, int64_t start_ns, bool sampling, Pass* pass,
             const std::atomic<bool>& stop,
             std::atomic<bool>* admissions_done) {
  ClientLog& log = pass->load_client;
  size_t next_tenant = 0;
  for (int64_t scrape = 0;; ++scrape) {
    const int64_t scrape_due = start_ns + scrape * kScrapePeriodMs * 1000000;
    // Admissions due before the next scrape go first, in schedule order.
    while (next_tenant < pass->tenants.size()) {
      Tenant& tenant = *pass->tenants[next_tenant];
      const int64_t due = start_ns + tenant.due_offset_ns;
      if (due > scrape_due) break;
      SleepUntil(due);
      tenant.post_sent_ns = NowNs();
      log.admission_lag_ms.push_back(
          static_cast<double>(tenant.post_sent_ns - due) * 1e-6);
      const HttpReply reply = HttpRequest(port, "POST", "/experiments",
                                          AdmissionBody(tenant),
                                          kHttpTimeoutMs);
      tenant.admit_ms = static_cast<double>(NowNs() - tenant.post_sent_ns) *
                        1e-6;
      log.Expect(reply, 200, "application/json", "POST " + tenant.name);
      ++next_tenant;
    }
    if (next_tenant == pass->tenants.size()) admissions_done->store(true);
    SleepUntil(scrape_due);
    if (stop.load()) break;
    if (!sampling) continue;
    log.lag_ms.push_back(static_cast<double>(NowNs() - scrape_due) * 1e-6);
    const bool statusz = scrape % 2 == 0;
    const int64_t t0 = NowNs();
    const HttpReply reply =
        HttpRequest(port, "GET", statusz ? "/fleet/statusz" : "/metrics", "",
                    kHttpTimeoutMs);
    const double ms = static_cast<double>(NowNs() - t0) * 1e-6;
    if (statusz) {
      pass->load_client.statusz_ms.push_back(ms);
      log.Expect(reply, 200, "text/html; charset=utf-8", "GET /fleet/statusz");
    } else {
      pass->load_client.metrics_ms.push_back(ms);
      log.Expect(reply, 200, "text/plain; version=0.0.4; charset=utf-8",
                 "GET /metrics");
    }
  }
}

void RunProbes(int port, int64_t start_ns, ClientLog* log,
               const std::atomic<bool>& stop) {
  for (int64_t i = 0;; ++i) {
    const int64_t due = start_ns + i * kHealthzPeriodMs * 1000000;
    SleepUntil(due);
    if (stop.load()) break;
    log->lag_ms.push_back(static_cast<double>(NowNs() - due) * 1e-6);
    const HttpReply reply = HttpRequest(port, "GET", "/healthz", "",
                                        kHttpTimeoutMs);
    log->healthz_ms.push_back(static_cast<double>(NowNs() - due) * 1e-6);
    log->Expect(reply, 200, "text/plain; charset=utf-8", "GET /healthz");
  }
}

Pass RunPass(const RunOptions& options, const std::string& dir, bool traced,
             Report* report) {
  Pass pass;
  pass.tenants = PlanTenants(options.seed, options.seconds);
  Tenant warmup;
  warmup.name = "warmup";
  warmup.env = "redis";
  warmup.optimizer = "random";
  warmup.trials = kWarmupTrials;
  warmup.seed = kWarmupSeed;
  std::map<std::string, Tenant*> by_name = {{warmup.name, &warmup}};
  for (const auto& tenant : pass.tenants) by_name[tenant->name] = tenant.get();

  fs::remove_all(dir);
  std::unique_ptr<ServiceStack> stack =
      StartService(dir, MakeSpecFactory(&by_name, traced), report);
  if (stack == nullptr) return pass;
  const HttpReply reply =
      HttpRequest(stack->server->port(), "POST", "/experiments",
                  AdmissionBody(warmup), kHttpTimeoutMs);
  stack->manager->WaitAll();
  report->Check(reply.status == 200 && warmup.probe.run.size() ==
                                           static_cast<size_t>(kWarmupTrials),
                "the warm-up tenant did not run");
  for (int r = 0; r < kSetupRepeats; ++r) {
    stack.reset();
    fs::remove_all(dir);
    const int64_t t0 = NowNs();
    stack = StartService(dir, MakeSpecFactory(&by_name, traced), report);
    pass.setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (stack == nullptr) return pass;
  }
  const int port = stack->server->port();

  pass.before = RegistrySnapshot::Take();
  std::atomic<bool> stop{false};
  std::atomic<bool> admissions_done{false};
  const int64_t start_ns = NowNs() + 20000000;  // Lead time for the clients.
  // The window runs from the first admission until the last tenant
  // finishes, so the probes see loaded time only.
  const int64_t window_start_ns = start_ns + pass.tenants.front()->due_offset_ns;
  std::thread probe_client;
  if (options.http_sampling) {
    probe_client = std::thread(RunProbes, port, window_start_ns,
                               &pass.probe_client, std::cref(stop));
  }
  std::thread load_client(RunLoad, port, start_ns, options.http_sampling,
                          &pass, std::cref(stop), &admissions_done);
  while (!admissions_done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stack->manager->WaitAll();
  pass.wall_s = static_cast<double>(NowNs() - window_start_ns) * 1e-9;
  stop.store(true);
  if (probe_client.joinable()) probe_client.join();
  load_client.join();
  pass.after = RegistrySnapshot::Take();

  for (const auto& tenant : pass.tenants) {
    auto status = stack->manager->StatusOf(tenant->name);
    const bool finished =
        status.ok() && status->state == service::ExperimentState::kFinished &&
        status->trials_run == tenant->trials &&
        tenant->probe.run.size() == static_cast<size_t>(tenant->trials);
    report->Check(finished, tenant->name + " did not finish its " +
                                std::to_string(tenant->trials) + " trials");
    ++report->attempted;
    if (!finished) ++report->failed;
    pass.journals.push_back(dir + "/" + tenant->name + ".jsonl");
  }
  stack.reset();
  for (const ClientLog* log : {&pass.probe_client, &pass.load_client}) {
    report->attempted += log->attempted;
    report->failed += log->failed;
    for (const std::string& error : log->errors) {
      report->Check(false, "unexpected response: " + error);
    }
  }
  return pass;
}

void ReportEndToEnd(const Pass& pass, Report* report) {
  std::vector<double> period_ms, admit_first_ms;
  for (const auto& tenant : pass.tenants) {
    const std::vector<Call>& runs = tenant->probe.run;
    for (size_t i = 1; i < runs.size(); ++i) {
      period_ms.push_back(
          static_cast<double>(runs[i].start_ns - runs[i - 1].start_ns) * 1e-6);
    }
    if (!runs.empty()) {
      admit_first_ms.push_back(
          static_cast<double>(runs.front().start_ns - tenant->post_sent_ns) *
          1e-6);
    }
  }
  const ClientLog& probes = pass.probe_client;
  const ClientLog& load = pass.load_client;
  auto& e2e = report->end_to_end;
  e2e["setup_s"] = {Median(pass.setup_s), "s"};
  e2e["wall_s"] = {pass.wall_s, "s"};
  e2e["trial_p50_ms"] = {Quantile(period_ms, 0.5), "ms"};
  auto& only = report->ungated;
  only["trial_p90_ms"] = {Quantile(period_ms, 0.9), "ms"};
  only["admit_first_trial_p50_ms"] = {Quantile(admit_first_ms, 0.5), "ms"};
  only["admit_first_trial_p90_ms"] = {Quantile(admit_first_ms, 0.9), "ms"};
  only["healthz_p50_ms"] = {Quantile(probes.healthz_ms, 0.5), "ms"};
  only["healthz_p99_ms"] = {Quantile(probes.healthz_ms, 0.99), "ms"};
  only["statusz_p50_ms"] = {Quantile(load.statusz_ms, 0.5), "ms"};
  only["statusz_p90_ms"] = {Quantile(load.statusz_ms, 0.9), "ms"};
  report->Note(Fmt("samples: %zu trial periods, %zu admissions, %zu healthz "
                   "probes, %zu statusz and %zu metrics scrapes",
                   period_ms.size(), admit_first_ms.size(),
                   probes.healthz_ms.size(), load.statusz_ms.size(),
                   load.metrics_ms.size()));
  // The open-loop generator must keep to its schedule for the latencies
  // above to mean anything. Admissions are due in the first 1.6 s: one
  // that left late means they queued behind each other. Scrapes run to the
  // end: a backlog still standing over their last quarter means client 2
  // fell behind later.
  const double admission_lag = Quantile(load.admission_lag_ms, 1.0);
  report->Check(admission_lag <= kMaxGeneratorLagMs,
                Fmt("open-loop generator fell behind: an admission left "
                    "%.1f ms late",
                    admission_lag));
  const std::vector<double> tail(
      load.lag_ms.begin() + static_cast<long>(load.lag_ms.size() * 3 / 4),
      load.lag_ms.end());
  const double tail_lag = Median(tail);
  report->Check(tail_lag <= kMaxGeneratorLagMs,
                Fmt("open-loop generator fell behind: median lag %.1f ms "
                    "over the last quarter of its scrapes",
                    tail_lag));
  report->Note(Fmt("generator lag: admissions max %.2f ms, scrapes p99 "
                   "%.2f ms, probes p99 %.2f ms",
                   admission_lag, Quantile(load.lag_ms, 0.99),
                   Quantile(probes.lag_ms, 0.99)));
}

void ReportPerLayer(const Pass& traced, const Pass& untraced, Report* report) {
  auto& layer = report->per_layer;
  std::vector<const Probe*> probes;
  std::vector<double> gaps, admit;
  for (const auto& tenant : traced.tenants) {
    const Probe& probe = tenant->probe;
    probes.push_back(&probe);
    for (size_t i = 0; i + 1 < probe.suggest.size() && i < probe.observe.size();
         ++i) {
      gaps.push_back(static_cast<double>(probe.suggest[i + 1].start_ns -
                                         probe.observe[i].end_ns) *
                     1e-6);
    }
    admit.push_back(tenant->admit_ms);
  }
  const RegistrySnapshot& after = traced.after;
  const RegistrySnapshot& before = traced.before;
  ReportCallLayers(probes, before, after, report);
  const double trials = after.Delta(before, "span.service.trial:count");
  layer["optimizers.improve_ratio"].value =
      trials > 0 ? after.Delta(before, "loop.incumbent_updates") / trials : 0;

  // Time accounting: the program's service.trial span wraps StepTrial on
  // the worker; the decorated calls are its children.
  const double step_s = after.Delta(before, "span.service.trial:sum");
  const double suggest_s = layer["optimizers.suggest.busy_s"].value;
  const double observe_s = layer["optimizers.observe.busy_s"].value;
  const double checkpoint_s = layer["optimizers.checkpoint.busy_s"].value;
  const double run_s = layer["sim.run.busy_s"].value;
  const double children_s = suggest_s + observe_s + checkpoint_s + run_s;
  report->Check(children_s <= step_s * 1.0001,
                Fmt("time accounting: decorated calls (%.4f s) exceed the "
                    "service.trial spans (%.4f s)",
                    children_s, step_s));
  layer["core.step.self_ms"].value =
      trials > 0 ? (step_s - children_s) / trials * 1e3 : 0.0;
  double journal_bytes = 0.0;
  for (const std::string& journal : traced.journals) {
    journal_bytes += static_cast<double>(FileBytes(journal));
  }
  layer["obs.journal.bytes"].value = journal_bytes;
  layer["obs.journal.bytes_per_trial"].value =
      trials > 0 ? journal_bytes / trials : 0.0;
  layer["service.dispatch_gap_p50_ms"].value = Quantile(gaps, 0.5);
  layer["service.dispatch_gap_p90_ms"].value = Quantile(gaps, 0.9);
  layer["service.admit_p50_ms"].value = Quantile(admit, 0.5);
  layer["service.admit_p90_ms"].value = Quantile(admit, 0.9);
  const ClientLog& load = traced.load_client;
  layer["service.http.metrics.p50_ms"].value = Quantile(load.metrics_ms, 0.5);
  layer["service.http.metrics.p99_ms"].value = Quantile(load.metrics_ms, 0.99);
  layer["service.http.fleet_statusz.p50_ms"].value =
      Quantile(load.statusz_ms, 0.5);
  layer["service.http.fleet_statusz.p99_ms"].value =
      Quantile(load.statusz_ms, 0.99);
  layer["service.fleet_tick.count"].value =
      after.Delta(before, "span.fleet.tick:count");
  layer["service.fleet_tick.busy_s"].value =
      after.Delta(before, "span.fleet.tick:sum");
  std::vector<double> lag = load.lag_ms;
  lag.insert(lag.end(), load.admission_lag_ms.begin(),
             load.admission_lag_ms.end());
  lag.insert(lag.end(), traced.probe_client.lag_ms.begin(),
             traced.probe_client.lag_ms.end());
  layer["service.gen_lag_p99_ms"].value = Quantile(lag, 0.99);
  // Taken on the workers' busy time, which the decorators inflate directly;
  // the window also holds HTTP and client work they do not touch.
  const double untraced_step_s =
      untraced.after.Delta(untraced.before, "span.service.trial:sum");
  layer["trace.overhead_frac"].value =
      untraced_step_s > 0 ? step_s / untraced_step_s - 1.0 : 0.0;

  const double workers_s = traced.wall_s * static_cast<double>(WorkerCount());
  report->Note(Fmt("layer table (worker time inside service.trial = %.4f s, "
                   "%.1f%% of %.4f worker-seconds):",
                   step_s, step_s / workers_s * 100, workers_s));
  const struct {
    const char* layer;
    double s;
  } rows[] = {{"optimizers.suggest", suggest_s},
              {"optimizers.observe", observe_s},
              {"optimizers.checkpoint", checkpoint_s},
              {"sim.run", run_s},
              {"core.step.self", step_s - children_s}};
  for (const auto& row : rows) {
    report->Note(Fmt("  %-24s %10.4f s  %6.2f%%", row.layer, row.s,
                     step_s > 0 ? row.s / step_s * 100 : 0.0));
  }
}

}  // namespace

void RunServiceMixed(const RunOptions& options, Report* report) {
  Pass untraced = RunPass(options, options.work_dir + "/untraced", false,
                          report);
  ReportEndToEnd(untraced, report);
  if (!options.trace) return;
  FillPerLayerDefaults(report);
  Pass traced = RunPass(options, options.work_dir + "/traced", true, report);
  ReportPerLayer(traced, untraced, report);
  for (size_t i = 0; i < untraced.journals.size(); ++i) {
    const std::string diff =
        i < traced.journals.size()
            ? DiffJournals(untraced.journals[i], traced.journals[i])
            : "traced pass admitted fewer tenants";
    report->Check(diff.empty(), "traced journal differs: " + diff);
  }
}

}  // namespace perfbench
