#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/introspection.h"
#include "core/optimizer.h"
#include "env/environment.h"

namespace perfbench {

/// One timed call into the program, on the steady clock (`NowNs`).
struct Call {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// Raw per-call samples recorded by the decorators below. One probe
/// belongs to one tuning session; the program touches a session from one
/// thread at a time, so a probe needs no lock of its own.
struct Probe {
  std::vector<Call> suggest;     // Optimizer::Suggest / SuggestBatch
  std::vector<Call> observe;     // Optimizer::Observe
  std::vector<Call> checkpoint;  // Optimizer::SaveCheckpoint
  std::vector<Call> run;         // Environment::Run
  int64_t failed_runs = 0;       // Run results that crashed or hung

  void Clear() { *this = Probe(); }
};

/// Forwards every `Optimizer` and `OptimizerIntrospection` call to the
/// wrapped optimizer unchanged and times Suggest, Observe and
/// SaveCheckpoint into the attached probe (none when the probe is null).
/// The surrogate inside the optimizer is deliberately left alone.
class TimedOptimizer final : public autotune::Optimizer,
                             public autotune::OptimizerIntrospection {
 public:
  TimedOptimizer(std::unique_ptr<autotune::Optimizer> inner, Probe* probe);

  void set_probe(Probe* probe) { probe_ = probe; }
  autotune::Optimizer& inner() { return *inner_; }

  std::string name() const override { return inner_->name(); }
  const autotune::ConfigSpace& space() const override {
    return inner_->space();
  }
  autotune::Result<autotune::Configuration> Suggest() override;
  autotune::Status Observe(const autotune::Observation& observation) override;
  autotune::Result<std::vector<autotune::Configuration>> SuggestBatch(
      size_t k) override;
  const std::optional<autotune::Observation>& best() const override {
    return inner_->best();
  }
  size_t num_observations() const override {
    return inner_->num_observations();
  }
  autotune::Result<autotune::OptimizerCheckpoint> SaveCheckpoint()
      const override;
  autotune::Status RestoreCheckpoint(
      const autotune::OptimizerCheckpoint& checkpoint,
      const std::vector<autotune::Observation>& history) override;
  std::vector<autotune::DecisionRecord> TakeDecisions() override;

 private:
  std::unique_ptr<autotune::Optimizer> inner_;
  autotune::OptimizerIntrospection* introspection_;  // Into inner_, or null.
  Probe* probe_;
};

/// Forwards every `Environment` call unchanged and times `Run`.
class TimedEnvironment final : public autotune::Environment {
 public:
  TimedEnvironment(std::unique_ptr<autotune::Environment> inner,
                   Probe* probe);

  void set_probe(Probe* probe) { probe_ = probe; }

  std::string name() const override { return inner_->name(); }
  const autotune::ConfigSpace& space() const override {
    return inner_->space();
  }
  autotune::BenchmarkResult Run(const autotune::Configuration& config,
                                double fidelity, autotune::Rng* rng) override;
  std::string objective_metric() const override {
    return inner_->objective_metric();
  }
  bool minimize() const override { return inner_->minimize(); }
  double RunCost(double fidelity) const override {
    return inner_->RunCost(fidelity);
  }
  autotune::KnobScope knob_scope(const std::string& name) const override {
    return inner_->knob_scope(name);
  }
  double RestartCost() const override { return inner_->RestartCost(); }

 private:
  std::unique_ptr<autotune::Environment> inner_;
  Probe* probe_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
