#include "probe.h"

#include <utility>

#include "stats.h"

namespace perfbench {

using autotune::Configuration;
using autotune::DecisionRecord;
using autotune::Observation;
using autotune::OptimizerCheckpoint;
using autotune::Result;
using autotune::Status;

namespace {

/// Times the enclosing scope into `calls` (when non-null).
class Timer {
 public:
  explicit Timer(std::vector<Call>* calls) : calls_(calls), start_(NowNs()) {}
  ~Timer() {
    if (calls_ != nullptr) calls_->push_back(Call{start_, NowNs()});
  }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

 private:
  std::vector<Call>* calls_;
  int64_t start_;
};

}  // namespace

TimedOptimizer::TimedOptimizer(std::unique_ptr<autotune::Optimizer> inner,
                               Probe* probe)
    : inner_(std::move(inner)),
      introspection_(
          dynamic_cast<autotune::OptimizerIntrospection*>(inner_.get())),
      probe_(probe) {}

Result<Configuration> TimedOptimizer::Suggest() {
  Timer timer(probe_ != nullptr ? &probe_->suggest : nullptr);
  return inner_->Suggest();
}

Status TimedOptimizer::Observe(const Observation& observation) {
  Timer timer(probe_ != nullptr ? &probe_->observe : nullptr);
  return inner_->Observe(observation);
}

Result<std::vector<Configuration>> TimedOptimizer::SuggestBatch(size_t k) {
  Timer timer(probe_ != nullptr ? &probe_->suggest : nullptr);
  return inner_->SuggestBatch(k);
}

Result<OptimizerCheckpoint> TimedOptimizer::SaveCheckpoint() const {
  Timer timer(probe_ != nullptr ? &probe_->checkpoint : nullptr);
  return inner_->SaveCheckpoint();
}

Status TimedOptimizer::RestoreCheckpoint(
    const OptimizerCheckpoint& checkpoint,
    const std::vector<Observation>& history) {
  return inner_->RestoreCheckpoint(checkpoint, history);
}

std::vector<DecisionRecord> TimedOptimizer::TakeDecisions() {
  // An optimizer without introspection yields no records; the tuning loop
  // then journals no decision, exactly as it would for the bare optimizer.
  if (introspection_ == nullptr) return {};
  return introspection_->TakeDecisions();
}

TimedEnvironment::TimedEnvironment(std::unique_ptr<autotune::Environment> inner,
                                   Probe* probe)
    : inner_(std::move(inner)), probe_(probe) {}

autotune::BenchmarkResult TimedEnvironment::Run(const Configuration& config,
                                                double fidelity,
                                                autotune::Rng* rng) {
  autotune::BenchmarkResult result;
  {
    Timer timer(probe_ != nullptr ? &probe_->run : nullptr);
    result = inner_->Run(config, fidelity, rng);
  }
  if (probe_ != nullptr && (result.crashed || result.hung)) {
    ++probe_->failed_runs;
  }
  return result;
}

}  // namespace perfbench
