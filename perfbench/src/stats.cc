#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/rng.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const double h = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(h));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = h - static_cast<double>(lo);
  // Written as a convex combination so the result never leaves
  // [samples[lo], samples[hi]].
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

double Sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (double value : samples) total += value;
  return total;
}

std::string CheckQuantile() {
  // 1..10: type-7 quantiles are 1 + 9q.
  std::vector<double> known;
  for (int i = 10; i >= 1; --i) known.push_back(i);
  const struct {
    double q;
    double want;
  } cases[] = {{0.0, 1.0}, {0.5, 5.5}, {0.9, 9.1}, {0.99, 9.91}, {1.0, 10.0}};
  for (const auto& c : cases) {
    const double got = Quantile(known, c.q);
    if (std::fabs(got - c.want) > 1e-12) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "Quantile(1..10, %g) = %.17g, want %g",
                    c.q, got, c.want);
      return buf;
    }
  }
  if (Quantile({7.25}, 0.99) != 7.25) return "single-sample quantile";
  autotune::Rng rng(12345);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> samples(1 + trial % 37);
    for (double& value : samples) value = rng.LogNormal(0.0, 2.0);
    const double max = *std::max_element(samples.begin(), samples.end());
    const double min = *std::min_element(samples.begin(), samples.end());
    double previous = min;
    for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const double got = Quantile(samples, q);
      if (got > max || got < min) return "quantile outside [min, max]";
      if (got < previous) return "quantile not monotone in q";
      previous = got;
    }
    if (Quantile(samples, 1.0) != max) return "p100 differs from max";
  }
  return "";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

}  // namespace perfbench
