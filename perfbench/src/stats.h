#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds (the same clock the program's spans use).
int64_t NowNs();

/// Exact quantile of raw samples: linear interpolation between the two
/// closest order statistics (the "type 7" estimator of R and NumPy). The
/// result always lies within [min, max] of the samples. Empty input -> 0.
double Quantile(std::vector<double> samples, double q);

double Median(const std::vector<double>& samples);
double Sum(const std::vector<double>& samples);

/// Self-check of `Quantile`: exact values on a known sample, and never
/// outside the observed range on random samples. Returns an empty string
/// on success, otherwise what failed.
std::string CheckQuantile();

/// Peak resident set size of this process, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
