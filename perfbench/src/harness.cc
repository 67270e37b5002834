#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <thread>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// ---------------------------------------------------------------------------
// Registry deltas

namespace {

/// Bucket upper bound -> non-cumulative count, summed over every label set
/// of `name` (keys are `name` or `name{labels}`).
std::map<double, int64_t> BucketCounts(const od::common::MetricsSnapshot& s,
                                       const std::string& name) {
  std::map<double, int64_t> out;
  for (const auto& [key, hist] : s.histograms) {
    if (key != name && key.rfind(name + "{", 0) != 0) continue;
    int64_t prev = 0;
    for (const auto& [le, cum] : hist.buckets) {
      out[le] += cum - prev;
      prev = cum;
    }
  }
  return out;
}

int64_t CounterSum(const od::common::MetricsSnapshot& s,
                   const std::string& name) {
  int64_t total = 0;
  for (const auto& [key, value] : s.counters) {
    if (key == name || key.rfind(name + "{", 0) == 0) total += value;
  }
  return total;
}

}  // namespace

RegistryDelta::RegistryDelta()
    : before_(od::common::MetricRegistry::Global().Snapshot()) {}

int64_t RegistryDelta::Counter(const std::string& name) const {
  const od::common::MetricsSnapshot now =
      od::common::MetricRegistry::Global().Snapshot();
  return CounterSum(now, name) - CounterSum(before_, name);
}

double RegistryDelta::HistogramQuantile(const std::string& name,
                                        double q) const {
  std::map<double, int64_t> counts =
      BucketCounts(od::common::MetricRegistry::Global().Snapshot(), name);
  for (const auto& [le, n] : BucketCounts(before_, name)) counts[le] -= n;
  od::common::HistogramSnapshot delta;
  for (const auto& [le, n] : counts) {
    delta.count += n;
    delta.buckets.emplace_back(le, delta.count);
  }
  return delta.ValueAtQuantile(q);
}

// ---------------------------------------------------------------------------

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

int CoreCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

}  // namespace perfbench
