// Shared machinery of the libod benchmark: arguments, sample statistics,
// registry deltas, and the metric table each workload fills. Everything
// here is benchmark-side; libod is reached only through its public headers.
#ifndef OD_PERFBENCH_HARNESS_H_
#define OD_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 20;  ///< BENCHMARK.json's run_seconds
  bool trace = false;
  std::string out_dir = ".";  ///< run records, traces and spill runs
  std::string commit = "unknown";
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sorted-copy quantile with linear interpolation between closest ranks.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}
double GeoMean(const std::vector<double>& v);

/// A uniform sample of at most `capacity` items of a stream of unknown
/// length (reservoir sampling), so the benchmark's memory does not grow
/// with libod's throughput.
template <class T>
class Reservoir {
 public:
  Reservoir(size_t capacity, uint32_t seed) : capacity_(capacity), rng_(seed) {
    items_.reserve(capacity);
  }
  void Add(T item) {
    ++seen_;
    if (items_.size() < capacity_) {
      items_.push_back(std::move(item));
      return;
    }
    const uint64_t j = rng_() % seen_;
    if (j < capacity_) items_[j] = std::move(item);
  }
  const std::vector<T>& items() const { return items_; }

 private:
  size_t capacity_;
  uint64_t seen_ = 0;
  std::mt19937_64 rng_;
  std::vector<T> items_;
};

/// Installs a fresh libod request context (od::common::TraceContextScope)
/// for the enclosing scope while the tracer records — the traced half of a
/// --trace 1 run — and nothing otherwise: minting a trace id is a shared
/// atomic increment, a visible share of a memoized Implies. The benchmark's
/// od::common::TraceSpans opened inside carry the request's trace id, and
/// libod's own spans nest under them.
class RequestScope {
 public:
  RequestScope() {
    if (od::common::Tracer::Global().enabled()) {
      scope_.emplace(od::common::TraceContext::NewRequest());
    }
  }

 private:
  std::optional<od::common::TraceContextScope> scope_;
};

// ---------------------------------------------------------------------------
// Registry deltas: libod's public MetricRegistry, summed over label sets.

class RegistryDelta {
 public:
  RegistryDelta();  ///< snapshots the registry now
  /// Counter increase since construction, summed over every label set of
  /// `name`.
  int64_t Counter(const std::string& name) const;
  /// Quantile of the observations a histogram (all label sets of `name`)
  /// received since construction.
  double HistogramQuantile(const std::string& name, double q) const;

 private:
  od::common::MetricsSnapshot before_;
};

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  double value;
  std::string unit;
};
using MetricTable = std::map<std::string, Metric>;

struct WorkloadResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  MetricTable end_to_end;
  MetricTable per_layer;
  /// Median latency per request class (reports: per report), ms — kept
  /// for the OD-blind -> OD-aware attribution table, not a gated metric.
  std::map<std::string, double> class_medians_ms;
  /// Thread counts the workload ran with, for the run record.
  std::map<std::string, int> threads;
};

/// Peak resident set size of this process (VmHWM), MB.
double PeakRssMb();

/// Number of CPUs the process may run on.
int CoreCount();

}  // namespace perfbench

#endif  // OD_PERFBENCH_HARNESS_H_
