#ifndef OD_COMMON_METRICS_H_
#define OD_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace od {
namespace common {

/// Process-wide metrics: counters, gauges, and log-scale histograms,
/// registered by name (plus optional Prometheus-style labels) in a global
/// `MetricRegistry` and exported as Prometheus text exposition format.
///
/// Design constraints, in order:
///   1. The *record* path must be safe and cheap from any thread — prover
///      queries, pool workers, and exchange fragments all tick counters
///      concurrently. Counters are sharded across cache lines (each thread
///      hashes to a shard by a thread-local slot), so hot counters never
///      bounce one line between cores; histograms use relaxed atomics per
///      bucket. No locks anywhere on the record path.
///   2. Registration is rare (once per call site, cached in a reference),
///      so `GetCounter`/`GetGauge`/`GetHistogram` take a mutex and return a
///      stable reference — metrics are never destroyed while the process
///      lives, exactly like the underlying `static` registries they join.
///   3. Snapshots are wait-free for writers: readers sum the shards with
///      relaxed loads. A snapshot taken while writers run is a consistent
///      "some recent value" per metric, not a cross-metric atomic cut —
///      the standard contract of scrape-based metrics.

namespace metrics_internal {
/// Small dense thread slot for shard selection (monotonically assigned,
/// never reused; only its value mod kShards matters).
uint32_t ThreadSlot();
}  // namespace metrics_internal

/// Escapes a string for use inside a Prometheus label value: backslash,
/// double quote, and newline become `\\`, `\"`, and `\n`. Arbitrary
/// external strings (tenant names, file paths) must pass through this (or
/// FormatLabel) before entering a label body, so the registry key stays a
/// single token that the exporter and its round-trip parser preserve
/// verbatim.
std::string EscapeLabelValue(const std::string& value);

/// One label-body entry `key="value"` with the value escaped. Join several
/// with ',' to build the `labels` argument of MetricRegistry::Get*.
std::string FormatLabel(const std::string& key, const std::string& value);

/// Appends `value` to `out` as a quoted JSON string: `"` and `\` are
/// backslash-escaped and every byte below 0x20 becomes `\n`, `\t`, `\r`
/// or `\u00XX`, so arbitrary external strings (tenant names, request
/// details) cannot break the JSON the scrape surface serves. Other bytes
/// pass through unchanged.
void AppendJsonString(std::string_view value, std::string* out);

/// A monotonically increasing counter. Writers call `Add`; `Value` sums
/// the shards. Obtain instances from MetricRegistry::GetCounter.
class Counter {
 public:
  static constexpr int kShards = 16;

  void Add(int64_t delta = 1) {
    shards_[metrics_internal::ThreadSlot() % kShards].v.fetch_add(
        delta, std::memory_order_relaxed);
  }

  int64_t Value() const {
    int64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes the counter (tests and bench resets only; not atomic with
  /// respect to concurrent Adds).
  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> v{0};
  };
  Shard shards_[kShards];
};

/// A value that can go up and down (e.g. live memo entries).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> v_{0};
};

struct HistogramSnapshot;

/// A histogram with fixed log-scale (power-of-two) buckets: bucket i
/// counts observations v with v <= 2^i (non-cumulatively: the smallest
/// such i), for i in [0, kBuckets-2]; the last bucket is +Inf overflow.
/// Values <= 1 (including negatives) land in bucket 0. `Record` is three
/// relaxed atomic ops — no locks, no allocation.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(int64_t v);

  int64_t Count() const;
  /// Sum of recorded values (saturating semantics not needed at our rates).
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t BucketCount(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket i (2^i; +Inf for the last bucket,
  /// reported as infinity()).
  static double BucketUpperBound(int i);

  /// Point-in-time export of this one histogram (the same shape
  /// MetricRegistry::Snapshot embeds) — the cheap way to compute a
  /// quantile of a single live histogram without scraping the whole
  /// registry.
  HistogramSnapshot Snapshot() const;

  void Reset();

 private:
  std::atomic<int64_t> buckets_[kBuckets]{};
  std::atomic<int64_t> sum_{0};
};

/// One exported histogram: total count, sum, and cumulative bucket counts
/// as (upper_bound, cumulative_count) pairs — the Prometheus shape. Only
/// buckets up to the highest non-empty one are listed, plus the +Inf
/// bucket.
struct HistogramSnapshot {
  int64_t count = 0;
  int64_t sum = 0;
  std::vector<std::pair<double, int64_t>> buckets;  // (le, cumulative)

  /// The value at quantile `q` ∈ [0, 1] (q clamped), interpolated
  /// linearly inside the winning log₂ bucket — the standard Prometheus
  /// `histogram_quantile` estimate over `le` buckets. Bucket i spans
  /// (2^(i-1), 2^i] (bucket 0 spans [0, 1]), so the estimate's relative
  /// error is bounded by the bucket width. Rank q·count falling in the
  /// +Inf overflow bucket clamps to the highest finite bound; an empty
  /// snapshot returns 0.
  double ValueAtQuantile(double q) const;

  bool operator==(const HistogramSnapshot& o) const {
    return count == o.count && sum == o.sum && buckets == o.buckets;
  }
};

/// A point-in-time export of every registered metric, keyed by
/// `name{labels}` (bare `name` when the metric has no labels). Round-trips
/// losslessly through the Prometheus text serializer below — asserted by
/// tests.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool operator==(const MetricsSnapshot& o) const {
    return counters == o.counters && gauges == o.gauges &&
           histograms == o.histograms;
  }
};

/// The process-wide registry. `Get*` registers on first use and returns
/// the existing metric afterwards (help text from the first registration
/// wins); references stay valid for the life of the process. `labels` is a
/// preformatted Prometheus label body, e.g. `level="3"` — empty for none.
class MetricRegistry {
 public:
  static MetricRegistry& Global();

  Counter& GetCounter(const std::string& name, const std::string& help = "",
                      const std::string& labels = "");
  Gauge& GetGauge(const std::string& name, const std::string& help = "",
                  const std::string& labels = "");
  Histogram& GetHistogram(const std::string& name,
                          const std::string& help = "",
                          const std::string& labels = "");

  MetricsSnapshot Snapshot() const;
  /// Snapshot rendered as Prometheus text exposition format.
  std::string SnapshotPrometheus() const {
    return ToPrometheusText(Snapshot());
  }

  // The serializer and its inverse. The parser accepts what the serializer
  // emits, plus blank lines and `#` comments; every sample value must be a
  // whole int64 and every `le` bound a finite double or `+Inf`. Anything
  // else throws std::invalid_argument.
  static std::string ToPrometheusText(const MetricsSnapshot& snap);
  static MetricsSnapshot FromPrometheusText(const std::string& text);

 private:
  MetricRegistry() = default;

  struct Entry {
    enum class Kind { kCounter, kGauge, kHistogram } kind;
    std::string name;    // bare metric name
    std::string help;
    std::string labels;  // preformatted label body, may be empty
    // Owned, never freed: snapshots and cached references outlive resets.
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };

  Entry& FindOrCreate(Entry::Kind kind, const std::string& name,
                      const std::string& help, const std::string& labels);

  mutable std::mutex mu_;
  // A deque so entries never relocate: FindOrCreate hands out Entry
  // references that are read after mu_ is released (and concurrently with
  // later registrations), which a reallocating vector would invalidate.
  std::deque<Entry> entries_;
  std::map<std::string, size_t> index_;  // full key -> entries_ position
};

}  // namespace common
}  // namespace od

#endif  // OD_COMMON_METRICS_H_
