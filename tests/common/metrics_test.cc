#include "common/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include "common/thread_pool.h"

namespace od {
namespace common {
namespace {

TEST(CounterTest, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.Value(), 0);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42);
  c.Reset();
  EXPECT_EQ(c.Value(), 0);
}

TEST(CounterTest, ConcurrentAddsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), int64_t{kThreads} * kPerThread);
}

TEST(GaugeTest, SetAddValue) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

TEST(HistogramTest, PowerOfTwoBuckets) {
  Histogram h;
  // v <= 1 (incl. 0 and negatives) -> bucket 0; otherwise the smallest i
  // with v <= 2^i.
  h.Record(0);
  h.Record(1);
  h.Record(2);   // bucket 1
  h.Record(3);   // bucket 2 (3 <= 4)
  h.Record(4);   // bucket 2
  h.Record(5);   // bucket 3
  h.Record(1024);  // bucket 10
  EXPECT_EQ(h.BucketCount(0), 2);
  EXPECT_EQ(h.BucketCount(1), 1);
  EXPECT_EQ(h.BucketCount(2), 2);
  EXPECT_EQ(h.BucketCount(3), 1);
  EXPECT_EQ(h.BucketCount(10), 1);
  EXPECT_EQ(h.Count(), 7);
  EXPECT_EQ(h.Sum(), 0 + 1 + 2 + 3 + 4 + 5 + 1024);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 8.0);
  EXPECT_TRUE(std::isinf(
      Histogram::BucketUpperBound(Histogram::kBuckets - 1)));
}

TEST(HistogramTest, HugeValuesLandInOverflow) {
  Histogram h;
  h.Record(std::numeric_limits<int64_t>::max());
  EXPECT_EQ(h.BucketCount(Histogram::kBuckets - 1), 1);
  EXPECT_EQ(h.Count(), 1);
}

TEST(RegistryTest, GetReturnsSameInstanceAndLabelsDistinguish) {
  MetricRegistry& reg = MetricRegistry::Global();
  Counter& a = reg.GetCounter("od_test_registry_counter");
  Counter& b = reg.GetCounter("od_test_registry_counter");
  EXPECT_EQ(&a, &b);
  Counter& l1 = reg.GetCounter("od_test_registry_counter", "", "k=\"1\"");
  Counter& l2 = reg.GetCounter("od_test_registry_counter", "", "k=\"2\"");
  EXPECT_NE(&l1, &l2);
  EXPECT_NE(&a, &l1);
}

TEST(RegistryTest, KindClashThrows) {
  MetricRegistry& reg = MetricRegistry::Global();
  reg.GetCounter("od_test_kind_clash");
  EXPECT_THROW(reg.GetGauge("od_test_kind_clash"), std::invalid_argument);
}

/// A snapshot with every metric kind populated, registered under unique
/// names so other tests (and the instrumented library) can't collide.
MetricsSnapshot BuildSampleSnapshot() {
  MetricRegistry& reg = MetricRegistry::Global();
  // Several tests call this; reset first so values are per-call exact.
  Counter& c = reg.GetCounter("od_test_rt_counter", "a counter");
  c.Reset();
  c.Add(7);
  Counter& cl =
      reg.GetCounter("od_test_rt_counter_labeled", "", "level=\"3\",kind=\"x\"");
  cl.Reset();
  cl.Add(11);
  reg.GetGauge("od_test_rt_gauge", "a gauge").Set(-5);
  Histogram& h = reg.GetHistogram("od_test_rt_hist", "a histogram");
  h.Reset();
  h.Record(1);
  h.Record(3);
  h.Record(100);
  MetricsSnapshot snap = reg.Snapshot();
  // Work on the subset this test owns: snapshots of the global registry
  // include whatever the instrumented library registered.
  MetricsSnapshot mine;
  for (const auto& [k, v] : snap.counters) {
    if (k.find("od_test_rt_") == 0) mine.counters[k] = v;
  }
  for (const auto& [k, v] : snap.gauges) {
    if (k.find("od_test_rt_") == 0) mine.gauges[k] = v;
  }
  for (const auto& [k, v] : snap.histograms) {
    if (k.find("od_test_rt_") == 0) mine.histograms[k] = v;
  }
  return mine;
}

TEST(SnapshotTest, HistogramBucketsAreCumulativeAndEndAtInf) {
  const MetricsSnapshot snap = BuildSampleSnapshot();
  const auto& h = snap.histograms.at("od_test_rt_hist");
  EXPECT_EQ(h.count, 3);
  EXPECT_EQ(h.sum, 104);
  ASSERT_FALSE(h.buckets.empty());
  EXPECT_TRUE(std::isinf(h.buckets.back().first));
  EXPECT_EQ(h.buckets.back().second, 3);  // cumulative total
  // Cumulative counts never decrease.
  for (size_t i = 1; i < h.buckets.size(); ++i) {
    EXPECT_GE(h.buckets[i].second, h.buckets[i - 1].second);
  }
}

TEST(SnapshotTest, PrometheusRoundTrips) {
  const MetricsSnapshot snap = BuildSampleSnapshot();
  const std::string text = MetricRegistry::ToPrometheusText(snap);
  const MetricsSnapshot back = MetricRegistry::FromPrometheusText(text);
  EXPECT_TRUE(snap == back) << text;
}

TEST(SnapshotTest, PrometheusTextHasExpositionShape) {
  const MetricsSnapshot snap = BuildSampleSnapshot();
  const std::string text = MetricRegistry::ToPrometheusText(snap);
  EXPECT_NE(text.find("# TYPE od_test_rt_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("od_test_rt_counter 7"), std::string::npos);
  EXPECT_NE(text.find(
                "od_test_rt_counter_labeled{level=\"3\",kind=\"x\"} 11"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE od_test_rt_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("od_test_rt_gauge -5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE od_test_rt_hist histogram"),
            std::string::npos);
  EXPECT_NE(text.find("od_test_rt_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("od_test_rt_hist_sum 104"), std::string::npos);
  EXPECT_NE(text.find("od_test_rt_hist_count 3"), std::string::npos);
}

TEST(SnapshotTest, ParsersRejectMalformedInput) {
  EXPECT_THROW(MetricRegistry::FromPrometheusText("orphan_sample 3\n"),
               std::invalid_argument);
  EXPECT_THROW(MetricRegistry::FromPrometheusText("# TYPE h histogram\n"
                                                  "h_bucket 3\n"),
               std::invalid_argument);
}

TEST(SnapshotTest, EmptySnapshotRoundTripsBothWays) {
  const MetricsSnapshot empty;
  EXPECT_TRUE(MetricRegistry::FromPrometheusText(
                  MetricRegistry::ToPrometheusText(empty)) == empty);
}

TEST(PrometheusParserTest, NumbersParseInFullOrThrowInvalidArgument) {
  // An int64 overflow, a bound past the double range and trailing bytes
  // after a number are malformed input, not out_of_range or a prefix.
  EXPECT_THROW(MetricRegistry::FromPrometheusText(
                   "# TYPE a counter\na 99999999999999999999999\n"),
               std::invalid_argument);
  EXPECT_THROW(MetricRegistry::FromPrometheusText(
                   "# TYPE h histogram\nh_bucket{le=\"1e999\"} 1\n"),
               std::invalid_argument);
  EXPECT_THROW(
      MetricRegistry::FromPrometheusText("# TYPE a counter\na 12abc\n"),
      std::invalid_argument);
  EXPECT_THROW(MetricRegistry::FromPrometheusText(
                   "# TYPE h histogram\nh_bucket{le=\"2x\"} 1\n"),
               std::invalid_argument);
  EXPECT_THROW(MetricRegistry::FromPrometheusText("# TYPE g gauge\ng \n"),
               std::invalid_argument);
  // The int64 extremes the serializer writes still parse.
  const MetricsSnapshot snap = MetricRegistry::FromPrometheusText(
      "# TYPE a counter\na 9223372036854775807\n"
      "# TYPE g gauge\ng -9223372036854775808\n");
  EXPECT_EQ(snap.counters.at("a"), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(snap.gauges.at("g"), std::numeric_limits<int64_t>::min());
}

TEST(PrometheusParserTest, MalformedLabelBodiesThrowInvalidArgument) {
  // An unclosed label body, and bytes after a closed one: neither is a key
  // the serializer writes, and neither would print back as it was read.
  EXPECT_THROW(
      MetricRegistry::FromPrometheusText("# TYPE a counter\na{b 1\n"),
      std::invalid_argument);
  EXPECT_THROW(MetricRegistry::FromPrometheusText(
                   "# TYPE a counter\na{x=\"1\"}junk 1\n"),
               std::invalid_argument);
  // A `}` inside a quoted value does not close the body.
  const MetricsSnapshot snap = MetricRegistry::FromPrometheusText(
      "# TYPE a counter\na{x=\"}\\\"\"} 1\n");
  EXPECT_EQ(snap.counters.at("a{x=\"}\\\"\"}"), 1);
}

/// A live exposition with every series shape the serializer writes:
/// plain and labeled counters (label values with spaces, quotes,
/// backslashes, tabs and newlines), a negative gauge, and histograms with
/// finite, overflow and labeled buckets.
std::string LiveExposition() {
  MetricRegistry& reg = MetricRegistry::Global();
  Counter& plain = reg.GetCounter("od_test_mut_counter");
  plain.Reset();
  plain.Add(3);
  Counter& labeled = reg.GetCounter(
      "od_test_mut_counter", "",
      FormatLabel("tenant", "a \"b\" c\\d\te\nf") + ",level=\"2\"");
  labeled.Reset();
  labeled.Add(42);
  reg.GetGauge("od_test_mut_gauge").Set(-7);
  Histogram& h = reg.GetHistogram("od_test_mut_hist");
  h.Reset();
  for (int64_t v : {int64_t{0}, int64_t{5}, int64_t{1000},
                    std::numeric_limits<int64_t>::max()}) {
    h.Record(v);
  }
  Histogram& hl =
      reg.GetHistogram("od_test_mut_hist", "", FormatLabel("tenant", "t 1"));
  hl.Reset();
  hl.Record(17);
  const MetricsSnapshot snap = reg.Snapshot();
  MetricsSnapshot mine;
  for (const auto& [k, v] : snap.counters) {
    if (k.find("od_test_mut_") == 0) mine.counters[k] = v;
  }
  for (const auto& [k, v] : snap.gauges) {
    if (k.find("od_test_mut_") == 0) mine.gauges[k] = v;
  }
  for (const auto& [k, v] : snap.histograms) {
    if (k.find("od_test_mut_") == 0) mine.histograms[k] = v;
  }
  return MetricRegistry::ToPrometheusText(mine);
}

TEST(PrometheusParserTest, SeededMutantsParseOrThrowInvalidArgument) {
  const std::string base = LiveExposition();
  ASSERT_NO_THROW(MetricRegistry::FromPrometheusText(base)) << base;
  // Bytes and tokens the grammar gives meaning to, plus number shapes that
  // must neither escape as std::out_of_range nor parse as a prefix.
  const std::vector<std::string> tokens = {
      " ", "\n", "\"", "\\", "{", "}", ",", "=", "#", "# TYPE ", "le=\"",
      "_bucket", "_sum", "_count", " counter", " gauge", " histogram", "-",
      "+", "+Inf", "nan", "1e999", "99999999999999999999999", "12abc", "0x1",
      "\t", "\r", std::string(1, '\0')};
  std::mt19937 rng(20121);  // fixed: the same mutants on every run
  auto below = [&](size_t n) {
    return static_cast<size_t>(rng() % static_cast<uint32_t>(n));
  };
  int parsed = 0, rejected = 0, escaped = 0, unstable = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string m = base;
    for (size_t edits = 1 + below(4); edits > 0; --edits) {
      const size_t at = below(m.size() + 1);
      switch (below(5)) {
        case 0:  // overwrite one byte with any byte
          if (at < m.size()) m[at] = static_cast<char>(below(256));
          break;
        case 1:  // delete a short run
          m.erase(at, 1 + below(8));
          break;
        case 2:  // insert a token
          m.insert(at, tokens[below(tokens.size())]);
          break;
        case 3:  // replace a short run with a token
          m.replace(at, 1 + below(4), tokens[below(tokens.size())]);
          break;
        case 4:  // truncate
          m.resize(at);
          break;
      }
    }
    MetricsSnapshot snap;
    try {
      snap = MetricRegistry::FromPrometheusText(m);
    } catch (const std::invalid_argument&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      if (++escaped <= 5) {
        ADD_FAILURE() << "mutant " << i << " threw " << typeid(e).name()
                      << " (" << e.what() << "):\n"
                      << m;
      }
      continue;
    }
    ++parsed;
    // What parses prints back to text that parses to the same snapshot.
    const std::string text = MetricRegistry::ToPrometheusText(snap);
    bool round_trips = false;
    try {
      round_trips = MetricRegistry::FromPrometheusText(text) == snap;
    } catch (const std::exception&) {
    }
    if (!round_trips && ++unstable <= 5) {
      ADD_FAILURE() << "mutant " << i << " does not round-trip:\n"
                    << m << "\nprints as:\n"
                    << text;
    }
  }
  EXPECT_EQ(escaped, 0) << "mutants that threw past std::invalid_argument";
  EXPECT_EQ(unstable, 0) << "parsed mutants that do not round-trip";
  // Both outcomes occur, so the mutants reach past the first line.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(JsonStringTest, EscapesQuotesBackslashesAndEveryControlByte) {
  std::string out;
  AppendJsonString("a\"b\\c\nd\te\rf\x01g h\x7f", &out);
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g h\x7f\"");

  std::string controls;
  for (int c = 0; c < 0x20; ++c) controls.push_back(static_cast<char>(c));
  out.clear();
  AppendJsonString(controls, &out);
  for (const char c : out) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << out;
  }
  EXPECT_EQ(out.rfind("\"\\u0000\\u0001", 0), 0u) << out;
  EXPECT_NE(out.find("\\u001f\""), std::string::npos) << out;
}

TEST(RegistryTest, ConcurrentRegistrationAndWrites) {
  MetricRegistry& reg = MetricRegistry::Global();
  ThreadPool pool(8);
  ParallelFor(&pool, 64, [&](int64_t i) {
    // Half the threads register-and-tick the same counter, half distinct
    // labeled ones; snapshots run concurrently with the writes.
    Counter& c = reg.GetCounter(
        "od_test_concurrent", "",
        i % 2 == 0 ? "" : "slot=\"" + std::to_string(i % 4) + "\"");
    c.Add();
    (void)reg.Snapshot();
  });
  const MetricsSnapshot snap = reg.Snapshot();
  int64_t total = 0;
  for (const auto& [k, v] : snap.counters) {
    if (k.find("od_test_concurrent") == 0) total += v;
  }
  EXPECT_EQ(total, 64);
}

TEST(QuantileTest, EmptySnapshotIsZero) {
  Histogram h;
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.ValueAtQuantile(0.5), 0.0);
  EXPECT_EQ(snap.ValueAtQuantile(0.99), 0.0);
}

TEST(QuantileTest, SingleBucketInterpolatesWithinIt) {
  Histogram h;
  // 100 observations, all in the (64, 128] bucket.
  for (int i = 0; i < 100; ++i) h.Record(100);
  const HistogramSnapshot snap = h.Snapshot();
  // Linear interpolation inside (64, 128]: the median lands mid-bucket.
  EXPECT_DOUBLE_EQ(snap.ValueAtQuantile(0.5), 64 + 0.5 * (128 - 64));
  EXPECT_DOUBLE_EQ(snap.ValueAtQuantile(1.0), 128.0);
  // q=0 clamps into the winning bucket's lower edge.
  EXPECT_GE(snap.ValueAtQuantile(0.0), 64.0);
}

TEST(QuantileTest, MultiBucketRanksPickTheRightBucket) {
  Histogram h;
  // 90 cheap (bucket le=1), 10 expensive (bucket (512, 1024]): p50 sits
  // in the cheap bucket, p95+ in the expensive one.
  for (int i = 0; i < 90; ++i) h.Record(1);
  for (int i = 0; i < 10; ++i) h.Record(1000);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_LE(snap.ValueAtQuantile(0.5), 1.0);
  const double p95 = snap.ValueAtQuantile(0.95);
  EXPECT_GT(p95, 512.0);
  EXPECT_LE(p95, 1024.0);
  EXPECT_GT(snap.ValueAtQuantile(0.99), p95 - 1e-9);
}

TEST(QuantileTest, QuantilesAreMonotonicInQ) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i);
  const HistogramSnapshot snap = h.Snapshot();
  double prev = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = snap.ValueAtQuantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(QuantileTest, OverflowBucketClampsToHighestFiniteBound) {
  Histogram h;
  // Everything in the +Inf overflow bucket: the data bounds nothing, so
  // the estimate clamps to the highest finite le rather than returning
  // infinity.
  const int64_t huge = std::numeric_limits<int64_t>::max() - 8;
  for (int i = 0; i < 8; ++i) h.Record(huge + i);
  const HistogramSnapshot snap = h.Snapshot();
  const double p99 = snap.ValueAtQuantile(0.99);
  EXPECT_FALSE(std::isinf(p99));
  EXPECT_DOUBLE_EQ(p99, snap.buckets[snap.buckets.size() - 2].first);
}

TEST(QuantileTest, OutOfRangeQClamps) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Record(100);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_DOUBLE_EQ(snap.ValueAtQuantile(-1.0), snap.ValueAtQuantile(0.0));
  EXPECT_DOUBLE_EQ(snap.ValueAtQuantile(2.0), snap.ValueAtQuantile(1.0));
}

TEST(QuantileTest, SnapshotMatchesRegistryShape) {
  // Histogram::Snapshot and MetricRegistry::Snapshot agree bucket for
  // bucket — the registry path routes through the same helper.
  MetricRegistry& reg = MetricRegistry::Global();
  Histogram& h = reg.GetHistogram("od_test_quantile_shape", "");
  h.Reset();
  h.Record(3);
  h.Record(300);
  const auto via_registry =
      reg.Snapshot().histograms.at("od_test_quantile_shape");
  EXPECT_TRUE(h.Snapshot() == via_registry);
}

}  // namespace
}  // namespace common
}  // namespace od
