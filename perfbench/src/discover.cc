// discover: 1 closed-loop client calling discovery::DiscoverODs
// (num_threads 2) on a seeded 20-year date_dim — about 7.3k rows and 10
// columns, one of them a string.

#include <algorithm>
#include <iostream>
#include <numeric>
#include <string>

#include "discovery/discovery.h"
#include "harness.h"
#include "warehouse/date_dim.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kYears = 20;
constexpr int kDiscoveryThreads = 2;
constexpr int kSetupRepeats = 5;

int CompareCells(const od::engine::Column& c, int64_t a, int64_t b) {
  switch (c.type()) {
    case od::engine::DataType::kInt64:
      return (c.Int(a) > c.Int(b)) - (c.Int(a) < c.Int(b));
    case od::engine::DataType::kDouble:
      return (c.Double(a) > c.Double(b)) - (c.Double(a) < c.Double(b));
    case od::engine::DataType::kString: {
      const int cmp = c.Str(a).compare(c.Str(b));
      return (cmp > 0) - (cmp < 0);
    }
  }
  return 0;
}

int CompareOn(const od::engine::Table& t, const od::AttributeList& cols,
              int64_t a, int64_t b) {
  for (od::AttributeId c : cols.attrs()) {
    const int cmp = CompareCells(t.col(c), a, b);
    if (cmp != 0) return cmp;
  }
  return 0;
}

/// X ↦ Y holds iff, with the rows sorted by X, every adjacent pair with
/// equal X has equal Y and every other adjacent pair does not descend on Y.
bool OdHolds(const od::engine::Table& t, const od::OrderDependency& od) {
  std::vector<int64_t> rows(static_cast<size_t>(t.num_rows()));
  std::iota(rows.begin(), rows.end(), 0);
  std::stable_sort(rows.begin(), rows.end(), [&](int64_t a, int64_t b) {
    return CompareOn(t, od.lhs, a, b) < 0;
  });
  for (size_t i = 1; i < rows.size(); ++i) {
    const int x = CompareOn(t, od.lhs, rows[i - 1], rows[i]);
    const int y = CompareOn(t, od.rhs, rows[i - 1], rows[i]);
    if (x == 0 ? y != 0 : y > 0) return false;
  }
  return true;
}

std::vector<std::string> Canonical(const od::DependencySet& ods) {
  std::vector<std::string> out;
  for (const od::OrderDependency& od : ods.ods()) out.push_back(od.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

struct Phase {
  std::vector<double> ms;
  int64_t completed = 0;
  int64_t failed = 0;
  double seconds = 0;
  int64_t candidates = 0;
  int64_t validations = 0;
  int64_t ods_found = 0;
  int64_t partitions_computed = 0;
};

Phase RunPhase(const od::engine::Table& table,
               const std::vector<std::string>& expected, double seconds) {
  Phase p;
  od::discovery::DiscoveryOptions options;
  options.num_threads = kDiscoveryThreads;
  const int64_t begin = NowNs();
  const int64_t deadline = begin + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < deadline) {
    RequestScope request;
    const int64_t start = NowNs();
    od::discovery::DiscoveryResult r;
    {
      od::common::TraceSpan span("bench.discover");
      r = od::discovery::DiscoverODs(table, options);
    }
    p.ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    ++p.completed;
    if (Canonical(r.ods) != expected) {
      if (p.failed == 0) std::cerr << "FAILED discover: OD set changed\n";
      ++p.failed;
    }
    p.candidates += r.stats.nodes_visited;
    p.validations += r.stats.split_checks + r.stats.swap_checks;
    p.ods_found += static_cast<int64_t>(r.constancies.size() +
                                        r.compatibilities.size());
    p.partitions_computed += r.partitions_computed;
  }
  p.seconds = static_cast<double>(NowNs() - begin) / 1e9;
  return p;
}

}  // namespace

WorkloadResult RunDiscover(const Args& args) {
  const int start_year = 1900 + static_cast<int>(args.seed % 100);
  const int64_t first_sk = 2415022 + static_cast<int64_t>(args.seed % 1000);
  od::discovery::DiscoveryOptions options;
  options.num_threads = kDiscoveryThreads;

  // Set-up: generate the table and run one warm-up discovery.
  std::vector<double> setup_s;
  od::engine::Table table;
  od::discovery::DiscoveryResult warm;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const int64_t start = NowNs();
    table = od::warehouse::GenerateDateDim(start_year, kYears, first_sk);
    warm = od::discovery::DiscoverODs(table, options);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  WorkloadResult result;
  result.threads = {{"clients", 1}, {"discovery_threads", kDiscoveryThreads}};
  // Every OD of the warm-up answer must hold on the table; later answers
  // must repeat it exactly.
  for (const od::OrderDependency& od : warm.ods.ods()) {
    if (!OdHolds(table, od)) {
      std::cerr << "FAILED discover: " << od.ToString()
                << " does not hold on the table\n";
      ++result.failed;
    }
  }
  if (warm.ods.IsEmpty()) ++result.failed;
  const std::vector<std::string> expected = Canonical(warm.ods);

  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  Phase plain = RunPhase(table, expected, untraced_s);
  result.attempted += plain.completed;
  result.failed += plain.failed;
  result.class_medians_ms = {{"discover", Median(plain.ms)}};

  MetricTable& e2e = result.end_to_end;
  e2e["setup_s"] = {Median(setup_s), "s"};
  e2e["request_geomean_ms"] = {Median(plain.ms), "ms"};
  e2e["requests_per_s"] = {static_cast<double>(plain.completed) / plain.seconds,
                           "1/s"};
  if (!args.trace) return result;

  od::common::Tracer::Global().Enable();
  RegistryDelta registry;
  Phase traced = RunPhase(table, expected, args.seconds - untraced_s);
  od::common::Tracer::Global().Disable();
  result.attempted += traced.completed;
  result.failed += traced.failed;

  const double reqs =
      static_cast<double>(std::max<int64_t>(traced.completed, 1));
  const double cache_hits = static_cast<double>(
      registry.Counter("od_discovery_partition_cache_hits_total"));
  const double computed = static_cast<double>(traced.partitions_computed);
  MetricTable& layer = result.per_layer;
  layer["request.p95_geomean_ms"] = {Quantile(plain.ms, 0.95), "ms"};
  layer["discovery.candidates"] = {
      static_cast<double>(traced.candidates) / reqs, "1/req"};
  layer["discovery.validations"] = {
      static_cast<double>(traced.validations) / reqs, "1/req"};
  layer["discovery.ods_found"] = {static_cast<double>(traced.ods_found) / reqs,
                                  "1/req"};
  layer["discovery.partitions_computed"] = {computed / reqs, "1/req"};
  layer["discovery.partition_cache_hits"] = {cache_hits / reqs, "1/req"};
  layer["discovery.partition_cache_hit_ratio"] = {
      cache_hits + computed > 0 ? cache_hits / (cache_hits + computed) : 0.0,
      "ratio"};
  layer["common.pool_task_us_p50"] = {
      registry.HistogramQuantile("od_threadpool_task_us", 0.5), "us"};
  layer["common.pool_steals"] = {
      static_cast<double>(registry.Counter("od_threadpool_steals_total")) /
          reqs,
      "1/req"};
  layer["common.pool_submits"] = {
      static_cast<double>(registry.Counter("od_threadpool_submits_total")) /
          reqs,
      "1/req"};
  layer["bench.trace_overhead_pct"] = {
      (Median(traced.ms) / Median(plain.ms) - 1) * 100, "%"};
  return result;
}

}  // namespace perfbench
