// Experiment E1 (Example 1, the paper's motivating query):
//
//   SELECT d_year, d_quarter, d_moy, SUM(ss_net_paid)
//   FROM sales-joined-with-dates
//   GROUP BY d_year, d_quarter, d_moy
//   ORDER BY d_year, d_quarter, d_moy
//
// Physical design per the paper: the data is clustered by a tree index on
// (d_year, d_moy) — a stream in that order is free. Without OD knowledge
// the optimizer cannot use it: quarter intervenes in both clauses and the
// FD month → quarter cannot remove it from the ORDER BY, so the baseline
// plans sort. With [d_moy] ↦ [d_quarter] (Theorem 8, Left Eliminate) both
// clauses reduce to [d_year, d_moy], the clustered order provides them, and
// no sort operator appears.
//
// Two paired measurements:
//   * the ORDER BY half on the detail stream: full sort vs pass-through;
//   * the GROUP BY half: hash aggregation + result sort vs stream
//     aggregation over the clustered order.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_util.h"
#include "engine/ops.h"
#include "optimizer/order_property.h"
#include "warehouse/date_dim.h"
#include "warehouse/star_schema.h"

namespace od {
namespace {

struct Workload {
  engine::Table clustered;  // physically ordered by (d_year, d_moy)
  engine::ColumnId year, quarter, moy, net;

  explicit Workload(int64_t fact_rows) {
    engine::Table dim = warehouse::GenerateDateDim(1998, 5);
    engine::Table fact = warehouse::GenerateStoreSales(
        fact_rows, dim.col(0).Int(0), dim.num_rows(), 100, 10, 17);
    const warehouse::DateDimColumns d;
    const warehouse::StoreSalesColumns f;
    engine::Table joined =
        engine::HashJoin(fact, f.ss_sold_date_sk, dim, d.d_date_sk);
    year = joined.Find("d_year");
    quarter = joined.Find("d_quarter");
    moy = joined.Find("d_moy");
    net = joined.Find("ss_net_paid");
    clustered = engine::SortBy(joined, {year, moy});
  }

  bool OdRewriteLicensed() const {
    DependencySet m;
    m.Add(AttributeList({moy}), AttributeList({quarter}));
    opt::OrderReasoner reasoner(std::move(m));
    return reasoner.Equivalent({year, quarter, moy}, {year, moy}) &&
           reasoner.GroupsContiguousUnder({year, moy},
                                          {year, quarter, moy});
  }
};

Workload& GetWorkload(int64_t rows) {
  static std::map<int64_t, Workload*>* cache =
      new std::map<int64_t, Workload*>();
  auto it = cache->find(rows);
  if (it == cache->end()) it = cache->emplace(rows, new Workload(rows)).first;
  return *it->second;
}

// --- ORDER BY year, quarter, moy over the detail stream -------------------

void BM_OrderByWithSort(benchmark::State& state) {
  Workload& w = GetWorkload(state.range(0));
  for (auto _ : state) {
    engine::Table sorted =
        engine::SortBy(w.clustered, {w.year, w.quarter, w.moy});
    benchmark::DoNotOptimize(sorted);
  }
}

void BM_OrderByFromClusteredOrder(benchmark::State& state) {
  Workload& w = GetWorkload(state.range(0));
  if (!w.OdRewriteLicensed()) {
    state.SkipWithError("OD reasoning failed to license the rewrite");
    return;
  }
  for (auto _ : state) {
    // The clustered (year, moy) stream IS the answer; materialization cost
    // only (same output size as the sort plan).
    engine::Table stream = w.clustered;
    benchmark::DoNotOptimize(stream);
  }
}

// --- GROUP BY year, quarter, moy (ordered output required) ----------------

std::vector<engine::AggSpec> Aggs(const Workload& w) {
  return {{engine::AggSpec::Kind::kSum, w.net, "sum_net"}};
}

void BM_GroupByHashThenSort(benchmark::State& state) {
  Workload& w = GetWorkload(state.range(0));
  for (auto _ : state) {
    engine::Table grouped = engine::HashGroupBy(
        w.clustered, {w.year, w.quarter, w.moy}, Aggs(w));
    engine::Table sorted = engine::SortBy(grouped, {0, 1, 2});
    benchmark::DoNotOptimize(sorted);
  }
}

void BM_GroupByStreamNoSort(benchmark::State& state) {
  Workload& w = GetWorkload(state.range(0));
  if (!w.OdRewriteLicensed()) {
    state.SkipWithError("OD reasoning failed to license the rewrite");
    return;
  }
  for (auto _ : state) {
    engine::Table grouped = engine::StreamGroupBy(
        w.clustered, {w.year, w.quarter, w.moy}, Aggs(w));
    benchmark::DoNotOptimize(grouped);
  }
}

BENCHMARK(BM_OrderByWithSort)
    ->Arg(50000)
    ->Arg(200000)
    ->Arg(800000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OrderByFromClusteredOrder)
    ->Arg(50000)
    ->Arg(200000)
    ->Arg(800000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GroupByHashThenSort)
    ->Arg(50000)
    ->Arg(200000)
    ->Arg(800000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GroupByStreamNoSort)
    ->Arg(50000)
    ->Arg(200000)
    ->Arg(800000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace od

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  od::bench::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const std::vector<std::string> sizes = {"/50000", "/200000", "/800000"};
  od::bench::PrintPairedSummary(
      reporter,
      "Example 1 ORDER BY: sort operator vs clustered (year, moy) order",
      sizes, "BM_OrderByWithSort", "BM_OrderByFromClusteredOrder");
  od::bench::PrintPairedSummary(
      reporter,
      "Example 1 GROUP BY: hash agg + sort vs OD stream agg (no sort)",
      sizes, "BM_GroupByHashThenSort", "BM_GroupByStreamNoSort");
  benchmark::Shutdown();
  return 0;
}
