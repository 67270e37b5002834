// Experiment EXEC: the streaming executor + cost-based planner turn OD
// reasoning into wall-clock wins. Two ≥1M-row workloads, each planned by
// PlanQuery twice from the same logical query: OD-blind (its catalog
// nulled — what a reasoner-less optimizer would run) and OD-aware. Both
// run on the same streaming executor, so the ratio is the OD proofs' worth
// alone:
//   * TAX (Example 5): SELECT * FROM taxes ORDER BY bracket, tax.
//     OD-blind: a full sort of 1.2M rows. OD-aware: the income-ordered
//     index stream provably satisfies the ORDER BY
//     ([income] ↦ [bracket, tax]) — zero sorts.
//   * DAILY (Section 2.3 shape): per-day totals for one year from a 1M-row
//     fact ⋈ date_dim. OD-blind: the join stays. OD-aware: the
//     surrogate-key OD elides the join (index range scan), the index order
//     makes groups contiguous (stream aggregate), and the ORDER BY is
//     provably satisfied — zero sorts, zero joins.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "engine/index.h"
#include "engine/ops.h"
#include "optimizer/planner.h"
#include "theory/theory.h"
#include "warehouse/date_dim.h"
#include "warehouse/queries.h"
#include "warehouse/star_schema.h"
#include "warehouse/tax_schedule.h"

namespace od {
namespace {

struct TaxWorkload {
  engine::Table taxes;
  engine::OrderedIndex income_index;
  std::shared_ptr<theory::Theory> ods;

  explicit TaxWorkload(int64_t rows)
      : taxes(warehouse::GenerateTaxTable(rows, /*max_income=*/250000,
                                          /*seed=*/29)),
        income_index(&taxes, {warehouse::TaxColumns().income}),
        ods(std::make_shared<theory::Theory>(warehouse::TaxOds())) {}
};

TaxWorkload& GetTax(int64_t rows) {
  static auto* cache = new std::map<int64_t, TaxWorkload*>();
  auto it = cache->find(rows);
  if (it == cache->end()) {
    it = cache->emplace(rows, new TaxWorkload(rows)).first;
  }
  return *it->second;
}

/// Times `plan`'s executions once a first run's stats pass `as_planned`:
/// the OD-blind arm must pay the enforcer the OD-aware arm elides.
template <typename Check>
void ExecuteLoop(benchmark::State& state, const opt::PhysicalPlan& plan,
                 Check as_planned, const char* error) {
  {
    opt::ExecStats stats;
    engine::Table out = plan.Execute(&stats);
    if (!as_planned(stats)) {
      state.SkipWithError(error);
      return;
    }
  }
  for (auto _ : state) {
    opt::ExecStats stats;
    engine::Table out = plan.Execute(&stats);
    benchmark::DoNotOptimize(out);
  }
}

void BM_TaxOrderByStreamingOdBlind(benchmark::State& state) {
  TaxWorkload& w = GetTax(state.range(0));
  ExecuteLoop(
      state,
      opt::PlanQuery(warehouse::TaxOrderByQuery(&w.taxes, &w.income_index,
                                                /*tax_ods=*/nullptr)),
      [](const opt::ExecStats& s) { return s.sorts == 1; },
      "OD-blind plan did not pay the ORDER BY sort");
}

void BM_TaxOrderByStreamingOdAware(benchmark::State& state) {
  TaxWorkload& w = GetTax(state.range(0));
  ExecuteLoop(
      state,
      opt::PlanQuery(
          warehouse::TaxOrderByQuery(&w.taxes, &w.income_index, w.ods)),
      [](const opt::ExecStats& s) {
        return s.sorts == 0 && s.sorts_elided >= 1;
      },
      "planner failed to elide the ORDER BY sort");
}

struct StarWorkload {
  engine::Table dim;
  engine::Table fact;
  engine::OrderedIndex fact_index;
  std::shared_ptr<theory::Theory> dim_ods;

  explicit StarWorkload(int64_t rows)
      : dim(warehouse::GenerateDateDim(1998, 5)),
        fact(warehouse::GenerateStoreSales(rows, dim.col(0).Int(0),
                                           dim.num_rows(), /*num_items=*/100,
                                           /*num_stores=*/10, /*seed=*/29)),
        fact_index(&fact, {0}),
        dim_ods(std::make_shared<theory::Theory>(warehouse::DateDimOds())) {}
};

StarWorkload& GetStar(int64_t rows) {
  static auto* cache = new std::map<int64_t, StarWorkload*>();
  auto it = cache->find(rows);
  if (it == cache->end()) {
    it = cache->emplace(rows, new StarWorkload(rows)).first;
  }
  return *it->second;
}

void BM_DailySalesStreamingOdBlind(benchmark::State& state) {
  StarWorkload& w = GetStar(state.range(0));
  ExecuteLoop(
      state,
      opt::PlanQuery(warehouse::DailySalesQuery(
          &w.fact, &w.dim, &w.fact_index, /*fact_parts=*/nullptr,
          /*dim_ods=*/nullptr, /*year=*/1999)),
      [](const opt::ExecStats& s) {
        return s.joins == 1 && s.joins_elided == 0;
      },
      "OD-blind plan did not pay the join");
}

void BM_DailySalesStreamingOdAware(benchmark::State& state) {
  StarWorkload& w = GetStar(state.range(0));
  ExecuteLoop(
      state,
      opt::PlanQuery(warehouse::DailySalesQuery(
          &w.fact, &w.dim, &w.fact_index, /*fact_parts=*/nullptr, w.dim_ods,
          /*year=*/1999)),
      [](const opt::ExecStats& s) {
        return s.sorts == 0 && s.joins == 0 && s.joins_elided == 1;
      },
      "planner failed to elide the join and sorts");
}

// ---------------------------------------------------------------------------
// Morsel-parallel execution: the same OD-aware plans, split into row-range
// fragments behind an exchange. Benchmark arg = degree of parallelism; the
// thread-scaling gate (bench/check_scaling.py) asserts the dop sweep, so
// these run at real sizes: 10M fact rows for the parallel aggregate.

common::ThreadPool& BenchPool() {
  static auto* pool = new common::ThreadPool(0);  // hardware concurrency
  return *pool;
}

// Partition-parallel GROUP BY over 10M rows: thread-local accumulator
// build dominates, so this is the family the ≥3×-at-≥4-cores gate holds.
void BM_ExecParallelGroupBy10M(benchmark::State& state) {
  StarWorkload& w = GetStar(10000000);
  const warehouse::StoreSalesColumns f;
  opt::LogicalQuery q;
  q.name = "groupby_item";
  q.tables.push_back(opt::TableRef{"store_sales", &w.fact, nullptr, nullptr,
                                   nullptr, nullptr, -1});
  q.filters.resize(1);
  q.group_cols = {f.ss_item_sk};
  q.aggs = {{engine::AggSpec::Kind::kSum, f.ss_net_paid, "sum_net"},
            {engine::AggSpec::Kind::kCount, 0, "cnt"},
            {engine::AggSpec::Kind::kAvg, f.ss_sales_price, "avg_price"}};
  const int dop = static_cast<int>(state.range(0));
  opt::PlanOptions opts;
  opts.dop = dop;
  opts.pool = &BenchPool();
  opt::PhysicalPlan plan = opt::PlanQuery(q, opt::CostModel(), opts);
  if (dop > 1 &&
      plan.Explain().find("ParallelHashAggregate") == std::string::npos) {
    state.SkipWithError("planner declined the parallel aggregate");
    return;
  }
  for (auto _ : state) {
    opt::ExecStats stats;
    engine::Table out = plan.Execute(&stats);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 10000000);
}

// The OD-proven order-preserving merge on a 2M-row ordered scan: fragments
// of the income-index stream recombined without any sort. The serial
// row-at-a-time merge caps the ceiling, so this family is reported by the
// gate but not required — it documents the merge overhead rather than
// hiding it.
void BM_ExecParallelOrderedMerge2M(benchmark::State& state) {
  TaxWorkload& w = GetTax(2000000);
  opt::LogicalQuery q =
      warehouse::TaxOrderByQuery(&w.taxes, &w.income_index, w.ods);
  const int dop = static_cast<int>(state.range(0));
  opt::PlanOptions opts;
  opts.dop = dop;
  opts.pool = &BenchPool();
  opt::CostModel cm;
  cm.fragment_startup = 0;  // always fan out: the sweep is the experiment
  opt::PhysicalPlan plan = opt::PlanQuery(q, cm, opts);
  {
    opt::ExecStats stats;
    engine::Table out = plan.Execute(&stats);
    if (stats.sorts != 0) {
      state.SkipWithError("parallel plan reintroduced a sort");
      return;
    }
  }
  for (auto _ : state) {
    opt::ExecStats stats;
    engine::Table out = plan.Execute(&stats);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 2000000);
}

// The streaming exchange end to end: daily sales over a 10M-row fact,
// planned as per-fragment stream-aggregate partials behind the OD-proven
// ordered exchange (+ combine). Fragments push batches through the bounded
// queues while the consumer merges — nothing materializes, so the dop
// sweep measures the streaming path itself.
void BM_ExecParallelStreamingExchange10M(benchmark::State& state) {
  StarWorkload& w = GetStar(10000000);
  opt::LogicalQuery q = warehouse::DailySalesQuery(
      &w.fact, &w.dim, &w.fact_index, /*fact_parts=*/nullptr, w.dim_ods,
      /*year=*/1999);
  const int dop = static_cast<int>(state.range(0));
  opt::PlanOptions opts;
  opts.dop = dop;
  opts.pool = &BenchPool();
  opt::CostModel cm;
  cm.fragment_startup = 0;  // always fan out: the sweep is the experiment
  opt::PhysicalPlan plan = opt::PlanQuery(q, cm, opts);
  if (dop > 1 && plan.Explain().find("Exchange") == std::string::npos) {
    state.SkipWithError("planner declined the streaming exchange");
    return;
  }
  for (auto _ : state) {
    opt::ExecStats stats;
    engine::Table out = plan.Execute(&stats);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 10000000);
}

BENCHMARK(BM_TaxOrderByStreamingOdBlind)
    ->Arg(1200000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TaxOrderByStreamingOdAware)
    ->Arg(1200000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DailySalesStreamingOdBlind)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DailySalesStreamingOdAware)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExecParallelGroupBy10M)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ExecParallelOrderedMerge2M)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ExecParallelStreamingExchange10M)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace od

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  od::bench::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  od::bench::PrintPairedSummary(
      reporter, "ORDER BY bracket, tax (1.2M rows): OD-blind vs OD-aware "
                "streaming plan",
      {"/1200000"}, "BM_TaxOrderByStreamingOdBlind",
      "BM_TaxOrderByStreamingOdAware");
  od::bench::PrintPairedSummary(
      reporter, "Daily sales (1M-row fact): OD-blind vs OD-aware streaming "
                "plan",
      {"/1000000"}, "BM_DailySalesStreamingOdBlind",
      "BM_DailySalesStreamingOdAware");
  benchmark::Shutdown();
  return 0;
}
