// Experiment C-PART (Section 2.3): when the fact table is partitioned by
// the date surrogate key but queries predicate on natural dates, the
// OD-blind plan reads every fact row and joins; the OD-aware plan
// (PlanQuery over the date-dimension catalog) turns the predicate into a
// surrogate range that prunes to the overlapping partitions only. Sweeps
// partition counts. An iteration plans and executes.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_util.h"
#include "engine/partition.h"
#include "optimizer/planner.h"
#include "theory/theory.h"
#include "warehouse/date_dim.h"
#include "warehouse/queries.h"
#include "warehouse/star_schema.h"

namespace od {
namespace {

constexpr int kStartYear = 1998;
constexpr int kYears = 5;

struct Workload {
  engine::Table dim;
  engine::Table fact;
  std::map<int, engine::PartitionedTable> partitioned;
  opt::DateRangeQuery query;
  std::shared_ptr<theory::Theory> dim_ods;

  Workload()
      : dim(warehouse::GenerateDateDim(kStartYear, kYears)),
        fact(warehouse::GenerateStoreSales(300000, dim.col(0).Int(0),
                                           dim.num_rows(), 100, 10, 3)),
        // query index 5: a (year, month) predicate — 1/60th of the days.
        query(warehouse::TpcdsDateQueries(kStartYear, kYears)[5]),
        dim_ods(std::make_shared<theory::Theory>(warehouse::DateDimOds())) {
    for (int parts : {4, 16, 64}) {
      partitioned.emplace(parts, engine::PartitionedTable::PartitionByRange(
                                     fact, 0, parts));
    }
  }
};

Workload& GetWorkload() {
  static Workload* w = new Workload();
  return *w;
}

/// Plans and runs the query over `state.range(0)` partitions, once the
/// first run shows the plan pays the join (OD-blind) or prunes (OD-aware).
void RunPartitioned(benchmark::State& state,
                    std::shared_ptr<theory::Theory> dim_ods) {
  Workload& w = GetWorkload();
  const int num_parts = static_cast<int>(state.range(0));
  const bool od_aware = dim_ods != nullptr;
  const opt::LogicalQuery lq = warehouse::ToLogicalQuery(
      w.query, &w.fact, &w.dim, /*fact_sk_index=*/nullptr,
      &w.partitioned.at(num_parts), std::move(dim_ods));
  opt::ExecStats first;
  opt::PlanQuery(lq).Execute(&first);
  const bool as_planned =
      od_aware
          ? first.joins_elided == 1 && first.partitions_scanned < num_parts
          : first.joins == 1;
  if (!as_planned) {
    state.SkipWithError(od_aware ? "planner failed to prune partitions"
                                 : "OD-blind plan did not pay the join");
    return;
  }
  for (auto _ : state) {
    opt::ExecStats stats;
    engine::Table result = opt::PlanQuery(lq).Execute(&stats);
    benchmark::DoNotOptimize(result);
  }
  // A plain scan touches no partitions, so report rows too.
  state.counters["partitions_scanned"] = first.partitions_scanned;
  state.counters["rows_scanned"] = static_cast<double>(first.rows_scanned);
}

void BM_AllPartitionsJoin(benchmark::State& state) {
  RunPartitioned(state, nullptr);
}

void BM_PrunedPartitions(benchmark::State& state) {
  RunPartitioned(state, GetWorkload().dim_ods);
}

BENCHMARK(BM_AllPartitionsJoin)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PrunedPartitions)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace od

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  od::bench::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  od::bench::PrintPairedSummary(
      reporter,
      "Date-partitioned fact: OD-blind join vs OD-pruned partition scan",
      {"/4", "/16", "/64"}, "BM_AllPartitionsJoin", "BM_PrunedPartitions");
  benchmark::Shutdown();
  return 0;
}
