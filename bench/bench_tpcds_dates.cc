// Experiment C-TPCDS (Section 2.3 / [18]): the surrogate-key date rewrite
// over the thirteen TPC-DS-style query templates. The paper reports that
// all thirteen matching TPC-DS queries benefited from the rewrite in the
// DB2 prototype, with an average gain of 48%; this harness regenerates the
// same comparison and prints the per-query and average gains. Each
// template is planned by PlanQuery twice: OD-blind (no date-dimension
// catalog: the fact ⋈ date_dim join stays) and OD-aware (the planner
// proves [d_date_sk] ↔ [d_date] and replaces the join with a fact-index
// surrogate range). An iteration plans and executes, so the rewritten arm
// pays for its proof and its two dimension probes.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.h"
#include "engine/index.h"
#include "optimizer/planner.h"
#include "theory/theory.h"
#include "warehouse/date_dim.h"
#include "warehouse/queries.h"
#include "warehouse/star_schema.h"

namespace od {
namespace {

constexpr int kStartYear = 1998;
constexpr int kYears = 5;
constexpr int64_t kFactRows = 400000;

struct Workload {
  engine::Table dim;
  engine::Table fact;
  engine::OrderedIndex fact_index;
  std::vector<opt::DateRangeQuery> queries;
  std::shared_ptr<theory::Theory> dim_ods;

  Workload()
      : dim(warehouse::GenerateDateDim(kStartYear, kYears)),
        fact(warehouse::GenerateStoreSales(kFactRows, dim.col(0).Int(0),
                                           dim.num_rows(), /*num_items=*/200,
                                           /*num_stores=*/20, /*seed=*/1)),
        fact_index(&fact, {0}),
        queries(warehouse::TpcdsDateQueries(kStartYear, kYears)),
        dim_ods(std::make_shared<theory::Theory>(warehouse::DateDimOds())) {}
};

Workload& GetWorkload() {
  static Workload* w = new Workload();
  return *w;
}

/// Plans and runs template `state.range(0)` over `dim_ods`, once the first
/// run shows the plan pays the join (OD-blind) or elides it (OD-aware).
void RunTemplate(benchmark::State& state,
                 std::shared_ptr<theory::Theory> dim_ods) {
  Workload& w = GetWorkload();
  const auto& q = w.queries[state.range(0)];
  const bool od_aware = dim_ods != nullptr;
  const opt::LogicalQuery lq = warehouse::ToLogicalQuery(
      q, &w.fact, &w.dim, &w.fact_index, /*fact_parts=*/nullptr,
      std::move(dim_ods));
  {
    opt::ExecStats stats;
    opt::PlanQuery(lq).Execute(&stats);
    if (stats.joins != (od_aware ? 0 : 1) ||
        stats.joins_elided != (od_aware ? 1 : 0)) {
      state.SkipWithError(od_aware ? "planner failed to elide the join"
                                   : "OD-blind plan did not pay the join");
      return;
    }
  }
  int64_t rows = 0;
  for (auto _ : state) {
    opt::ExecStats stats;
    engine::Table result = opt::PlanQuery(lq).Execute(&stats);
    rows = result.num_rows();
    benchmark::DoNotOptimize(result);
  }
  state.counters["groups"] = static_cast<double>(rows);
  state.SetLabel(q.name);
}

void BM_Baseline(benchmark::State& state) { RunTemplate(state, nullptr); }

void BM_Rewritten(benchmark::State& state) {
  RunTemplate(state, GetWorkload().dim_ods);
}

BENCHMARK(BM_Baseline)->DenseRange(0, 12)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Rewritten)->DenseRange(0, 12)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace od

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  od::bench::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  // Summarize per paper: per-query baseline vs rewritten and average gain.
  std::vector<std::string> labels;
  for (int i = 0; i < 13; ++i) labels.push_back("/" + std::to_string(i));
  od::bench::PrintPairedSummary(
      reporter,
      "TPC-DS date-predicate queries: OD-blind vs OD-aware plan "
      "(paper: 13/13 improved, avg 48%)",
      labels, "BM_Baseline", "BM_Rewritten");
  benchmark::Shutdown();
  return 0;
}
