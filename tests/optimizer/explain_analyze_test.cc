// EXPLAIN ANALYZE: after an Execute, every plan node reports its actual
// wall-clock and rows next to the estimates, the cost-model share error is
// printed, and the OD proofs behind each elided enforcer close the report.
// The same fixtures drive the parallel-trace and metrics-export acceptance
// checks, because they all observe one executed query.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "engine/index.h"
#include "engine/ops.h"
#include "engine/partition.h"
#include "optimizer/planner.h"
#include "theory/theory.h"
#include "warehouse/date_dim.h"
#include "warehouse/queries.h"
#include "warehouse/star_schema.h"
#include "warehouse/tax_schedule.h"

namespace od {
namespace opt {
namespace {

using engine::Table;

bool Mentions(const std::string& report, const std::string& token) {
  return report.find(token) != std::string::npos;
}

class TaxExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    taxes_ = warehouse::GenerateTaxTable(/*num_rows=*/20000,
                                         /*max_income=*/250000, /*seed=*/7);
    index_ = std::make_unique<engine::OrderedIndex>(
        &taxes_, engine::SortSpec{warehouse::TaxColumns().income});
    ods_ = std::make_shared<theory::Theory>(warehouse::TaxOds());
  }
  Table taxes_;
  std::unique_ptr<engine::OrderedIndex> index_;
  std::shared_ptr<theory::Theory> ods_;
};

TEST_F(TaxExplainAnalyzeTest, UnexecutedPlanRendersEstimatesOnly) {
  LogicalQuery q = warehouse::TaxOrderByQuery(&taxes_, index_.get(), ods_);
  PhysicalPlan plan = PlanQuery(q);
  const std::string report = plan.ExplainAnalyze();
  EXPECT_TRUE(Mentions(report, "plan not executed")) << report;
  EXPECT_TRUE(Mentions(report, "est_rows")) << report;
  EXPECT_FALSE(Mentions(report, "actual_ms=")) << report;
}

TEST_F(TaxExplainAnalyzeTest, ReportShowsActualsErrorsAndProofs) {
  LogicalQuery q = warehouse::TaxOrderByQuery(&taxes_, index_.get(), ods_);
  PhysicalPlan plan = PlanQuery(q);
  ExecStats stats;
  const std::string report = ExplainAnalyze(plan, &stats);

  EXPECT_TRUE(Mentions(report, "EXPLAIN ANALYZE (total ")) << report;
  EXPECT_TRUE(Mentions(report, "actual_ms=")) << report;
  EXPECT_TRUE(Mentions(report, "actual_rows=20000")) << report;
  EXPECT_TRUE(Mentions(report, "rows_err=")) << report;
  EXPECT_TRUE(Mentions(report, "cost_err=x")) << report;

  // The elided ORDER BY sort is named with its OD proof, verbatim.
  ASSERT_GE(plan.sorts_elided(), 1);
  ASSERT_FALSE(plan.proofs().empty());
  for (const std::string& proof : plan.proofs()) {
    EXPECT_TRUE(Mentions(report, proof)) << "missing proof: " << proof;
  }
  EXPECT_EQ(stats.sorts, 0);
  EXPECT_GE(stats.rows_output, taxes_.num_rows());
}

TEST_F(TaxExplainAnalyzeTest, PerfectEstimatesShowZeroRowError) {
  LogicalQuery q = warehouse::TaxOrderByQuery(&taxes_, index_.get(), ods_);
  PhysicalPlan plan = PlanQuery(q);
  ExecStats stats;
  const std::string report = ExplainAnalyze(plan, &stats);
  // A full index scan has an exact cardinality estimate: 20000 rows
  // estimated, 20000 produced, 0% row error on that node.
  EXPECT_TRUE(Mentions(report, "rows_err=+0%")) << report;
}

class DateExplainAnalyzeTest : public ::testing::Test {
 protected:
  static constexpr int kStartYear = 1998;
  static constexpr int kYears = 4;
  void SetUp() override {
    dim_ = warehouse::GenerateDateDim(kStartYear, kYears);
    const int64_t first_sk = dim_.col(0).Int(0);
    fact_ = warehouse::GenerateStoreSales(/*num_rows=*/30000, first_sk,
                                          dim_.num_rows(), /*num_items=*/50,
                                          /*num_stores=*/10, /*seed=*/42);
    index_ = std::make_unique<engine::OrderedIndex>(&fact_,
                                                    engine::SortSpec{0});
    parts_ = std::make_unique<engine::PartitionedTable>(
        engine::PartitionedTable::PartitionByRange(fact_, 0, 16));
    dim_ods_ = std::make_shared<theory::Theory>(warehouse::DateDimOds());
  }
  LogicalQuery DailySales() {
    return warehouse::DailySalesQuery(&fact_, &dim_, index_.get(),
                                      parts_.get(), dim_ods_, kStartYear + 1);
  }
  Table dim_, fact_;
  std::unique_ptr<engine::OrderedIndex> index_;
  std::unique_ptr<engine::PartitionedTable> parts_;
  std::shared_ptr<theory::Theory> dim_ods_;
};

TEST_F(DateExplainAnalyzeTest, DailySalesNamesEveryElisionProof) {
  PhysicalPlan plan = PlanQuery(DailySales());
  ASSERT_EQ(plan.joins_elided(), 1);
  ASSERT_GE(plan.sorts_elided(), 2);
  const std::string report = ExplainAnalyze(plan);
  // Every elision (the surrogate-key join, the stream-agg contiguity, the
  // ORDER BY) appears in the report with the OD proof that justified it.
  EXPECT_EQ(static_cast<int>(plan.proofs().size()),
            plan.joins_elided() + plan.sorts_elided());
  for (const std::string& proof : plan.proofs()) {
    EXPECT_TRUE(Mentions(report, proof)) << "missing proof: " << proof;
  }
  EXPECT_TRUE(Mentions(report, "actual_rows=365")) << report;
  EXPECT_TRUE(Mentions(report, "actual_ms=")) << report;
  EXPECT_TRUE(Mentions(report, "cost_err=x")) << report;
}

TEST_F(DateExplainAnalyzeTest, ParallelRunExportsFragmentSpansPerLane) {
  common::ThreadPool pool(4);
  CostModel cm;
  cm.fragment_startup = 0.0;  // make the fan-out pay at this table size
  PlanOptions opts;
  opts.dop = 4;
  opts.pool = &pool;
  PhysicalPlan plan = PlanQuery(DailySales(), cm, opts);
  ASSERT_TRUE(Mentions(plan.Explain(), "Exchange") ||
              Mentions(plan.Explain(), "ParallelHashAggregate"))
      << plan.Explain();

  common::Tracer& tracer = common::Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  ExecStats stats;
  const std::string report = ExplainAnalyze(plan, &stats);
  tracer.Disable();

  EXPECT_GE(stats.fragments, opts.dop);
  EXPECT_TRUE(Mentions(report, "actual_ms=")) << report;

#if OD_TRACE_ENABLED
  const std::string trace = tracer.ExportChromeTrace();
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_TRUE(Mentions(trace, "\"exchange.fragment\""))
      << trace.substr(0, 500);
  // The fragment-drain histogram saw every fragment this Execute drained.
  const auto snap = common::MetricRegistry::Global().Snapshot();
  const auto it = snap.histograms.find("od_exec_fragment_drain_us");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_GE(it->second.count, static_cast<int64_t>(opts.dop));
#endif
  tracer.Clear();
}

TEST_F(DateExplainAnalyzeTest, SerialBlindPlanChargesItsEnforcers) {
  // OD-blind daily sales at dop 1 pays all three enforcers — hash join,
  // hash aggregate, sort — with no fragments, and the join node's time
  // includes its build, which runs inside the join's first Next.
  PhysicalPlan plan = PlanQuery(warehouse::DailySalesQuery(
      &fact_, &dim_, index_.get(), parts_.get(), /*dim_ods=*/nullptr,
      kStartYear + 1));
  const PhysicalNode* join = &plan.root();
  while (join->kind != PhysicalNode::Kind::kHashJoin) {
    ASSERT_FALSE(join->children.empty()) << plan.Explain();
    join = join->children[0].get();
  }
  ASSERT_TRUE(Mentions(plan.Explain(), "HashAggregate")) << plan.Explain();

  common::Tracer& tracer = common::Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  ExecStats stats;
  const std::string report = ExplainAnalyze(plan, &stats);
  tracer.Disable();

  EXPECT_EQ(stats.fragments, 0);
  EXPECT_EQ(stats.joins, 1);
  EXPECT_EQ(stats.sorts, 1);
  EXPECT_EQ(stats.sorts_elided, 0);
  const PhysicalNode& probe = *join->children[0];
  const PhysicalNode& build = *join->children[1];
  EXPECT_EQ(build.actual_rows, 365);
  EXPECT_GT(build.actual_ns, 0);
  EXPECT_GE(join->actual_ns, probe.actual_ns + build.actual_ns) << report;
#if OD_TRACE_ENABLED
  EXPECT_FALSE(Mentions(tracer.ExportChromeTrace(), "\"exchange.fragment\""));
#endif
  tracer.Clear();
}

TEST_F(DateExplainAnalyzeTest, ParallelBlindPlanLeavesTemplatesUntimed) {
  // The counting rule per-operator self time relies on: the parallel node
  // and everything above it are timed, and so is each hash-join build side
  // (built once, before the fragments start); the fragment template runs
  // once per fragment, so its driving chain stays at -1 and its work rolls
  // up into the parallel node.
  common::ThreadPool pool(4);
  CostModel cm;
  cm.fragment_startup = 0.0;  // make the fan-out pay at this table size
  PlanOptions opts;
  opts.dop = 4;
  opts.pool = &pool;
  PhysicalPlan plan = PlanQuery(
      warehouse::DailySalesQuery(&fact_, &dim_, index_.get(), parts_.get(),
                                 /*dim_ods=*/nullptr, kStartYear + 1),
      cm, opts);
  const std::string report = ExplainAnalyze(plan);
  using Kind = PhysicalNode::Kind;
  const PhysicalNode* n = &plan.root();
  for (;; n = n->children[0].get()) {
    EXPECT_GE(n->actual_rows, 0) << report;
    EXPECT_GE(n->actual_ns, 0) << report;
    if (n->kind == Kind::kParallelHashAgg || n->kind == Kind::kExchange) break;
    ASSERT_FALSE(n->children.empty()) << report;
  }
  int joins = 0;
  for (const PhysicalNode* t = n->children[0].get(); t != nullptr;
       t = t->children.empty() ? nullptr : t->children[0].get()) {
    EXPECT_EQ(t->actual_rows, -1) << report;
    EXPECT_EQ(t->actual_ns, -1) << report;
    if (t->kind == Kind::kHashJoin) {
      ++joins;
      EXPECT_GE(t->children[1]->actual_rows, 0) << report;
      EXPECT_GE(t->children[1]->actual_ns, 0) << report;
    }
  }
  EXPECT_EQ(joins, 1) << report;
}

TEST_F(DateExplainAnalyzeTest, LiveRegistrySnapshotRoundTripsBothFormats) {
  // Execute a real query so the registry holds engine-written metrics
  // (prover searches, planner enumerations, discovery counters from other
  // tests in this binary...), then check the full live snapshot survives
  // the Prometheus exposition losslessly.
  PhysicalPlan plan = PlanQuery(DailySales());
  plan.Execute(nullptr);
  common::MetricRegistry& reg = common::MetricRegistry::Global();
  const common::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_FALSE(snap.counters.empty());
  EXPECT_TRUE(snap.counters.count("od_planner_plans_enumerated_total") > 0);
  EXPECT_TRUE(common::MetricRegistry::FromPrometheusText(
                  common::MetricRegistry::ToPrometheusText(snap)) == snap);
}

}  // namespace
}  // namespace opt
}  // namespace od
