// The cost-based physical planner: enforcer elision must be *proven* (OD
// reasoning), every chosen plan must agree with a reference computed by the
// engine:: kernels, the order-aware warehouse queries must execute with
// zero sorts when the ODs hold, and compiled plans keep their batches
// within PlanOptions::batch_rows.

#include "optimizer/planner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "engine/index.h"
#include "engine/ops.h"
#include "engine/partition.h"
#include "optimizer/date_rewrite.h"
#include "theory/theory.h"
#include "warehouse/date_dim.h"
#include "warehouse/queries.h"
#include "warehouse/star_schema.h"
#include "warehouse/tax_schedule.h"

namespace od {
namespace opt {
namespace {

using engine::AggSpec;
using engine::DataType;
using engine::Predicate;
using engine::Schema;
using engine::Table;

bool ExplainMentions(const PhysicalPlan& plan, const std::string& token) {
  return plan.Explain().find(token) != std::string::npos;
}

/// The date query answered by the engine:: kernels alone: filter the
/// dimension, hash-join the fact to it, hash-aggregate.
Table EngineReference(const Table& fact, const Table& dim,
                      const DateRangeQuery& q) {
  return engine::HashGroupBy(
      engine::HashJoin(fact, q.fact_date_sk,
                       engine::Filter(dim, q.dim_predicates), q.dim_date_sk),
      q.fact_group_cols, q.fact_aggs);
}

/// Drains `plan` batch by batch, failing on any batch over `batch_rows`
/// rows; returns the rows and counts the batches into `*batches`.
Table DrainInBatchesOf(const PhysicalPlan& plan, int64_t batch_rows,
                       int64_t* batches) {
  exec::OpPtr op = plan.Compile(nullptr);
  Table out(op->schema());
  exec::Batch b;
  *batches = 0;
  while (op->Next(&b)) {
    EXPECT_LE(b.num_rows(), batch_rows);
    ++*batches;
    for (int c = 0; c < out.num_columns(); ++c) {
      out.col(c).AppendRange(b.col(c), 0, b.num_rows());
    }
    out.SetRowCount(out.num_rows() + b.num_rows());
  }
  return out;
}

class TaxPlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    taxes_ = warehouse::GenerateTaxTable(/*num_rows=*/20000,
                                         /*max_income=*/250000, /*seed=*/7);
    index_ = std::make_unique<engine::OrderedIndex>(
        &taxes_, engine::SortSpec{warehouse::TaxColumns().income});
  }
  Table taxes_;
  std::unique_ptr<engine::OrderedIndex> index_;
};

TEST_F(TaxPlannerTest, OdsElideTheOrderBySort) {
  const warehouse::TaxColumns t;
  auto ods = std::make_shared<theory::Theory>(warehouse::TaxOds());
  LogicalQuery q = warehouse::TaxOrderByQuery(&taxes_, index_.get(), ods);
  PhysicalPlan plan = PlanQuery(q);
  // The income-ordered index stream provably satisfies ORDER BY bracket,
  // tax ([income] ↦ [bracket, tax] by Union): no Sort node anywhere.
  EXPECT_FALSE(ExplainMentions(plan, "Sort"));
  EXPECT_TRUE(ExplainMentions(plan, "IndexRangeScan"));
  EXPECT_GE(plan.sorts_elided(), 1);
  ASSERT_FALSE(plan.proofs().empty());

  ExecStats stats;
  Table out = plan.Execute(&stats);
  EXPECT_EQ(stats.sorts, 0);
  EXPECT_GE(stats.sorts_elided, 1);
  EXPECT_EQ(out.num_rows(), taxes_.num_rows());
  EXPECT_TRUE(engine::IsSortedBy(out, {t.bracket, t.tax}));
  EXPECT_TRUE(engine::SameRowMultiset(taxes_, out));
}

TEST_F(TaxPlannerTest, WithoutOdsThePlanSorts) {
  const warehouse::TaxColumns t;
  LogicalQuery q =
      warehouse::TaxOrderByQuery(&taxes_, index_.get(), /*tax_ods=*/nullptr);
  PhysicalPlan plan = PlanQuery(q);
  EXPECT_TRUE(ExplainMentions(plan, "Sort"));
  ExecStats stats;
  Table out = plan.Execute(&stats);
  EXPECT_EQ(stats.sorts, 1);
  EXPECT_TRUE(engine::IsSortedBy(out, {t.bracket, t.tax}));
  EXPECT_TRUE(engine::SameRowMultiset(taxes_, out));
}

TEST_F(TaxPlannerTest, ExplainShowsEstimatedAndActualRows) {
  auto ods = std::make_shared<theory::Theory>(warehouse::TaxOds());
  LogicalQuery q = warehouse::TaxOrderByQuery(&taxes_, index_.get(), ods);
  PhysicalPlan plan = PlanQuery(q);
  EXPECT_TRUE(ExplainMentions(plan, "est_rows"));
  EXPECT_TRUE(ExplainMentions(plan, "est_cost"));
  EXPECT_FALSE(ExplainMentions(plan, "actual_rows"));
  ExecStats stats;
  plan.Execute(&stats);
  EXPECT_TRUE(ExplainMentions(plan, "actual_rows=20000"));
}

TEST_F(TaxPlannerTest, TopKUnderLimit) {
  const warehouse::TaxColumns t;
  LogicalQuery q =
      warehouse::TaxOrderByQuery(&taxes_, index_.get(), /*tax_ods=*/nullptr);
  q.tables[0].index = nullptr;  // force a plain scan: sort genuinely needed
  q.limit = 50;
  PhysicalPlan plan = PlanQuery(q);
  EXPECT_TRUE(ExplainMentions(plan, "TopK"));
  ExecStats stats;
  Table out = plan.Execute(&stats);
  ASSERT_EQ(out.num_rows(), 50);
  EXPECT_TRUE(engine::IsSortedBy(out, {t.bracket, t.tax}));
  // Agrees with the full sort's first 50 rows on the key columns.
  Table full = engine::SortBy(taxes_, {t.bracket, t.tax});
  for (int64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(out.col(t.bracket).Int(i), full.col(t.bracket).Int(i));
  }
}

TEST_F(TaxPlannerTest, TopKAndHashAggregateHonorBatchRows) {
  const warehouse::TaxColumns t;
  PlanOptions opts;
  opts.batch_rows = 3;
  int64_t batches = 0;

  LogicalQuery top = warehouse::TaxOrderByQuery(&taxes_, /*index=*/nullptr,
                                                /*tax_ods=*/nullptr);
  top.limit = 50;
  PhysicalPlan top_plan = PlanQuery(top, CostModel(), opts);
  ASSERT_EQ(top_plan.root().kind, PhysicalNode::Kind::kTopK);
  Table got = DrainInBatchesOf(top_plan, 3, &batches);
  EXPECT_TRUE(engine::SameRowMultiset(PlanQuery(top).Execute(nullptr), got));

  LogicalQuery agg;
  agg.name = "tax_count_by_bracket";
  agg.tables.push_back(TableRef{"taxes", &taxes_});
  agg.group_cols = {t.bracket};
  agg.aggs = {{AggSpec::Kind::kCount, 0, "cnt"},
              {AggSpec::Kind::kAvg, t.tax, "avg_tax"}};
  PhysicalPlan agg_plan = PlanQuery(agg, CostModel(), opts);
  ASSERT_EQ(agg_plan.root().kind, PhysicalNode::Kind::kHashAgg);
  got = DrainInBatchesOf(agg_plan, 3, &batches);
  const Table want = engine::HashGroupBy(taxes_, agg.group_cols, agg.aggs);
  ASSERT_GT(want.num_rows(), 3);
  EXPECT_TRUE(engine::SameRowMultiset(want, got));
}

class DatePlannerTest : public ::testing::Test {
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
  Table dim_, fact_;
  std::unique_ptr<engine::OrderedIndex> index_;
  std::unique_ptr<engine::PartitionedTable> parts_;
  std::shared_ptr<theory::Theory> dim_ods_;
};

TEST_F(DatePlannerTest, DailySalesElidesJoinSortAndHash) {
  LogicalQuery q = warehouse::DailySalesQuery(
      &fact_, &dim_, index_.get(), parts_.get(), dim_ods_, kStartYear + 1);
  PhysicalPlan plan = PlanQuery(q);
  // The OD-aware plan: surrogate-range index scan (join elided), stream
  // aggregate (contiguity proven), no sort (order provided).
  EXPECT_EQ(plan.joins_elided(), 1);
  EXPECT_GE(plan.sorts_elided(), 2);  // stream agg + ORDER BY
  EXPECT_TRUE(ExplainMentions(plan, "StreamAggregate"));
  EXPECT_FALSE(ExplainMentions(plan, "Sort"));
  EXPECT_FALSE(ExplainMentions(plan, "Join"));

  ExecStats stats;
  Table out = plan.Execute(&stats);
  EXPECT_EQ(stats.sorts, 0);
  EXPECT_EQ(stats.joins, 0);
  EXPECT_EQ(stats.joins_elided, 1);
  EXPECT_TRUE(engine::IsSortedBy(out, {0}));
  EXPECT_EQ(out.num_rows(), 365);  // 1999: one output row per day

  // Same answer as the join the plan elided.
  const warehouse::DateDimColumns d;
  const warehouse::StoreSalesColumns f;
  const DateRangeQuery ref{q.name,      q.filters[1], f.ss_sold_date_sk,
                           d.d_date_sk, q.group_cols, q.aggs};
  EXPECT_TRUE(engine::SameRowMultiset(EngineReference(fact_, dim_, ref), out));
}

TEST_F(DatePlannerTest, WithoutOdsTheJoinStays) {
  LogicalQuery q = warehouse::DailySalesQuery(
      &fact_, &dim_, index_.get(), parts_.get(), /*dim_ods=*/nullptr,
      kStartYear + 1);
  PhysicalPlan plan = PlanQuery(q);
  EXPECT_EQ(plan.joins_elided(), 0);
  ExecStats stats;
  Table out = plan.Execute(&stats);
  EXPECT_EQ(stats.joins, 1);
  EXPECT_TRUE(engine::IsSortedBy(out, {0}));

  // Same rows as the OD-aware plan.
  LogicalQuery q2 = warehouse::DailySalesQuery(
      &fact_, &dim_, index_.get(), parts_.get(), dim_ods_, kStartYear + 1);
  ExecStats stats2;
  Table od_out = PlanQuery(q2).Execute(&stats2);
  EXPECT_TRUE(engine::SameRowMultiset(od_out, out));
}

TEST_F(DatePlannerTest, AllThirteenQueriesAgreeWithBaseline) {
  // Each template planned twice: OD-blind (no dim catalog) is the
  // baseline that pays the join; OD-aware must rewrite it away.
  const warehouse::DateDimColumns d;
  const auto queries = warehouse::TpcdsDateQueries(kStartYear, kYears);
  ASSERT_EQ(queries.size(), 13u);
  for (const auto& dq : queries) {
    // The rewrite's data precondition holds for every template.
    EXPECT_TRUE(QualifyingRowsContiguous(dim_, d.d_date_sk, dq.dim_predicates))
        << dq.name;
    const Table ref = EngineReference(fact_, dim_, dq);
    ExecStats blind, aware;
    Table blind_out = PlanQuery(warehouse::ToLogicalQuery(
                                    dq, &fact_, &dim_, index_.get(),
                                    parts_.get(), /*dim_ods=*/nullptr))
                          .Execute(&blind);
    Table aware_out = PlanQuery(warehouse::ToLogicalQuery(
                                    dq, &fact_, &dim_, index_.get(),
                                    parts_.get(), dim_ods_))
                          .Execute(&aware);
    EXPECT_TRUE(engine::SameRowMultiset(ref, blind_out)) << dq.name;
    EXPECT_TRUE(engine::SameRowMultiset(ref, aware_out)) << dq.name;
    EXPECT_EQ(blind.joins, 1) << dq.name;
    EXPECT_EQ(blind.joins_elided, 0) << dq.name;
    // The surrogate-key OD eliminates the join on every rewritable query.
    EXPECT_EQ(aware.joins, 0) << dq.name;
    EXPECT_EQ(aware.joins_elided, 1) << dq.name;
    EXPECT_LT(aware.rows_scanned, blind.rows_scanned) << dq.name;
  }
}

TEST_F(DatePlannerTest, EveryPlansOrderingClaimSurvivesCheckOrder) {
  // Drain every warehouse plan through exec::CheckOrder: a plan whose
  // compiled root claims an ordering it does not deliver throws. This
  // turns the planner's OD proofs into executed assertions, not comments.
  auto run_checked = [](const PhysicalPlan& plan, ExecStats* stats) {
    exec::OpPtr op = exec::CheckOrder(plan.Compile(stats));
    return exec::Drain(op.get(), stats);
  };
  const auto queries = warehouse::TpcdsDateQueries(kStartYear, kYears);
  for (const auto& dq : queries) {
    LogicalQuery q = warehouse::ToLogicalQuery(
        dq, &fact_, &dim_, index_.get(), parts_.get(), dim_ods_);
    PhysicalPlan plan = PlanQuery(q);
    ExecStats stats;
    Table via_check = run_checked(plan, &stats);
    ExecStats ref_stats;
    Table direct = PlanQuery(q).Execute(&ref_stats);
    EXPECT_TRUE(engine::SameRowMultiset(direct, via_check)) << dq.name;
  }
  LogicalQuery daily = warehouse::DailySalesQuery(
      &fact_, &dim_, index_.get(), parts_.get(), dim_ods_, kStartYear + 1);
  PhysicalPlan plan = PlanQuery(daily);
  ASSERT_FALSE(plan.root().out_ordering.empty());
  ExecStats stats;
  Table out = run_checked(plan, &stats);
  EXPECT_TRUE(engine::IsSortedBy(out, plan.root().out_ordering));
}

TEST_F(DatePlannerTest, KeptJoinPrefersMergeWhenOrderIsProvided) {
  // No dim predicates ⇒ the join cannot be elided; with the fact index
  // stream providing the key order, merge join beats hash join and the
  // fact-side sort is proven unnecessary.
  const warehouse::StoreSalesColumns f;
  const warehouse::DateDimColumns d;
  LogicalQuery q;
  q.name = "all_days_daily";
  q.tables.push_back(TableRef{"store_sales", &fact_, index_.get(), nullptr,
                              nullptr, nullptr, -1});
  q.tables.push_back(TableRef{"date_dim", &dim_, nullptr, nullptr, dim_ods_,
                              nullptr, d.d_date});
  q.joins.push_back(JoinClause{1, f.ss_sold_date_sk, d.d_date_sk});
  q.group_cols = {f.ss_sold_date_sk};
  q.aggs = {{AggSpec::Kind::kSum, f.ss_net_paid, "sum_net"}};
  q.order_by = {f.ss_sold_date_sk};
  PhysicalPlan plan = PlanQuery(q);
  EXPECT_TRUE(ExplainMentions(plan, "MergeJoin"));
  ExecStats stats;
  Table out = plan.Execute(&stats);
  EXPECT_EQ(stats.joins, 1);
  EXPECT_EQ(stats.sorts, 0);  // fact side proven; dim side already sorted
  EXPECT_TRUE(engine::IsSortedBy(out, {0}));
  EXPECT_EQ(out.num_rows(), dim_.num_rows());
}

TEST_F(DatePlannerTest, StreamAggregateFillsItsBatches) {
  // The OD-aware daily report is one StreamAggregate over the index range.
  // Its batches fill to batch_rows groups: 365 groups take
  // ⌈365 / batch_rows⌉ batches (one more allowed), not one per input
  // batch.
  LogicalQuery q = warehouse::DailySalesQuery(
      &fact_, &dim_, index_.get(), parts_.get(), dim_ods_, kStartYear + 1);
  const Table want = PlanQuery(q).Execute(nullptr);
  ASSERT_EQ(want.num_rows(), 365);
  for (int64_t batch_rows : {int64_t{1}, int64_t{16}, int64_t{4096}}) {
    PlanOptions opts;
    opts.batch_rows = batch_rows;
    PhysicalPlan plan = PlanQuery(q, CostModel(), opts);
    ASSERT_EQ(plan.root().kind, PhysicalNode::Kind::kStreamAgg);
    int64_t batches = 0;
    Table got = DrainInBatchesOf(plan, batch_rows, &batches);
    EXPECT_LE(batches, (365 + batch_rows - 1) / batch_rows + 1)
        << "batch_rows=" << batch_rows;
    EXPECT_TRUE(engine::SameRowMultiset(want, got));
  }
}

TEST(PlannerBatchRowsTest, MergeJoinPausesInsideARun) {
  // Both sides claim key order, so the join merges; every left key meets a
  // 5-row right run, which a 3-row batch must split.
  Schema s;
  s.Add("k", DataType::kInt64);
  s.Add("x", DataType::kInt64);
  Table left(s), right(s);
  for (int64_t i = 0; i < 200; ++i) left.AppendRow({Value(i / 4), Value(i)});
  for (int64_t i = 0; i < 100; ++i) right.AppendRow({Value(i / 5), Value(i)});
  left = engine::SortBy(left, {0});
  right = engine::SortBy(right, {0});
  LogicalQuery q;
  q.name = "merge_runs";
  q.tables.push_back(TableRef{"l", &left});
  q.tables.push_back(TableRef{"r", &right});
  q.joins.push_back(JoinClause{1, 0, 0});
  PlanOptions opts;
  opts.batch_rows = 3;
  PhysicalPlan plan = PlanQuery(q, CostModel(), opts);
  ASSERT_EQ(plan.root().kind, PhysicalNode::Kind::kMergeJoin);
  int64_t batches = 0;
  Table got = DrainInBatchesOf(plan, 3, &batches);
  const Table want = engine::SortMergeJoin(left, 0, right, 0,
                                           /*assume_sorted=*/true);
  ASSERT_EQ(want.num_rows(), 20 * 4 * 5);
  EXPECT_TRUE(engine::SameRowMultiset(want, got));
}

TEST(PlannerBatchRowsTest, HashJoinProbeStopsAtBatchRows) {
  // Every probe row meets 4 build rows, so one 3-row probe batch matches
  // 12 rows; the probe must split them at batch_rows, in the serial plan
  // and inside exchange fragments alike.
  Schema s;
  s.Add("k", DataType::kInt64);
  s.Add("x", DataType::kInt64);
  Table probe(s), build(s);
  for (int64_t i = 0; i < 50; ++i) probe.AppendRow({Value(i % 5), Value(i)});
  for (int64_t i = 0; i < 20; ++i) build.AppendRow({Value(i % 5), Value(i)});
  LogicalQuery q;
  q.name = "hash_matches";
  q.tables.push_back(TableRef{"p", &probe});
  q.tables.push_back(TableRef{"b", &build});
  q.joins.push_back(JoinClause{1, 0, 0});
  const Table want = engine::HashJoin(probe, 0, build, 0);
  ASSERT_EQ(want.num_rows(), 50 * 4);
  common::ThreadPool pool(2);
  CostModel cm;
  cm.fragment_startup = 0.0;  // make the fan-out pay at this size
  for (int dop : {1, 2}) {
    PlanOptions opts;
    opts.dop = dop;
    opts.pool = &pool;
    opts.batch_rows = 3;
    PhysicalPlan plan = PlanQuery(q, cm, opts);
    ASSERT_TRUE(ExplainMentions(plan, "HashJoin")) << plan.Explain();
    ASSERT_EQ(ExplainMentions(plan, "Exchange"), dop > 1) << plan.Explain();
    int64_t batches = 0;
    Table got = DrainInBatchesOf(plan, 3, &batches);
    EXPECT_TRUE(engine::SameRowMultiset(want, got)) << "dop=" << dop;
  }
}

TEST_F(DatePlannerTest, PartitionPruningWithoutIndex) {
  LogicalQuery q = warehouse::DailySalesQuery(
      &fact_, &dim_, /*fact_sk_index=*/nullptr, parts_.get(), dim_ods_,
      kStartYear + 1);
  PhysicalPlan plan = PlanQuery(q);
  EXPECT_TRUE(ExplainMentions(plan, "PartitionedScan"));
  ExecStats stats;
  Table out = plan.Execute(&stats);
  EXPECT_EQ(stats.joins, 0);
  // One year of four: at most 5 of the 16 date-range partitions overlap.
  EXPECT_LT(stats.partitions_scanned, 16 / 2);
  EXPECT_TRUE(engine::IsSortedBy(out, {0}));

  // Without the ODs the planner scans every row and keeps the join.
  LogicalQuery blind_q = warehouse::DailySalesQuery(
      &fact_, &dim_, /*fact_sk_index=*/nullptr, parts_.get(),
      /*dim_ods=*/nullptr, kStartYear + 1);
  ExecStats blind;
  Table blind_out = PlanQuery(blind_q).Execute(&blind);
  EXPECT_EQ(blind.joins, 1);
  EXPECT_EQ(blind.rows_scanned, fact_.num_rows() + dim_.num_rows());
  EXPECT_LT(stats.rows_scanned, blind.rows_scanned);
  EXPECT_TRUE(engine::SameRowMultiset(blind_out, out));
}

TEST(PlannerValidationTest, MalformedQueriesThrow) {
  Schema s;
  s.Add("a", DataType::kInt64);
  Table t(s);
  t.AppendRow({Value(1)});

  LogicalQuery empty;
  EXPECT_THROW(PlanQuery(empty), std::invalid_argument);

  LogicalQuery null_table;
  null_table.tables.push_back(TableRef{"t", nullptr});
  EXPECT_THROW(PlanQuery(null_table), std::invalid_argument);

  LogicalQuery bad_join;
  bad_join.tables.push_back(TableRef{"t", &t});
  bad_join.joins.push_back(JoinClause{2, 0, 0});
  EXPECT_THROW(PlanQuery(bad_join), std::invalid_argument);

  LogicalQuery bad_order;
  bad_order.tables.push_back(TableRef{"t", &t});
  bad_order.group_cols = {0};
  bad_order.aggs = {{AggSpec::Kind::kCount, 0, "c"}};
  bad_order.order_by = {1};  // not a group column
  EXPECT_THROW(PlanQuery(bad_order), std::invalid_argument);

  // A batch of fewer than one row never drains.
  LogicalQuery scan;
  scan.tables.push_back(TableRef{"t", &t});
  for (int64_t batch_rows : {int64_t{0}, int64_t{-3}}) {
    PlanOptions opts;
    opts.batch_rows = batch_rows;
    EXPECT_THROW(PlanQuery(scan, CostModel(), opts), std::invalid_argument);
  }
}

TEST(PlannerValidationTest, NonIntegerJoinKeyKeepsTheJoin) {
  // A string-keyed star whose catalog proves [key] ↔ [natural]: the
  // surrogate range is an int64 range, so the join must stay.
  Schema ds;
  ds.Add("key", DataType::kString);
  ds.Add("natural", DataType::kInt64);
  Table dim(ds);
  auto key = [](int64_t i) {
    return Value((i < 10 ? "k0" : "k") + std::to_string(i));
  };
  for (int64_t i = 0; i < 20; ++i) dim.AppendRow({key(i), Value(i)});
  Schema fs;
  fs.Add("key", DataType::kString);
  fs.Add("grp", DataType::kInt64);
  fs.Add("val", DataType::kInt64);
  fs.Add("natural", DataType::kInt64);  // the dim's natural of `key`
  Table fact(fs);
  for (int64_t i = 0; i < 300; ++i) {
    const int64_t k = (i * 7) % 20;
    fact.AppendRow({key(k), Value(i % 3), Value(i), Value(k)});
  }
  DependencySet m;
  m.Add(AttributeList({0}), AttributeList({1}));
  m.Add(AttributeList({1}), AttributeList({0}));

  LogicalQuery q;
  q.name = "string_key_star";
  q.tables.push_back(TableRef{"fact", &fact, nullptr, nullptr,
                              std::make_shared<theory::Theory>(), nullptr,
                              -1});
  q.tables.push_back(TableRef{"dim", &dim, nullptr, nullptr,
                              std::make_shared<theory::Theory>(m), nullptr,
                              /*natural_order_col=*/1});
  q.joins.push_back(JoinClause{1, 0, 0});
  const Predicate window{1, Predicate::Op::kBetween, Value(5), Value(9)};
  q.filters = {{}, {window}};
  q.group_cols = {1};
  q.aggs = {{AggSpec::Kind::kSum, 2, "sum_val"},
            {AggSpec::Kind::kCount, 0, "cnt"}};
  PhysicalPlan plan = PlanQuery(q);
  EXPECT_EQ(plan.joins_elided(), 0);
  ExecStats stats;
  Table out = plan.Execute(&stats);
  EXPECT_EQ(stats.joins, 1);

  // Every fact key occurs in the dim once, so the join with the filtered
  // dim is the fact filtered on its copy of the natural column.
  Predicate fact_window = window;
  fact_window.col = 3;
  Table ref = engine::HashGroupBy(engine::Filter(fact, {fact_window}),
                                  q.group_cols, q.aggs);
  EXPECT_TRUE(engine::SameRowMultiset(ref, out));
}

TEST(PlannerThreeTableTest, StarJoinOverItemAndStore) {
  warehouse::StoreSalesColumns f;
  Table dim = warehouse::GenerateDateDim(2000, 2);
  Table fact = warehouse::GenerateStoreSales(
      5000, dim.col(0).Int(0), dim.num_rows(), /*num_items=*/20,
      /*num_stores=*/5, /*seed=*/11);
  Table items = warehouse::GenerateItems(20, 3);
  Table stores = warehouse::GenerateStores(5, 4);

  LogicalQuery q;
  q.name = "fact_items_stores";
  q.tables.push_back(TableRef{"store_sales", &fact});
  q.tables.push_back(TableRef{"item", &items});
  q.tables.push_back(TableRef{"store", &stores});
  q.joins.push_back(JoinClause{1, f.ss_item_sk, 0});
  q.joins.push_back(JoinClause{2, f.ss_store_sk, 0});
  q.group_cols = {f.ss_store_sk};
  q.aggs = {{AggSpec::Kind::kSum, f.ss_net_paid, "sum_net"},
            {AggSpec::Kind::kCount, 0, "cnt"}};
  PhysicalPlan plan = PlanQuery(q);
  ExecStats stats;
  Table out = plan.Execute(&stats);
  EXPECT_EQ(stats.joins, 2);

  // Reference: materializing hash joins + hash aggregation.
  Table j1 = engine::HashJoin(fact, f.ss_item_sk, items, 0);
  Table j2 = engine::HashJoin(j1, f.ss_store_sk, stores, 0);
  Table ref = engine::HashGroupBy(
      j2, {f.ss_store_sk},
      {{AggSpec::Kind::kSum, f.ss_net_paid, "sum_net"},
       {AggSpec::Kind::kCount, 0, "cnt"}});
  EXPECT_TRUE(engine::SameRowMultiset(ref, out));
}

}  // namespace
}  // namespace opt
}  // namespace od
