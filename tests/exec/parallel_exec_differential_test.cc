// The randomized differential executor suite: every query shape runs at
// dop ∈ {1,2,4,8} × batch_rows ∈ {1,3,4096} × spill on/off, and each
// parallel/spilled result must match the serial in-memory reference —
// row-identical when the plan claims an ordering property, multiset-equal
// (via a canonical re-sort) otherwise. The serial reference runs the same
// operator classes as the plans it judges, so it is checked in turn
// against an oracle that shares no code with src/exec: the query answered
// by the engine:: kernels alone. Every drained stream is wrapped in
// exec::CheckOrder, so a plan that *claims* an ordering it does not
// deliver fails loudly, not silently. The suite also asserts the paper's
// headline invariant end to end: parallelizing an OD-aware plan never
// reintroduces an elided sort (EXPLAIN stays Sort-free, stats.sorts == 0).
//
// Inputs cover the adversarial shapes called out in the issue: duplicate-
// heavy keys, NaN-bearing doubles, empty partitions/fragments (dop larger
// than the row count), single-row morsels, and empty result sets — plus
// all thirteen warehouse date-query templates, the daily-sales report
// (where the serial plan elides join + hash + sort), and the Example 5
// tax ORDER BY.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "engine/index.h"
#include "engine/ops.h"
#include "engine/partition.h"
#include "exec/operator.h"
#include "optimizer/date_rewrite.h"
#include "optimizer/planner.h"
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
using engine::SortSpec;
using engine::Table;

bool ExplainMentions(const PhysicalPlan& plan, const std::string& token) {
  return plan.Explain().find(token) != std::string::npos;
}

// Doubles compare NaN-aware and with a tiny relative tolerance: parallel
// aggregation reassociates floating-point sums (per-fragment partials are
// merged after the fragments join), which may legally move the last ulp
// of a sum/avg but nothing more. Everything else must be identical.
bool DoublesMatch(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  if (a == b) return true;
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= 1e-9 * scale;
}

::testing::AssertionResult RowsIdentical(const Table& ref, const Table& got) {
  if (got.num_columns() != ref.num_columns()) {
    return ::testing::AssertionFailure()
           << "column count " << got.num_columns() << " vs reference "
           << ref.num_columns();
  }
  if (got.num_rows() != ref.num_rows()) {
    return ::testing::AssertionFailure() << "row count " << got.num_rows()
                                         << " vs reference " << ref.num_rows();
  }
  for (int64_t r = 0; r < ref.num_rows(); ++r) {
    for (int c = 0; c < ref.num_columns(); ++c) {
      const auto& rc = ref.col(c);
      const auto& gc = got.col(c);
      bool same = true;
      switch (rc.type()) {
        case DataType::kInt64: same = rc.Int(r) == gc.Int(r); break;
        case DataType::kDouble: same = DoublesMatch(rc.Double(r), gc.Double(r)); break;
        case DataType::kString: same = rc.Str(r) == gc.Str(r); break;
      }
      if (!same) {
        return ::testing::AssertionFailure()
               << "row " << r << " col " << c << ": " << gc.Get(r).ToString()
               << " vs reference " << rc.Get(r).ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Canonicalizes a result for an order-free comparison: a stable sort by
// every column (od-total on doubles, so NaNs order too). Aggregate results
// have unique group keys and other results copy their values, so the sort
// is deterministic regardless of ulp-level aggregate differences.
Table Canonical(const Table& t) {
  SortSpec all;
  for (int c = 0; c < t.num_columns(); ++c) all.push_back(c);
  return engine::SortBy(t, all);
}

// The oracle: `q` answered by the engine:: kernels alone — each table
// filtered, the filtered tables hash-joined onto the driving table in
// clause order, hash-grouped, sorted. No query here has a LIMIT, whose
// cut through tied rows would be ambiguous.
Table EngineEvaluate(const LogicalQuery& q) {
  auto filtered = [&q](size_t t) {
    const Table& table = *q.tables[t].table;
    return t < q.filters.size() ? engine::Filter(table, q.filters[t]) : table;
  };
  Table out = filtered(0);
  for (const JoinClause& j : q.joins) {
    out = engine::HashJoin(out, j.left_col, filtered(j.right_table),
                           j.right_col);
  }
  SortSpec order = q.order_by;
  if (!q.group_cols.empty() || !q.aggs.empty()) {
    out = engine::HashGroupBy(out, q.group_cols, q.aggs);
    // ORDER BY names group columns, which grouping moves to their
    // positions in the group list.
    for (engine::ColumnId& c : order) {
      c = static_cast<engine::ColumnId>(
          std::find(q.group_cols.begin(), q.group_cols.end(), c) -
          q.group_cols.begin());
    }
  }
  return engine::SortBy(out, order);
}

// Compiles `plan`, wraps the root in exec::CheckOrder (the drain-side
// property test: the claimed ordering is validated row by row with
// Column::Compare / od::CompareDoubles semantics), and drains.
Table RunChecked(const PhysicalPlan& plan, ExecStats* stats) {
  exec::OpPtr op = exec::CheckOrder(plan.Compile(stats));
  return exec::Drain(op.get(), stats);
}

// The harness: serial reference once, then the full dop × batch × spill
// sweep. `pool` has 4 worker threads; dop 8 exercises more fragments than
// workers (and, on small inputs, empty fragments).
void SweepAgainstSerial(const LogicalQuery& q, common::ThreadPool* pool) {
  PhysicalPlan serial = PlanQuery(q);
  ExecStats ref_stats;
  Table ref = serial.Execute(&ref_stats);
  ASSERT_LT(q.limit, 0) << "EngineEvaluate has no LIMIT";
  EXPECT_TRUE(RowsIdentical(Canonical(EngineEvaluate(q)), Canonical(ref)))
      << "serial plan disagrees with the engine:: oracle";
  const bool serial_has_sort = ExplainMentions(serial, "Sort");
  const SortSpec serial_order = serial.root().out_ordering;
  Table ref_canonical = serial_order.empty() ? Canonical(ref) : Table();

  // Zero out the per-fragment startup tax: these are test-sized inputs,
  // and the point is to exercise the parallel shapes, not to model them.
  CostModel cm;
  cm.fragment_startup = 0.0;

  auto check = [&](const PlanOptions& opts) {
    PhysicalPlan plan = PlanQuery(q, cm, opts);
    // Parallelism must not reintroduce an elided sort: if the serial
    // OD-aware plan is Sort-free, so is every parallel variant.
    if (!serial_has_sort) {
      EXPECT_FALSE(ExplainMentions(plan, "Sort"))
          << "parallel plan reintroduced a sort:\n" << plan.Explain();
    }
    // And the parallel plan claims exactly the serial ordering.
    EXPECT_EQ(plan.root().out_ordering, serial_order);

    ExecStats stats;
    Table out = RunChecked(plan, &stats);
    if (!serial_has_sort) {
      EXPECT_EQ(stats.sorts, 0);
    }
    if (serial_order.empty()) {
      EXPECT_TRUE(RowsIdentical(ref_canonical, Canonical(out)));
    } else {
      EXPECT_TRUE(RowsIdentical(ref, out));
    }
  };

  for (int dop : {1, 2, 4, 8}) {
    for (int64_t batch : {int64_t{1}, int64_t{3}, int64_t{4096}}) {
      for (int64_t budget : {int64_t{-1}, int64_t{256}}) {
        SCOPED_TRACE(q.name + " dop=" + std::to_string(dop) + " batch=" +
                     std::to_string(batch) + " spill_budget=" +
                     std::to_string(budget));
        PlanOptions opts;
        opts.dop = dop;
        opts.pool = pool;
        opts.spill_budget_rows = budget;
        opts.batch_rows = batch;
        check(opts);
      }
    }
  }

  // The inline arm: on a null or one-thread pool the exchanges run the
  // same producer pumps inline on the consumer thread (each fills its
  // queue and parks; the consumer's Pop resumes it), and must be just as
  // row-identical — and just as sort-free — as the threaded plans.
  common::ThreadPool one_thread(1);
  for (common::ThreadPool* inline_pool :
       {static_cast<common::ThreadPool*>(nullptr), &one_thread}) {
    for (int64_t batch : {int64_t{3}, int64_t{4096}}) {
      SCOPED_TRACE(q.name + " inline dop=4 pool=" +
                   (inline_pool == nullptr ? "null" : "1 thread") +
                   " batch=" + std::to_string(batch));
      PlanOptions opts;
      opts.dop = 4;
      opts.pool = inline_pool;
      opts.batch_rows = batch;
      check(opts);
    }
  }
}

// ---------------------------------------------------------------------------
// Warehouse star-schema queries (the thirteen date templates + the two
// order-aware showcases), on a generated fact ⋈ date_dim star.

class WarehouseDifferentialTest : public ::testing::Test {
 protected:
  static constexpr int kStartYear = 1998;
  static constexpr int kYears = 4;

  void SetUp() override {
    dim_ = warehouse::GenerateDateDim(kStartYear, kYears);
    const int64_t first_sk = dim_.col(0).Int(0);
    fact_ = warehouse::GenerateStoreSales(/*num_rows=*/12000, first_sk,
                                          dim_.num_rows(), /*num_items=*/50,
                                          /*num_stores=*/10, /*seed=*/42);
    index_ = std::make_unique<engine::OrderedIndex>(&fact_,
                                                    engine::SortSpec{0});
    parts_ = std::make_unique<engine::PartitionedTable>(
        engine::PartitionedTable::PartitionByRange(fact_, 0, 16));
    dim_ods_ = std::make_shared<theory::Theory>(warehouse::DateDimOds());
    pool_ = std::make_unique<common::ThreadPool>(4);
  }

  Table dim_, fact_;
  std::unique_ptr<engine::OrderedIndex> index_;
  std::unique_ptr<engine::PartitionedTable> parts_;
  std::shared_ptr<theory::Theory> dim_ods_;
  std::unique_ptr<common::ThreadPool> pool_;
};

TEST_F(WarehouseDifferentialTest, AllThirteenDateTemplates) {
  const auto queries = warehouse::TpcdsDateQueries(kStartYear, kYears);
  ASSERT_EQ(queries.size(), 13u);
  for (const auto& dq : queries) {
    LogicalQuery q = warehouse::ToLogicalQuery(dq, &fact_, &dim_, index_.get(),
                                               parts_.get(), dim_ods_);
    SweepAgainstSerial(q, pool_.get());
  }
}

TEST_F(WarehouseDifferentialTest, DailySalesStaysSortFreeAtEveryDop) {
  LogicalQuery q = warehouse::DailySalesQuery(
      &fact_, &dim_, index_.get(), parts_.get(), dim_ods_, kStartYear + 1);
  // Precondition of the headline assertion: the serial plan really is the
  // everything-elided shape.
  PhysicalPlan serial = PlanQuery(q);
  ASSERT_FALSE(ExplainMentions(serial, "Sort"));
  ASSERT_EQ(serial.joins_elided(), 1);
  SweepAgainstSerial(q, pool_.get());
}

TEST_F(WarehouseDifferentialTest, DailySalesParallelPlanUsesAnExchange) {
  LogicalQuery q = warehouse::DailySalesQuery(
      &fact_, &dim_, index_.get(), parts_.get(), dim_ods_, kStartYear + 1);
  CostModel cm;
  cm.fragment_startup = 0.0;
  PlanOptions opts;
  opts.dop = 4;
  opts.pool = pool_.get();
  PhysicalPlan plan = PlanQuery(q, cm, opts);
  // The parallel shape is real (an exchange or a parallel aggregate), the
  // merge carries the OD proof, and no sort appears anywhere.
  EXPECT_TRUE(ExplainMentions(plan, "Exchange") ||
              ExplainMentions(plan, "ParallelHashAggregate"))
      << plan.Explain();
  EXPECT_FALSE(ExplainMentions(plan, "Sort")) << plan.Explain();
  bool has_merge_proof = false;
  for (const auto& p : plan.proofs()) {
    if (p.find("morsel") != std::string::npos ||
        p.find("merge") != std::string::npos) {
      has_merge_proof = true;
    }
  }
  EXPECT_TRUE(has_merge_proof) << "no order-preserving-merge proof recorded";
}

TEST_F(WarehouseDifferentialTest, TaxOrderByOrderedMergeReproducesSerial) {
  Table taxes = warehouse::GenerateTaxTable(/*num_rows=*/8000,
                                            /*max_income=*/250000, /*seed=*/7);
  engine::OrderedIndex income_index(
      &taxes, engine::SortSpec{warehouse::TaxColumns().income});
  auto ods = std::make_shared<theory::Theory>(warehouse::TaxOds());
  LogicalQuery q = warehouse::TaxOrderByQuery(&taxes, &income_index, ods);
  // Serial: index stream provably satisfies ORDER BY bracket, tax.
  PhysicalPlan serial = PlanQuery(q);
  ASSERT_FALSE(ExplainMentions(serial, "Sort"));
  SweepAgainstSerial(q, pool_.get());

  // At dop 4 the chain is split into index-position morsels recombined by
  // the OD-proven ordered merge — still zero sorts.
  CostModel cm;
  cm.fragment_startup = 0.0;
  PlanOptions opts;
  opts.dop = 4;
  opts.pool = pool_.get();
  PhysicalPlan plan = PlanQuery(q, cm, opts);
  EXPECT_TRUE(ExplainMentions(plan, "Exchange")) << plan.Explain();
  EXPECT_TRUE(ExplainMentions(plan, "merge=")) << plan.Explain();
  EXPECT_FALSE(ExplainMentions(plan, "Sort")) << plan.Explain();
}

// ---------------------------------------------------------------------------
// Seeded random tables: duplicate-heavy keys, NaN doubles, empty results,
// and tables smaller than the fragment count (single-row and empty
// morsels).

Table MakeRandomTable(int64_t rows, uint32_t seed) {
  Schema s;
  s.Add("k", DataType::kInt64);
  s.Add("g", DataType::kInt64);
  s.Add("x", DataType::kDouble);
  Table t(s);
  uint64_t state = seed;
  auto next = [&state]() {
    // xorshift64*: deterministic across platforms, no <random> dialects.
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1DULL;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t k = static_cast<int64_t>(next() % 7);   // duplicate-heavy
    const int64_t g = static_cast<int64_t>(next() % 5);
    const double x =
        (next() % 10 == 0) ? nan : static_cast<double>(next() % 4000) * 0.25;
    t.AppendRow({Value(k), Value(g), Value(x)});
  }
  return t;
}

LogicalQuery RandomBase(const std::string& name, const Table* t,
                        const engine::OrderedIndex* index) {
  LogicalQuery q;
  q.name = name;
  q.tables.push_back(TableRef{"rand", t, index, /*partitions=*/nullptr,
                              /*ods=*/nullptr, /*prover=*/nullptr,
                              /*natural_order_col=*/-1});
  q.filters.resize(1);
  return q;
}

class RandomDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override { pool_ = std::make_unique<common::ThreadPool>(4); }
  std::unique_ptr<common::ThreadPool> pool_;
};

TEST_F(RandomDifferentialTest, OrderByNanDoubleKeyWithDuplicates) {
  Table t = MakeRandomTable(5000, /*seed=*/1);
  engine::OrderedIndex index(&t, engine::SortSpec{0});
  LogicalQuery q = RandomBase("rand_order_by_k_x", &t, &index);
  q.order_by = {0, 2};  // k then the NaN-bearing double
  SweepAgainstSerial(q, pool_.get());
}

TEST_F(RandomDifferentialTest, GroupByWithNanAggregatesIncludingAvg) {
  Table t = MakeRandomTable(5000, /*seed=*/2);
  LogicalQuery q = RandomBase("rand_group_by_g", &t, /*index=*/nullptr);
  q.group_cols = {1};
  q.aggs = {{AggSpec::Kind::kCount, 0, "cnt"},
            {AggSpec::Kind::kSum, 2, "sum_x"},
            {AggSpec::Kind::kMin, 2, "min_x"},
            {AggSpec::Kind::kMax, 2, "max_x"},
            {AggSpec::Kind::kAvg, 2, "avg_x"}};
  SweepAgainstSerial(q, pool_.get());
}

TEST_F(RandomDifferentialTest, FilterUnionExchangeAndEmptyResult) {
  Table t = MakeRandomTable(5000, /*seed=*/3);
  {
    LogicalQuery q = RandomBase("rand_filter_k", &t, /*index=*/nullptr);
    q.filters[0] = {Predicate{0, Predicate::Op::kBetween, Value(int64_t{2}),
                              Value(int64_t{5})}};
    SweepAgainstSerial(q, pool_.get());
  }
  {
    // Nothing matches: every fragment is empty, the union is empty.
    LogicalQuery q = RandomBase("rand_filter_none", &t, /*index=*/nullptr);
    q.filters[0] = {
        Predicate{0, Predicate::Op::kEq, Value(int64_t{999}), Value()}};
    SweepAgainstSerial(q, pool_.get());
  }
}

TEST_F(RandomDifferentialTest, MoreFragmentsThanRows) {
  // 3 rows at dop 8: single-row morsels plus genuinely empty fragments.
  Table t = MakeRandomTable(3, /*seed=*/4);
  engine::OrderedIndex index(&t, engine::SortSpec{0});
  {
    LogicalQuery q = RandomBase("tiny_order_by", &t, &index);
    q.order_by = {0};
    SweepAgainstSerial(q, pool_.get());
  }
  {
    LogicalQuery q = RandomBase("tiny_group_by", &t, /*index=*/nullptr);
    q.group_cols = {1};
    q.aggs = {{AggSpec::Kind::kSum, 2, "sum_x"}};
    SweepAgainstSerial(q, pool_.get());
  }
}

TEST_F(RandomDifferentialTest, EmptyTable) {
  Table t = MakeRandomTable(0, /*seed=*/5);
  LogicalQuery q = RandomBase("empty_scan", &t, /*index=*/nullptr);
  SweepAgainstSerial(q, pool_.get());
}

}  // namespace
}  // namespace opt
}  // namespace od
