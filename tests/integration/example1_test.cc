// End-to-end reproduction of Example 1: the motivating query
//
//   SELECT d_year, d_quarter, d_moy, SUM(ss_net_paid)
//   FROM store_sales JOIN date_dim ON ss_sold_date_sk = d_date_sk
//   GROUP BY d_year, d_quarter, d_moy
//   ORDER BY d_year, d_quarter, d_moy
//
// Baseline plan: join, hash group-by, explicit sort on the three columns.
// OD plan: with [d_moy] ↦ [d_quarter] the optimizer reduces both the
// group-by and the order-by to [d_year, d_moy]; an index on
// (d_year, d_moy)-ordered data provides the stream, stream aggregation
// replaces hashing, and NO sort operator appears. Both plans must agree.

#include <gtest/gtest.h>

#include "engine/index.h"
#include "engine/ops.h"
#include "exec/operator.h"
#include "optimizer/order_property.h"
#include "optimizer/reduce_order.h"
#include "warehouse/date_dim.h"
#include "warehouse/star_schema.h"

namespace od {
namespace {

using engine::AggSpec;
using engine::ColumnId;
using engine::Table;

class Example1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    dim_ = warehouse::GenerateDateDim(2000, 3);
    const int64_t first_sk = dim_.col(0).Int(0);
    fact_ = warehouse::GenerateStoreSales(30000, first_sk, dim_.num_rows(),
                                          40, 8, 123);
    const warehouse::DateDimColumns d;
    const warehouse::StoreSalesColumns f;
    joined_ = engine::HashJoin(fact_, f.ss_sold_date_sk, dim_, d.d_date_sk);
    year_ = joined_.Find("d_year");
    quarter_ = joined_.Find("d_quarter");
    moy_ = joined_.Find("d_moy");
    net_ = joined_.Find("ss_net_paid");
    ASSERT_GE(year_, 0);
    ASSERT_GE(quarter_, 0);
    ASSERT_GE(moy_, 0);
    ASSERT_GE(net_, 0);
  }

  DependencySet JoinedOds() const {
    // The dimension constraint, restated over the joined schema's ids.
    DependencySet m;
    m.Add(AttributeList({moy_}), AttributeList({quarter_}));
    return m;
  }

  Table dim_, fact_, joined_;
  ColumnId year_, quarter_, moy_, net_;
};

TEST_F(Example1Test, OrderByAndGroupByReduce) {
  prover::Prover pv(JoinedOds());
  const AttributeList order_by({year_, quarter_, moy_});
  auto reduced = opt::ReduceOrderPlus(pv, order_by);
  EXPECT_EQ(reduced.reduced, AttributeList({year_, moy_}));
  EXPECT_EQ(opt::ReduceGroupBy(pv, AttributeSet({year_, quarter_, moy_})),
            AttributeSet({year_, moy_}));
}

TEST_F(Example1Test, RewrittenPlanHasNoSortAndAgrees) {
  const std::vector<AggSpec> aggs{{AggSpec::Kind::kSum, net_, "sum_net"}};
  const std::vector<ColumnId> full_groups{year_, quarter_, moy_};

  // Baseline: hash agg + sort enforcer on year, quarter, moy.
  bool was_sorted = true;
  Table base_result =
      engine::SortBy(engine::HashGroupBy(joined_, full_groups, aggs),
                     {0, 1, 2},  // agg output: year, quarter, moy, sum
                     &was_sorted);
  EXPECT_FALSE(was_sorted);  // the hash agg's output needed the sort

  // OD plan: the index stream (year, moy) provides the order; quarter is
  // eliminated from both clauses; stream aggregation exploits the order.
  opt::OrderReasoner reasoner(JoinedOds());
  ASSERT_TRUE(reasoner.Equivalent({year_, quarter_, moy_}, {year_, moy_}));
  ASSERT_TRUE(reasoner.GroupsContiguousUnder({year_, moy_}, full_groups));
  engine::OrderedIndex index(&joined_, {year_, moy_});
  opt::ExecStats od_stats;
  exec::OpPtr od_plan = exec::StreamAggregate(
      exec::IndexRangeScan(&index, exec::kAllUnits, &od_stats), full_groups,
      aggs);
  Table od_result = exec::Drain(od_plan.get(), &od_stats);
  EXPECT_EQ(od_stats.sorts, 0);  // no sort operator anywhere

  // Same groups and aggregates.
  EXPECT_TRUE(engine::SameRowMultiset(base_result, od_result));
  // The OD plan's output already satisfies the original ORDER BY.
  EXPECT_TRUE(engine::IsSortedBy(od_result, {0, 1, 2}));
}

TEST_F(Example1Test, QuarterNameVariantNeedsOdNotJustFd) {
  // Restate the query with the STRING quarter name: the FD
  // d_moy → d_quarter_name still licenses the group-by reduction, but the
  // ORDER BY cannot drop the quarter name (strings sort alphabetically) —
  // exactly the paper's point that FDs do not suffice for order-by.
  const ColumnId qname = joined_.Find("d_quarter_name");
  ASSERT_GE(qname, 0);
  DependencySet m;
  // Only the FD-shaped OD holds for the name column.
  m.Add(AttributeList({moy_}), AttributeList({moy_, qname}));
  prover::Prover pv(m);
  // Group-by reduction: allowed (set semantics).
  EXPECT_EQ(opt::ReduceGroupBy(pv, AttributeSet({year_, qname, moy_})),
            AttributeSet({year_, moy_}));
  // Order-by reduction of [year, qname, moy]: NOT allowed.
  auto reduced = opt::ReduceOrderPlus(pv, AttributeList({year_, qname, moy_}));
  EXPECT_EQ(reduced.reduced, AttributeList({year_, qname, moy_}));
  // And materially so: sorting by [year, moy] does not produce the
  // [year, qname, ...] order.
  Table by_ym = engine::SortBy(joined_, {year_, moy_});
  EXPECT_FALSE(engine::IsSortedBy(by_ym, {year_, qname}));
}

}  // namespace
}  // namespace od
