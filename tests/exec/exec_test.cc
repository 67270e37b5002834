// Streaming-operator contracts: batch boundaries, ordering-property
// propagation, the StreamAggregate contiguity precondition, NaN-bearing
// double keys (must agree with od::CompareDoubles), hash and stream
// aggregates forming the same groups, and early exit.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "engine/index.h"
#include "engine/ops.h"
#include "engine/partition.h"
#include "exec/operator.h"
#include "exec/parallel.h"

namespace od {
namespace exec {
namespace {

using engine::AggSpec;
using engine::ColumnId;
using engine::DataType;
using engine::Predicate;
using engine::Schema;
using engine::Table;

Table MakeKv(int64_t rows, int64_t key_mod) {
  Schema s;
  s.Add("k", DataType::kInt64);
  s.Add("v", DataType::kDouble);
  Table t(s);
  for (int64_t i = 0; i < rows; ++i) {
    t.AppendRow({Value(i % key_mod), Value(static_cast<double>(i) * 0.5)});
  }
  return t;
}

bool TablesEqualExactly(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_columns(); ++c) {
      if (a.col(c).Get(r) != b.col(c).Get(r)) return false;
    }
  }
  return true;
}

TEST(ScanTest, BatchBoundariesAndStats) {
  Table t = MakeKv(10000, 7);
  opt::ExecStats stats;
  OpPtr scan = Scan(&t, &stats);
  Table out = Drain(scan.get(), &stats);
  EXPECT_TRUE(TablesEqualExactly(t, out));
  EXPECT_EQ(stats.rows_scanned, 10000);
  EXPECT_EQ(stats.rows_output, 10000);
  // 10000 rows at 4096/batch: 4096 + 4096 + 1808.
  EXPECT_EQ(stats.batches, 3);
}

TEST(ScanTest, EmptyTableAndSingleBatch) {
  Table empty = MakeKv(0, 1);
  OpPtr scan = Scan(&empty);
  Batch b;
  EXPECT_FALSE(scan->Next(&b));
  EXPECT_FALSE(scan->Next(&b));  // stays exhausted

  Table one = MakeKv(100, 3);
  opt::ExecStats stats;
  OpPtr s2 = Scan(&one, &stats);
  Table out = Drain(s2.get(), &stats);
  EXPECT_EQ(stats.batches, 1);
  EXPECT_TRUE(TablesEqualExactly(one, out));
}

TEST(ScanTest, CarriesOrderingProperty) {
  Table t = engine::SortBy(MakeKv(100, 5), {0, 1});
  OpPtr scan = Scan(&t);
  EXPECT_EQ(scan->ordering(), engine::SortSpec({0, 1}));
}

TEST(FilterTest, MatchesMaterializingFilter) {
  Table t = MakeKv(5000, 13);
  const std::vector<Predicate> preds{
      {0, Predicate::Op::kGe, Value(3)}, {0, Predicate::Op::kLe, Value(9)}};
  OpPtr f = Filter(Scan(&t, nullptr, 512), preds);
  Table streamed = Drain(f.get());
  Table materialized = engine::Filter(t, preds);
  EXPECT_TRUE(TablesEqualExactly(materialized, streamed));
}

TEST(FilterTest, SkipsEmptyBatchesAndPreservesOrdering) {
  Table t = engine::SortBy(MakeKv(1000, 10), {0});
  // k == 7 rows are contiguous after the sort: most batches yield nothing.
  OpPtr f = Filter(Scan(&t, nullptr, 16),
                   {{0, Predicate::Op::kEq, Value(7)}});
  EXPECT_EQ(f->ordering(), engine::SortSpec({0}));
  Batch b;
  while (f->Next(&b)) {
    EXPECT_GT(b.num_rows(), 0);  // contract: non-empty batches only
  }
}

TEST(ProjectTest, RemapsOrdering) {
  Table t = engine::SortBy(MakeKv(100, 5), {0});
  OpPtr p = Project(Scan(&t), {1, 0});
  // Child ordering [0] survives as output position 1.
  EXPECT_EQ(p->ordering(), engine::SortSpec({1}));
  Table out = Drain(p.get());
  EXPECT_EQ(out.num_columns(), 2);
  EXPECT_EQ(out.schema().col(0).name, "v");
  EXPECT_EQ(out.schema().col(1).name, "k");
}

TEST(StreamAggregateTest, MatchesHashAggAcrossBatchBoundaries) {
  // Sorted input with group runs straddling the (tiny) batch boundary:
  // batch size 7 never aligns with the group size.
  Table t = engine::SortBy(MakeKv(1000, 23), {0});
  const std::vector<AggSpec> aggs{{AggSpec::Kind::kSum, 1, "s"},
                                  {AggSpec::Kind::kCount, 0, "c"},
                                  {AggSpec::Kind::kMin, 1, "mn"},
                                  {AggSpec::Kind::kMax, 1, "mx"},
                                  {AggSpec::Kind::kAvg, 1, "av"}};
  OpPtr agg = StreamAggregate(Scan(&t, nullptr, 7), {0}, aggs);
  Table streamed = Drain(agg.get());
  Table hashed = engine::HashGroupBy(t, {0}, aggs);
  EXPECT_EQ(streamed.num_rows(), 23);
  EXPECT_TRUE(engine::SameRowMultiset(hashed, streamed));
  // Order-exploiting: the output streams out in group order.
  EXPECT_TRUE(engine::IsSortedBy(streamed, {0}));
}

TEST(StreamAggregateTest, GroupStraddlingManyBatches) {
  // One giant group spanning dozens of batches, then a tiny one.
  Schema s;
  s.Add("g", DataType::kInt64);
  s.Add("x", DataType::kInt64);
  Table t(s);
  for (int64_t i = 0; i < 500; ++i) t.AppendRow({Value(1), Value(i)});
  t.AppendRow({Value(2), Value(int64_t{1000})});
  OpPtr agg = StreamAggregate(Scan(&t, nullptr, 8), {0},
                              {{AggSpec::Kind::kCount, 0, "c"}});
  Table out = Drain(agg.get());
  ASSERT_EQ(out.num_rows(), 2);
  EXPECT_EQ(out.col(1).Int(0), 500);
  EXPECT_EQ(out.col(1).Int(1), 1);
}

TEST(StreamAggregateTest, NonContiguousInputEmitsOneRowPerRun) {
  // The documented precondition: equal group keys must be contiguous.
  // On a violating input the operator (like engine::StreamGroupBy) emits
  // one row per maximal run — MORE groups than hash aggregation, the
  // failure mode the planner's contiguity proof exists to prevent.
  Table t = MakeKv(50, 5);  // keys cycle 0..4: every group re-appears
  OpPtr stream = StreamAggregate(Scan(&t, nullptr, 16), {0},
                                 {{AggSpec::Kind::kCount, 0, "c"}});
  Table streamed = Drain(stream.get());
  Table hashed = engine::HashGroupBy(t, {0}, {{AggSpec::Kind::kCount, 0,
                                               "c"}});
  EXPECT_EQ(streamed.num_rows(), 50);  // one per run of length 1
  EXPECT_GT(streamed.num_rows(), hashed.num_rows());
}

TEST(StreamAggregateTest, EmptyInput) {
  Table t = MakeKv(0, 1);
  OpPtr agg = StreamAggregate(Scan(&t), {0},
                              {{AggSpec::Kind::kSum, 1, "s"}});
  Batch b;
  EXPECT_FALSE(agg->Next(&b));
}

// A streaming DISTINCT is a StreamAggregate with no aggregates.
TEST(StreamDistinctTest, MatchesHashDistinctOnSortedInput) {
  Table t = engine::SortBy(MakeKv(777, 19), {0});
  OpPtr d = StreamAggregate(Scan(&t, nullptr, 10), {0}, {});
  Table streamed = Drain(d.get());
  Table hashed = engine::HashDistinct(t, {0});
  EXPECT_TRUE(engine::SameRowMultiset(hashed, streamed));
  EXPECT_EQ(streamed.num_rows(), 19);
}

TEST(StreamDistinctTest, NonContiguousEmitsRuns) {
  Table t = MakeKv(10, 2);  // 0,1,0,1,...
  OpPtr d = StreamAggregate(Scan(&t), {0}, {});
  EXPECT_EQ(Drain(d.get()).num_rows(), 10);
}

TEST(MergeJoinTest, MatchesEngineSortMergeJoin) {
  // Duplicate keys on both sides: cross products per equal-key run, with
  // runs straddling the 3-row batches.
  Schema s;
  s.Add("k", DataType::kInt64);
  s.Add("x", DataType::kInt64);
  Table l(s), r(s);
  const int64_t lkeys[] = {1, 1, 2, 3, 3, 3, 5, 7, 7, 9};
  const int64_t rkeys[] = {0, 1, 3, 3, 4, 5, 5, 7, 10};
  for (size_t i = 0; i < sizeof(lkeys) / sizeof(lkeys[0]); ++i) {
    l.AppendRow({Value(lkeys[i]), Value(static_cast<int64_t>(100 + i))});
  }
  for (size_t i = 0; i < sizeof(rkeys) / sizeof(rkeys[0]); ++i) {
    r.AppendRow({Value(rkeys[i]), Value(static_cast<int64_t>(200 + i))});
  }
  opt::ExecStats stats;
  OpPtr j = MergeJoin(Scan(&l, nullptr, 3), 0, Scan(&r, nullptr, 3), 0,
                      &stats);
  Table streamed = Drain(j.get(), &stats);
  Table reference = engine::SortMergeJoin(l, 0, r, 0, /*assume_sorted=*/true);
  EXPECT_TRUE(engine::SameRowMultiset(reference, streamed));
  EXPECT_EQ(stats.joins, 1);
  EXPECT_EQ(stats.rows_joined, streamed.num_rows());
  EXPECT_TRUE(engine::IsSortedBy(streamed, {0}));
}

TEST(MergeJoinTest, EmptyInputs) {
  Table l = MakeKv(10, 3);
  Table empty = MakeKv(0, 1);
  OpPtr j1 = MergeJoin(Scan(&l), 0, Scan(&empty), 0);
  EXPECT_EQ(Drain(j1.get()).num_rows(), 0);
  OpPtr j2 = MergeJoin(Scan(&empty), 0, Scan(&l), 0);
  EXPECT_EQ(Drain(j2.get()).num_rows(), 0);
}

TEST(MergeJoinTest, NanDoubleKeysAgreeWithCompareDoubles) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema s;
  s.Add("k", DataType::kDouble);
  s.Add("side", DataType::kInt64);
  Table l(s), r(s);
  for (double k : {1.0, 2.5, 0.0, nan, nan}) {
    l.AppendRow({Value(k), Value(int64_t{1})});
  }
  for (double k : {2.5, 2.5, -0.0, nan}) {
    r.AppendRow({Value(k), Value(int64_t{2})});
  }
  // engine::SortBy orders doubles via od::CompareDoubles: NaNs equal each
  // other and sort after every ordered value.
  Table ls = engine::SortBy(l, {0});
  Table rs = engine::SortBy(r, {0});
  OpPtr j = MergeJoin(Scan(&ls, nullptr, 2), 0, Scan(&rs, nullptr, 2), 0);
  Table out = Drain(j.get());
  // 2.5 matches the right's run of two; +0.0 matches -0.0 (CompareDoubles
  // ties them); each left NaN matches the single right NaN.
  EXPECT_EQ(out.num_rows(), 2 + 1 + 2);
  int nan_rows = 0;
  for (int64_t i = 0; i < out.num_rows(); ++i) {
    if (std::isnan(out.col(0).Double(i))) ++nan_rows;
  }
  EXPECT_EQ(nan_rows, 2);
  // NaN joins stream out last — the total order puts NaN after everything.
  EXPECT_TRUE(std::isnan(out.col(0).Double(out.num_rows() - 1)));
}

TEST(SortTest, NanDoublesAgreeWithEngineSort) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema s;
  s.Add("x", DataType::kDouble);
  Table t(s);
  for (double v : {3.0, nan, -1.0, 0.0, nan, 2.0, -0.0}) {
    t.AppendRow({Value(v)});
  }
  opt::ExecStats stats;
  OpPtr sorted = Sort(Scan(&t, nullptr, 2), {0}, {}, &stats);
  Table out = Drain(sorted.get());
  Table reference = engine::SortBy(t, {0});
  EXPECT_TRUE(TablesEqualExactly(reference, out));
  EXPECT_EQ(stats.sorts, 1);
  // All NaNs land at the end, per CompareDoubles.
  EXPECT_TRUE(std::isnan(out.col(0).Double(out.num_rows() - 1)));
  EXPECT_TRUE(std::isnan(out.col(0).Double(out.num_rows() - 2)));
  EXPECT_FALSE(std::isnan(out.col(0).Double(out.num_rows() - 3)));
}

TEST(SortTest, AlreadySortedInputCountsAsElided) {
  Table t = engine::SortBy(MakeKv(500, 7), {0});
  opt::ExecStats stats;
  OpPtr sorted = Sort(Scan(&t), {0}, {}, &stats);
  Table out = Drain(sorted.get());
  EXPECT_EQ(stats.sorts, 0);
  EXPECT_EQ(stats.sorts_elided, 1);
  EXPECT_TRUE(engine::IsSortedBy(out, {0}));
}

TEST(LimitTest, EarlyExitStopsScanning) {
  Table t = MakeKv(100000, 11);
  opt::ExecStats stats;
  OpPtr lim = Limit(Scan(&t, &stats), 10);
  Table out = Drain(lim.get(), &stats);
  EXPECT_EQ(out.num_rows(), 10);
  // Only the first batch was ever pulled.
  EXPECT_EQ(stats.rows_scanned, kDefaultBatchRows);
}

TEST(TopKTest, MatchesSortPlusLimit) {
  Table t = MakeKv(5000, 997);
  OpPtr topk = TopK(Scan(&t), {0, 1}, 25);
  Table got = Drain(topk.get());
  Table full = engine::SortBy(t, {0, 1});
  ASSERT_EQ(got.num_rows(), 25);
  for (int64_t i = 0; i < 25; ++i) {
    EXPECT_EQ(got.col(0).Get(i), full.col(0).Get(i));
    EXPECT_EQ(got.col(1).Get(i), full.col(1).Get(i));
  }
}

// The planner may answer ORDER BY ... LIMIT k with TopK or with
// Limit(Sort), so both must return the same rows when the key ties: those
// of a stable sort (engine::SortBy) cut at k, on every column.
TEST(TopKTest, TiesKeepInputOrderLikeSortPlusLimit) {
  Schema s;
  s.Add("k", DataType::kInt64);
  s.Add("row", DataType::kInt64);
  for (uint32_t seed = 1; seed <= 5; ++seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int64_t> key(0, 2);
    Table t(s);
    for (int64_t i = 0; i < 5000; ++i) t.AppendRow({Value(key(rng)), Value(i)});
    const Table sorted = engine::SortBy(t, {0});
    for (int64_t k : {10, 100}) {
      OpPtr topk = TopK(Scan(&t), {0}, k);
      const Table got = Drain(topk.get());
      ASSERT_EQ(got.num_rows(), k);
      for (int64_t i = 0; i < k; ++i) {
        for (int c = 0; c < t.num_columns(); ++c) {
          EXPECT_EQ(got.col(c).Get(i), sorted.col(c).Get(i))
              << "seed " << seed << ", k " << k << ", row " << i;
        }
      }
    }
  }
}

TEST(HashAggregateTest, MatchesEngineHashGroupBy) {
  Table t = MakeKv(3000, 17);
  const std::vector<AggSpec> aggs{{AggSpec::Kind::kSum, 1, "s"}};
  OpPtr agg = HashAggregate(Scan(&t, nullptr, 100), {0}, aggs);
  Table streamed = Drain(agg.get());
  EXPECT_TRUE(
      engine::SameRowMultiset(engine::HashGroupBy(t, {0}, aggs), streamed));
}

// The hash aggregates (engine::HashGroupBy, exec::HashAggregate,
// exec::ParallelHashAggregate inline and on a pool) must form exactly the
// groups the stream aggregates form by Column::Compare. `unsorted` is
// sorted by `group_cols` first, so every aggregate sees contiguous groups
// and emits them in the same order.
void ExpectHashGroupsMatchStreamGroups(const Table& unsorted,
                                       const std::vector<ColumnId>& group_cols,
                                       int64_t want_groups) {
  const Table t = engine::SortBy(unsorted, group_cols);
  const std::vector<AggSpec> aggs{{AggSpec::Kind::kCount, 0, "n"}};
  const Table want = engine::StreamGroupBy(t, group_cols, aggs);
  ASSERT_EQ(want.num_rows(), want_groups);
  OpPtr stream = StreamAggregate(Scan(&t), group_cols, aggs);
  EXPECT_TRUE(TablesEqualExactly(want, Drain(stream.get())));
  EXPECT_TRUE(
      TablesEqualExactly(want, engine::HashGroupBy(t, group_cols, aggs)));
  OpPtr hash = HashAggregate(Scan(&t), group_cols, aggs);
  EXPECT_TRUE(TablesEqualExactly(want, Drain(hash.get())));
  common::ThreadPool pool(2);
  for (common::ThreadPool* p :
       {static_cast<common::ThreadPool*>(nullptr), &pool}) {
    OpPtr par = ParallelHashAggregate(
        3,
        [&t](int f, opt::ExecStats* fs) {
          return Scan(&t, fs, /*batch_rows=*/1, {2 * f, 2 * f + 2});
        },
        group_cols, aggs, p);
    EXPECT_TRUE(TablesEqualExactly(want, Drain(par.get())));
  }
}

TEST(HashAggregateTest, DoubleKeysGroupLikeCompareDoubles) {
  // -0.0 and +0.0 are one group, every NaN is one group, and doubles that
  // print alike under %g stay apart: 4 groups.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema s;
  s.Add("d", DataType::kDouble);
  Table t(s);
  for (double d : {nan, 1.0000002, -0.0, -nan, 0.0, 1.0000001}) {
    t.AppendRow({Value(d)});
  }
  ExpectHashGroupsMatchStreamGroups(t, {0}, 4);
}

TEST(HashAggregateTest, StringKeysDoNotRunTogether) {
  // ("x\x01y", "z") and ("x", "y\x01z") are different groups even though
  // their columns joined by a separator byte read alike.
  Schema s;
  s.Add("a", DataType::kString);
  s.Add("b", DataType::kString);
  Table t(s);
  for (int i = 0; i < 3; ++i) {
    t.AppendRow({Value("x\x01y"), Value("z")});
    t.AppendRow({Value("x"), Value("y\x01z")});
  }
  ExpectHashGroupsMatchStreamGroups(t, {0, 1}, 2);
}

TEST(HashJoinTest, StreamingProbeMatchesEngineAndPreservesOrder) {
  Table fact = engine::SortBy(MakeKv(2000, 50), {0});
  Schema ds;
  ds.Add("k", DataType::kInt64);
  ds.Add("name", DataType::kString);
  Table dim(ds);
  for (int64_t i = 0; i < 50; i += 2) {  // only even keys match
    dim.AppendRow({Value(i), Value("d" + std::to_string(i))});
  }
  opt::ExecStats stats;
  OpPtr j = HashJoin(Scan(&fact, nullptr, 64), 0, Scan(&dim), 0, &stats);
  EXPECT_EQ(j->ordering(), engine::SortSpec({0}));  // probe order survives
  Table streamed = Drain(j.get(), &stats);
  Table reference = engine::HashJoin(fact, 0, dim, 0);
  EXPECT_TRUE(engine::SameRowMultiset(reference, streamed));
  EXPECT_TRUE(engine::IsSortedBy(streamed, {0}));
  EXPECT_EQ(stats.joins, 1);
}

TEST(HashJoinTest, SerialJoinBuildsOnItsFirstNext) {
  // The build side drains inside the join's first Next, never at
  // construction, so EXPLAIN ANALYZE charges the build to the join node.
  Table fact = MakeKv(1000, 50);
  Table dim = MakeKv(50, 50);
  opt::ExecStats build_stats;
  OpPtr j = HashJoin(Scan(&fact), 0, Scan(&dim, &build_stats), 0);
  EXPECT_EQ(build_stats.rows_scanned, 0);
  Batch b;
  ASSERT_TRUE(j->Next(&b));
  EXPECT_EQ(build_stats.rows_scanned, dim.num_rows());
}

TEST(IndexRangeScanTest, MatchesIndexScanRange) {
  Table t = MakeKv(5000, 100);
  engine::OrderedIndex idx(&t, {0});
  opt::ExecStats stats;
  OpPtr scan = IndexRangeScan(&idx, idx.PositionRange(10, 20), &stats, 128);
  EXPECT_EQ(scan->ordering(), engine::SortSpec({0}));
  Table streamed = Drain(scan.get(), &stats);
  Table reference = idx.ScanRange(10, 20);
  EXPECT_TRUE(TablesEqualExactly(reference, streamed));
  EXPECT_EQ(stats.rows_scanned, reference.num_rows());
}

TEST(PartitionedScanTest, PrunesAndMatchesMaterializingScan) {
  Table t = MakeKv(8000, 64);
  engine::PartitionedTable parts =
      engine::PartitionedTable::PartitionByRange(t, 0, 16);
  opt::ExecStats stats;
  OpPtr scan = PartitionedScan(&parts, {{8, 15}}, &stats, 256);
  Table streamed = Drain(scan.get(), &stats);
  int touched = 0;
  Table reference = parts.ScanRange(8, 15, &touched);
  EXPECT_TRUE(engine::SameRowMultiset(reference, streamed));
  EXPECT_EQ(stats.partitions_scanned, touched);
  EXPECT_LT(stats.partitions_scanned, 16);
}

TEST(OperatorContractTest, InvalidColumnIdsThrow) {
  Table t = MakeKv(10, 3);
  EXPECT_THROW(Filter(Scan(&t), {{-1, Predicate::Op::kEq, Value(0)}}),
               std::out_of_range);
  EXPECT_THROW(Project(Scan(&t), {5}), std::out_of_range);
  EXPECT_THROW(StreamAggregate(Scan(&t), {9}, {}), std::out_of_range);
  EXPECT_THROW(Sort(Scan(&t), {3}), std::out_of_range);
  EXPECT_THROW(MergeJoin(Scan(&t), 0, Scan(&t), -1), std::out_of_range);
  EXPECT_THROW(HashJoin(Scan(&t), 7, Scan(&t), 0), std::out_of_range);
  // HashJoin builds and probes through the unchecked int64 accessor; a
  // non-int64 key must be rejected up front (MergeJoin handles any type).
  EXPECT_THROW(HashJoin(Scan(&t), 1, Scan(&t), 1), std::invalid_argument);
  // A batch of fewer than one row: a scan would return empty batches
  // forever.
  EXPECT_THROW(Scan(&t, nullptr, 0), std::invalid_argument);
  EXPECT_THROW(Sort(Scan(&t), {0}, {}, nullptr, -3), std::invalid_argument);
}

TEST(OperatorContractTest, DrainingTheSameTreeTwiceThrows) {
  Table t = MakeKv(100, 3);
  OpPtr op = Sort(Scan(&t), {0});
  Drain(op.get());
  // Operators are single-use; a second drain would silently return empty
  // rows without the StartConsume guard.
  EXPECT_THROW(Drain(op.get()), std::logic_error);
}

TEST(OperatorContractTest, SinksRejectAlreadyConsumedChildren) {
  Table t = MakeKv(100, 3);
  OpPtr scan = Scan(&t);
  Drain(scan.get());
  OpPtr sort = Sort(std::move(scan), {0});
  Batch b;
  EXPECT_THROW(sort->Next(&b), std::logic_error);
}

TEST(CheckOrderTest, PassesAnHonestOrderingClaim) {
  Table t = MakeKv(5000, 7);
  OpPtr op = CheckOrder(Sort(Scan(&t, nullptr, /*batch_rows=*/3), {0, 1}));
  Table out = Drain(op.get());
  EXPECT_EQ(out.num_rows(), 5000);
  EXPECT_TRUE(engine::IsSortedBy(out, {0, 1}));
}

TEST(CheckOrderTest, NoClaimMeansNoChecking) {
  Table t = MakeKv(100, 7);  // unsorted by k, but Scan claims nothing
  OpPtr op = CheckOrder(Scan(&t));
  EXPECT_EQ(Drain(op.get()).num_rows(), 100);
}

// An operator that *lies* about its ordering property: forwards the
// child's (unsorted) stream while claiming it is sorted by `spec`.
class LyingOp : public Operator {
 public:
  LyingOp(OpPtr child, engine::SortSpec claim) : child_(std::move(child)) {
    schema_ = child_->schema();
    ordering_ = std::move(claim);
  }
  bool Next(Batch* out) override { return child_->Next(out); }

 private:
  OpPtr child_;
};

TEST(CheckOrderTest, CatchesAFalseClaimAcrossBatchBoundaries) {
  Table t = MakeKv(100, 7);  // k cycles 0..6: descends at every wrap
  // Single-row batches: the only adjacent pairs are across batches.
  OpPtr op = CheckOrder(std::make_unique<LyingOp>(
      Scan(&t, nullptr, /*batch_rows=*/1), engine::SortSpec{0}));
  EXPECT_THROW(Drain(op.get()), std::logic_error);
}

TEST(CheckOrderTest, NanDoublesTieUnderTheClaim) {
  // NaNs order after every value and tie with each other — a stream
  // sorted that way must pass the checker (od::CompareDoubles semantics).
  Schema s;
  s.Add("x", DataType::kDouble);
  Table t(s);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {1.0, 2.0, 2.0, nan, nan}) t.AppendRow({Value(v)});
  OpPtr op = CheckOrder(
      std::make_unique<LyingOp>(Scan(&t, nullptr, 2), engine::SortSpec{0}));
  EXPECT_EQ(Drain(op.get()).num_rows(), 5);
}

}  // namespace
}  // namespace exec
}  // namespace od
