// Tests for the split (constancy / FD) and swap (order-compatibility)
// validators over stripped partitions.

#include <gtest/gtest.h>

#include <limits>

#include "discovery/stripped_partition.h"
#include "discovery/validators.h"
#include "engine/table.h"
#include "test_table_util.h"

namespace od {
namespace discovery {
namespace {

TEST(SplitValidatorTest, HoldsWhenAttrConstantPerClass) {
  // b is a function of a.
  engine::Table t = IntTable({"a", "b"}, {{1, 5}, {1, 5}, {2, 7}, {2, 7}});
  PartitionCache cache(t);
  cache.Prewarm({AttributeSet({0}), AttributeSet({0, 1})}, nullptr);
  EXPECT_TRUE(SplitCandidateHolds(cache.Get(AttributeSet({0})),
                                  cache.Get(AttributeSet({0, 1}))));
}

TEST(SplitValidatorTest, FailsOnSplit) {
  // Rows 0 and 1 agree on a but differ on b: a split of {a}: [] ↦ b.
  engine::Table t = IntTable({"a", "b"}, {{1, 5}, {1, 6}, {2, 7}, {2, 7}});
  PartitionCache cache(t);
  cache.Prewarm({AttributeSet({0}), AttributeSet({0, 1})}, nullptr);
  EXPECT_FALSE(SplitCandidateHolds(cache.Get(AttributeSet({0})),
                                   cache.Get(AttributeSet({0, 1}))));
}

TEST(SplitValidatorTest, EmptyContextDetectsConstantColumn) {
  engine::Table t = IntTable({"a", "k"}, {{1, 9}, {2, 9}, {3, 9}});
  PartitionCache cache(t);
  cache.Prewarm({AttributeSet(), AttributeSet({0}), AttributeSet({1})},
                nullptr);
  EXPECT_TRUE(SplitCandidateHolds(cache.Get(AttributeSet()),
                                  cache.Get(AttributeSet({1}))));
  EXPECT_FALSE(SplitCandidateHolds(cache.Get(AttributeSet()),
                                   cache.Get(AttributeSet({0}))));
}

TEST(SwapValidatorTest, DetectsSwapWithWitness) {
  // Rows 1 and 2: a increases 1 → 2 while b decreases 6 → 5.
  engine::Table t = IntTable({"a", "b"}, {{0, 0}, {1, 6}, {2, 5}});
  StrippedPartition ctx = StrippedPartition::Universe(t.num_rows());
  auto w = FindSwap(t, ctx, 0, 1);
  ASSERT_TRUE(w.has_value());
  // The witness pair increases on a and decreases on b.
  EXPECT_LT(t.col(0).Int(w->s), t.col(0).Int(w->t));
  EXPECT_GT(t.col(1).Int(w->s), t.col(1).Int(w->t));
  EXPECT_FALSE(SwapCandidateHolds(t, ctx, 0, 1));
  // Symmetric: reading the pair the other way swaps b against a.
  EXPECT_FALSE(SwapCandidateHolds(t, ctx, 1, 0));
}

TEST(SwapValidatorTest, HoldsWhenMonotone) {
  engine::Table t = IntTable({"a", "b"}, {{1, 10}, {2, 20}, {3, 30}});
  StrippedPartition ctx = StrippedPartition::Universe(t.num_rows());
  EXPECT_TRUE(SwapCandidateHolds(t, ctx, 0, 1));
}

TEST(SwapValidatorTest, TiesOnAAllowAnyB) {
  // Order compatibility constrains strict increases of a only: rows tied on
  // a may carry b in any order.
  engine::Table t = IntTable({"a", "b"}, {{1, 20}, {1, 10}, {2, 30}});
  StrippedPartition ctx = StrippedPartition::Universe(t.num_rows());
  EXPECT_TRUE(SwapCandidateHolds(t, ctx, 0, 1));
  // A strict increase of a that drops below an earlier group's b is still a
  // swap: (a=1, b=20) against the new (a=3, b=15).
  t.AppendRow({Value(3), Value(15)});
  StrippedPartition ctx2 = StrippedPartition::Universe(t.num_rows());
  auto w = FindSwap(t, ctx2, 0, 1);
  ASSERT_TRUE(w.has_value());
  EXPECT_LT(t.col(0).Int(w->s), t.col(0).Int(w->t));
  EXPECT_GT(t.col(1).Int(w->s), t.col(1).Int(w->t));
}

TEST(SwapValidatorTest, ConstantSideNeverSwaps) {
  engine::Table t = IntTable({"a", "k"}, {{3, 9}, {1, 9}, {2, 9}});
  StrippedPartition ctx = StrippedPartition::Universe(t.num_rows());
  EXPECT_TRUE(SwapCandidateHolds(t, ctx, 0, 1));
  EXPECT_TRUE(SwapCandidateHolds(t, ctx, 1, 0));
}

TEST(SwapValidatorTest, ContextClassesIsolateSwaps) {
  // Within c-classes, a and b move together; across classes they would
  // swap, but cross-class pairs are not witnesses.
  engine::Table t = IntTable(
      {"c", "a", "b"},
      {{0, 1, 10}, {0, 2, 20}, {1, 100, 1}, {1, 200, 2}});
  PartitionCache cache(t);
  cache.Prewarm({AttributeSet({0})}, nullptr);
  EXPECT_TRUE(SwapCandidateHolds(t, cache.Get(AttributeSet({0})), 1, 2));
  // With the empty context the cross-class swap is visible:
  // (a=2, b=20) vs (a=100, b=1).
  EXPECT_FALSE(
      SwapCandidateHolds(t, StrippedPartition::Universe(t.num_rows()), 1, 2));
}

TEST(SwapValidatorTest, KeyContextHasNothingToCheck) {
  engine::Table t = IntTable({"id", "a", "b"},
                             {{1, 5, 9}, {2, 6, 8}, {3, 7, 7}});
  PartitionCache cache(t);
  cache.Prewarm({AttributeSet({0})}, nullptr);
  const StrippedPartition& ctx = cache.Get(AttributeSet({0}));
  EXPECT_TRUE(ctx.IsKey());
  EXPECT_TRUE(SwapCandidateHolds(t, ctx, 1, 2));
}

TEST(SwapValidatorTest, NanRowsDoNotMaskSwaps) {
  // Regression: with IEEE `<` semantics, NaN "ties" with every value, so
  // the per-class sort comparator lost strict-weak ordering and the
  // swap between (a=1, b=99) and (a=3, b=97) went undetected in one scan
  // direction. Under the total order (CompareDoubles) NaNs group after the
  // ordered values and the swap is found symmetrically.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  engine::Schema s;
  s.Add("a", engine::DataType::kDouble);
  s.Add("b", engine::DataType::kDouble);
  engine::Table t(s);
  const double a_vals[] = {nan, 1.0, nan, 3.0, nan, 5.0};
  const double b_vals[] = {100.0, 99.0, 98.0, 97.0, 96.0, 95.0};
  for (size_t i = 0; i < 6; ++i) {
    t.AppendRow({Value(a_vals[i]), Value(b_vals[i])});
  }
  const StrippedPartition ctx = StrippedPartition::Universe(t.num_rows());
  auto fwd = FindSwap(t, ctx, 0, 1);
  auto bwd = FindSwap(t, ctx, 1, 0);
  EXPECT_TRUE(fwd.has_value());
  EXPECT_TRUE(bwd.has_value());
  // The NaN rows themselves also swap against ordered rows on b (NaN sorts
  // last on a while b descends), but any witness must be a genuine strict
  // increase/decrease pair under the total order.
  if (fwd) {
    const engine::Column& ca = t.col(0);
    const engine::Column& cb = t.col(1);
    EXPECT_GT(ca.Compare(fwd->t, ca, fwd->s), 0);
    EXPECT_LT(cb.Compare(fwd->t, cb, fwd->s), 0);
  }
}

TEST(SwapValidatorTest, AllNanColumnIsConstantNotSwapped) {
  // All-NaN a: one equivalence class on a, no strict increase anywhere —
  // never a swap witness source.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  engine::Schema s;
  s.Add("a", engine::DataType::kDouble);
  s.Add("b", engine::DataType::kDouble);
  engine::Table t(s);
  for (double b : {3.0, 1.0, 2.0}) t.AppendRow({Value(nan), Value(b)});
  const StrippedPartition ctx = StrippedPartition::Universe(t.num_rows());
  EXPECT_FALSE(FindSwap(t, ctx, 0, 1).has_value());
  EXPECT_FALSE(FindSwap(t, ctx, 1, 0).has_value());
}

}  // namespace
}  // namespace discovery
}  // namespace od
