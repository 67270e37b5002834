// Tests for the stripped-partition (position-list-index) layer: base
// partitions per column type, product refinement, the error measure, and
// the cross-level cache.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "common/thread_pool.h"
#include "discovery/stripped_partition.h"
#include "engine/table.h"
#include "test_table_util.h"

namespace od {
namespace discovery {
namespace {

TEST(StrippedPartitionTest, UniverseIsOneClass) {
  StrippedPartition p = StrippedPartition::Universe(4);
  ASSERT_EQ(p.num_classes(), 1);
  EXPECT_EQ(p.cls(0), (std::vector<int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(p.Error(), 3);
  EXPECT_FALSE(p.IsKey());
}

TEST(StrippedPartitionTest, UniverseOfTinyTableIsStripped) {
  EXPECT_TRUE(StrippedPartition::Universe(0).IsKey());
  EXPECT_TRUE(StrippedPartition::Universe(1).IsKey());
}

TEST(StrippedPartitionTest, ForColumnGroupsAndStrips) {
  // Column: 7 7 3 9 3 → classes {0,1} and {2,4}; row 3 is stripped.
  engine::Table t = IntTable({"a"}, {{7}, {7}, {3}, {9}, {3}});
  StrippedPartition p = StrippedPartition::ForColumn(t, 0);
  ASSERT_EQ(p.num_classes(), 2);
  // Canonical order: classes sorted by smallest member.
  EXPECT_EQ(p.cls(0), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(p.cls(1), (std::vector<int64_t>{2, 4}));
  EXPECT_EQ(p.Error(), 2);
}

TEST(StrippedPartitionTest, ForColumnStringsAndDoubles) {
  engine::Schema s;
  s.Add("s", engine::DataType::kString);
  s.Add("d", engine::DataType::kDouble);
  engine::Table t(s);
  t.AppendRow({Value("x"), Value(1.5)});
  t.AppendRow({Value("y"), Value(2.5)});
  t.AppendRow({Value("x"), Value(1.5)});
  StrippedPartition ps = StrippedPartition::ForColumn(t, 0);
  ASSERT_EQ(ps.num_classes(), 1);
  EXPECT_EQ(ps.cls(0), (std::vector<int64_t>{0, 2}));
  StrippedPartition pd = StrippedPartition::ForColumn(t, 1);
  ASSERT_EQ(pd.num_classes(), 1);
  EXPECT_EQ(pd.cls(0), (std::vector<int64_t>{0, 2}));
}

TEST(StrippedPartitionTest, DoubleEdgeCasesGroupConsistently) {
  // NaN != NaN under hash-map equality, but the engine's comparator
  // (CompareDoubles) ranks all NaNs equal; grouping must agree or
  // discovery would claim FDs the validators refute. All NaNs form one
  // class, and -0.0 joins +0.0.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  engine::Schema s;
  s.Add("d", engine::DataType::kDouble);
  engine::Table t(s);
  for (double v : {nan, 0.0, nan, -0.0}) t.AppendRow({Value(v)});
  StrippedPartition p = StrippedPartition::ForColumn(t, 0);
  ASSERT_EQ(p.num_classes(), 2);
  EXPECT_EQ(p.cls(0), (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(p.cls(1), (std::vector<int64_t>{1, 3}));
}

TEST(StrippedPartitionTest, KeyColumnIsEmptyPartition) {
  engine::Table t = IntTable({"id"}, {{1}, {2}, {3}});
  StrippedPartition p = StrippedPartition::ForColumn(t, 0);
  EXPECT_TRUE(p.IsKey());
  EXPECT_EQ(p.Error(), 0);
}

TEST(StrippedPartitionTest, ProductRefines) {
  // a: two classes {0,1,2} {3,4}; b splits the first into {0,1} / {2}.
  engine::Table t =
      IntTable({"a", "b"}, {{1, 5}, {1, 5}, {1, 6}, {2, 7}, {2, 7}});
  StrippedPartition pa = StrippedPartition::ForColumn(t, 0);
  StrippedPartition pb = StrippedPartition::ForColumn(t, 1);
  StrippedPartition pab = pa.Product(pb);
  ASSERT_EQ(pab.num_classes(), 2);
  EXPECT_EQ(pab.cls(0), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(pab.cls(1), (std::vector<int64_t>{3, 4}));
  EXPECT_EQ(pab.Error(), 2);
  // The product is symmetric.
  StrippedPartition pba = pb.Product(pa);
  ASSERT_EQ(pba.num_classes(), 2);
  EXPECT_EQ(pba.cls(0), pab.cls(0));
  EXPECT_EQ(pba.cls(1), pab.cls(1));
}

TEST(StrippedPartitionTest, ProductWithUniverseIsIdentity) {
  engine::Table t = IntTable({"a"}, {{1}, {1}, {2}, {2}, {3}});
  StrippedPartition pa = StrippedPartition::ForColumn(t, 0);
  StrippedPartition pu = StrippedPartition::Universe(t.num_rows());
  StrippedPartition prod = pa.Product(pu);
  ASSERT_EQ(prod.num_classes(), pa.num_classes());
  for (int i = 0; i < pa.num_classes(); ++i) {
    EXPECT_EQ(prod.cls(i), pa.cls(i));
  }
}

TEST(StrippedPartitionTest, ErrorNeverIncreasesUnderRefinement) {
  engine::Table t = IntTable(
      {"a", "b"}, {{1, 1}, {1, 2}, {1, 2}, {2, 1}, {2, 1}, {2, 1}});
  StrippedPartition pa = StrippedPartition::ForColumn(t, 0);
  StrippedPartition pb = StrippedPartition::ForColumn(t, 1);
  EXPECT_LE(pa.Product(pb).Error(), pa.Error());
  EXPECT_LE(pa.Product(pb).Error(), pb.Error());
}

TEST(PartitionCacheTest, CachesAndReuses) {
  engine::Table t =
      IntTable({"a", "b"}, {{1, 5}, {1, 5}, {1, 6}, {2, 7}, {2, 7}});
  PartitionCache cache(t);
  cache.Prewarm({AttributeSet({0, 1})}, nullptr);
  const StrippedPartition& p1 = cache.Get(AttributeSet({0, 1}));
  EXPECT_EQ(p1.num_classes(), 2);
  // {a, b} plus its chain {a} and {b}.
  const int64_t after_first = cache.computed();
  EXPECT_GE(after_first, 3);
  // Prewarming cached sets again builds nothing.
  cache.Prewarm({AttributeSet({0, 1}), AttributeSet({0})}, nullptr);
  cache.Get(AttributeSet({0, 1}));
  cache.Get(AttributeSet({0}));
  EXPECT_EQ(cache.computed(), after_first);  // all hits
}

TEST(PartitionCacheTest, GetOfUnprewarmedSetThrowsLogicError) {
  engine::Table t =
      IntTable({"a", "b", "c"},
               {{1, 5, 0}, {1, 5, 0}, {1, 6, 1}, {2, 7, 1}, {2, 7, 0}});
  PartitionCache cache(t);
  EXPECT_THROW(cache.Get(AttributeSet({0})), std::logic_error);
  cache.Prewarm({AttributeSet({0, 1})}, nullptr);
  EXPECT_NO_THROW(cache.Get(AttributeSet({0, 1})));
  EXPECT_NO_THROW(cache.Get(AttributeSet({0})));
  // A set nobody named, even one whose inputs are cached, is not built.
  EXPECT_THROW(cache.Get(AttributeSet({0, 2})), std::logic_error);
  EXPECT_THROW(cache.Get(AttributeSet()), std::logic_error);
  // An evicted set is gone until the next Prewarm names it.
  cache.EvictLevel(2);
  const int64_t computed = cache.computed();
  EXPECT_THROW(cache.Get(AttributeSet({0, 1})), std::logic_error);
  EXPECT_EQ(cache.computed(), computed);
}

TEST(PartitionCacheTest, EvictLevelDropsOnlyThatLevel) {
  engine::Table t =
      IntTable({"a", "b", "c"},
               {{1, 5, 0}, {1, 5, 0}, {1, 6, 1}, {2, 7, 1}, {2, 7, 0}});
  PartitionCache cache(t);
  cache.Prewarm({AttributeSet({0, 1}), AttributeSet({0})}, nullptr);
  cache.Get(AttributeSet({0, 1}));
  cache.Get(AttributeSet({0}));
  const int64_t before = cache.size();
  cache.EvictLevel(2);
  EXPECT_EQ(cache.size(), before - 1);  // only {a, b} dropped
  // Single-column partitions are never evicted (they seed every product).
  cache.EvictLevel(1);
  EXPECT_EQ(cache.size(), before - 1);
  // Recomputing the evicted set is a fresh miss.
  const int64_t computed_before = cache.computed();
  cache.Prewarm({AttributeSet({0, 1})}, nullptr);
  cache.Get(AttributeSet({0, 1}));
  EXPECT_EQ(cache.computed(), computed_before + 1);
}

TEST(PartitionCacheTest, PrewarmMatchesOnDemandComputation) {
  engine::Table t = IntTable({"a", "b", "c"}, {{1, 10, 5},
                                               {1, 10, 5},
                                               {1, 20, 5},
                                               {2, 20, 6},
                                               {2, 20, 6},
                                               {2, 10, 6}});
  const std::vector<AttributeSet> queries = {
      AttributeSet({0, 1}), AttributeSet({0, 2}), AttributeSet({0, 1, 2}),
      AttributeSet({1})};
  // On-demand reference: the same partitions as products of directly built
  // single-column partitions, no cache involved.
  const StrippedPartition a = StrippedPartition::ForColumn(t, 0);
  const StrippedPartition b = StrippedPartition::ForColumn(t, 1);
  const StrippedPartition c = StrippedPartition::ForColumn(t, 2);
  const std::vector<StrippedPartition> direct = {
      a.Product(b), a.Product(c), a.Product(b).Product(c), b};
  // The sets and their chains are every nonempty subset of {a, b, c}.
  const int64_t direct_computed = 7;

  // Prewarmed (parallel) cache: same partitions, each built once, and the
  // Gets afterwards are pure lookups (computed() stays put).
  common::ThreadPool pool(4);
  PartitionCache warmed(t);
  warmed.Prewarm(queries, &pool);
  EXPECT_EQ(warmed.computed(), direct_computed);
  const int64_t after_prewarm = warmed.computed();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(warmed.Get(queries[i]).Error(), direct[i].Error());
    EXPECT_EQ(warmed.Get(queries[i]).num_classes(), direct[i].num_classes());
    EXPECT_EQ(warmed.Get(queries[i]).classes(), direct[i].classes());
  }
  EXPECT_EQ(warmed.computed(), after_prewarm);

  // Re-prewarming the same sets is a no-op.
  warmed.Prewarm(queries, &pool);
  EXPECT_EQ(warmed.computed(), after_prewarm);

  // Serial prewarm (no pool) behaves identically.
  PartitionCache serial(t);
  serial.Prewarm(queries, nullptr);
  EXPECT_EQ(serial.computed(), after_prewarm);
}

}  // namespace
}  // namespace discovery
}  // namespace od
