// Tests for the completeness construction of Section 4 (split/swap tables,
// append, and the full satisfying-and-complete generator).

#include <gtest/gtest.h>

#include "armstrong/append.h"
#include "armstrong/generator.h"
#include "armstrong/split_table.h"
#include "armstrong/swap_table.h"
#include "core/parser.h"
#include "core/witness.h"
#include "prover/closure.h"
#include "prover/prover.h"

namespace od {
namespace armstrong {
namespace {

DependencySet Parse(NameTable* names, const std::string& text) {
  Parser parser(names);
  auto set = parser.ParseSet(text);
  EXPECT_TRUE(set.has_value()) << parser.error();
  return *set;
}

TEST(AppendTest, PaperFigures4To6) {
  // Figure 4 and Figure 5 sub-tables...
  Relation r1 = Relation::FromInts({{0, 0, 0, 0}, {0, 0, 1, 1}});
  Relation r2 = Relation::FromInts({{0, 1, 0, 0}, {1, 0, 0, 0}});
  // ...and Figure 6, their append.
  Relation combined = Append(r1, r2);
  Relation expected = Relation::FromInts(
      {{0, 0, 0, 0}, {0, 0, 1, 1}, {2, 3, 2, 2}, {3, 2, 2, 2}});
  ASSERT_EQ(combined.num_rows(), 4);
  for (int i = 0; i < 4; ++i) {
    for (int a = 0; a < 4; ++a) {
      EXPECT_EQ(combined.At(i, a), expected.At(i, a))
          << "cell (" << i << ", " << a << ")";
    }
  }
}

TEST(AppendTest, Lemma9NoNewViolationsAcrossParts) {
  // The appended halves can only interact with strictly increasing values,
  // so no swap and no split (beyond X ↦ []) can involve one row from each.
  Relation r1 = Relation::FromInts({{0, 5}, {5, 0}});  // a swap inside r1
  Relation r2 = Relation::FromInts({{0, 0}, {0, 1}});  // a split inside r2
  Relation combined = Append(r1, r2);
  for (int s = 0; s < 2; ++s) {
    for (int t = 2; t < 4; ++t) {
      for (AttributeId a = 0; a < 2; ++a) {
        // Every cross-pair is strictly increasing on every attribute.
        EXPECT_LT(combined.At(s, a), combined.At(t, a));
      }
    }
  }
}

TEST(AppendTest, NormalizeMin) {
  Relation r = Relation::FromInts({{5, 7}, {6, 9}});
  Relation n = NormalizeMin(r);
  EXPECT_EQ(n.At(0, 0).AsInt(), 0);
  EXPECT_EQ(n.At(1, 1).AsInt(), 4);
}

TEST(SplitTableTest, SatisfiesAndFalsifies) {
  NameTable names;
  DependencySet m = Parse(&names, "[a] -> [b]");
  const AttributeSet universe{0, 1, 2};
  Relation split = BuildSplitTable(m, universe);
  // Lemma 10: split(ℳ) satisfies ℳ.
  EXPECT_TRUE(Satisfies(split, m));
  // It falsifies the non-implied FD-shaped OD A ↦ AC.
  EXPECT_FALSE(Satisfies(split, OrderDependency(AttributeList({0}),
                                                AttributeList({0, 2}))));
  // And contains no swaps at all: every column ascends together per block.
  EXPECT_FALSE(FindSwap(split, AttributeList({0}), AttributeList({1}))
                   .has_value());
  EXPECT_FALSE(FindSwap(split, AttributeList({1}), AttributeList({2}))
                   .has_value());
}

TEST(SwapContextTest, UnconstrainedPairHasFullContext) {
  NameTable names;
  DependencySet m = Parse(&names, "[a] -> [b]");
  prover::Prover pv(m);
  // For the pair (a, b): a ↦ b is prescribed, but a swap of a and b is
  // still... no wait — a ↦ b forbids swaps of (a asc, b desc) ONLY when no
  // context splits them; with a,b adjacent the swap falsifies a ↦ b, so no
  // context at all is feasible.
  auto contexts = MaximalSwapContexts(pv, AttributeSet{0, 1}, 0, 1);
  EXPECT_TRUE(contexts.empty());
  // For two unconstrained attributes c, d the full remaining set is the
  // unique maximal context.
  DependencySet empty;
  prover::Prover pv2(empty);
  auto contexts2 = MaximalSwapContexts(pv2, AttributeSet{0, 1, 2}, 0, 1);
  ASSERT_EQ(contexts2.size(), 1u);
  EXPECT_EQ(contexts2[0], AttributeSet{2});
}

TEST(SwapContextTest, DirectionMatters) {
  // a ↦ b forbids the (a+, b−) swap; the reverse orientation pins are
  // symmetric, so likewise forbidden.
  NameTable names;
  DependencySet m = Parse(&names, "[a] ~ [b]");
  prover::Prover pv(m);
  EXPECT_TRUE(MaximalSwapContexts(pv, AttributeSet{0, 1}, 0, 1).empty());
}

TEST(EmptyContextSwapTest, Figure9Construction) {
  // Universe {a, b, c, d} with c ~ a and d ~ b prescribed: a swap between
  // a and b must put c in a's group and d in b's group.
  NameTable names;
  DependencySet m = Parse(&names, "[c] ~ [a]; [d] ~ [b]");
  prover::Prover pv(m);
  const AttributeId a = names.Lookup("a");
  const AttributeId b = names.Lookup("b");
  const AttributeId c = names.Lookup("c");
  const AttributeId d = names.Lookup("d");
  auto swap = BuildEmptyContextSwap(pv, m.Attributes(), a, b);
  ASSERT_TRUE(swap.has_value());
  EXPECT_TRUE(Satisfies(*swap, m));
  // It realizes the swap between a and b.
  EXPECT_TRUE(FindSwap(*swap, AttributeList({a}), AttributeList({b}))
                  .has_value());
  // c follows a; d follows b.
  EXPECT_FALSE(FindSwap(*swap, AttributeList({c}), AttributeList({a}))
                   .has_value());
  EXPECT_FALSE(FindSwap(*swap, AttributeList({d}), AttributeList({b}))
                   .has_value());
}

TEST(EmptyContextSwapTest, SameComponentRejected) {
  NameTable names;
  DependencySet m = Parse(&names, "[a] ~ [b]");
  prover::Prover pv(m);
  EXPECT_FALSE(BuildEmptyContextSwap(pv, m.Attributes(),
                                     names.Lookup("a"), names.Lookup("b"))
                   .has_value());
}

// The centerpiece: for small ℳ the generated table satisfies ℳ and
// falsifies EVERY bounded-length OD not implied by ℳ (Lemmas 14 and 15).
class GeneratorCompletenessTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(GeneratorCompletenessTest, SatisfiesAndComplete) {
  NameTable names;
  DependencySet m = Parse(&names, GetParam());
  const AttributeSet universe = m.Attributes();
  Relation table = BuildArmstrongTable(m, universe);

  // Lemma 14: the table satisfies ℳ.
  EXPECT_TRUE(Satisfies(table, m)) << "ℳ:\n"
                                   << m.ToString(names) << "table:\n"
                                   << table.ToString();

  // Lemma 15: completeness over all ODs with duplicate-free lists of
  // length ≤ 2 (length 3 would be slow in aggregate; the prover-based
  // completeness_test covers longer lists).
  prover::Prover pv(m);
  const auto lists = prover::EnumerateLists(universe, 2);
  int checked = 0;
  for (const auto& x : lists) {
    for (const auto& y : lists) {
      const OrderDependency dep(x, y);
      const bool implied = pv.Implies(dep);
      const bool satisfied = Satisfies(table, dep);
      EXPECT_EQ(implied, satisfied)
          << dep.ToString(names) << " implied=" << implied << " under ℳ:\n"
          << m.ToString(names);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
  // The oracle covers the prover's split route to "not implied" too.
  EXPECT_GT(pv.split_refutations(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    SmallTheories, GeneratorCompletenessTest,
    ::testing::Values(
        "[a] -> [b]",
        "[a] -> [b]; [b] -> [c]",
        "[a] ~ [b]",
        "[a] <-> [b]",
        "[] -> [k]; [a] -> [b]",
        "[a] -> [b, c]",
        "[a, b] -> [c]",
        "[a] -> [c]; [b] -> [c]"));

}  // namespace
}  // namespace armstrong
}  // namespace od
