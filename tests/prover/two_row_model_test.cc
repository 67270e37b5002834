#include "prover/two_row_model.h"

#include <random>

#include <gtest/gtest.h>

#include "core/parser.h"
#include "core/witness.h"
#include "prover/closure.h"
#include "prover/prover.h"

namespace od {
namespace prover {
namespace {

AttributeList RandomList(std::mt19937* rng, int attrs, int max_len) {
  std::uniform_int_distribution<int> len(0, max_len);
  std::uniform_int_distribution<int> attr(0, attrs - 1);
  std::vector<AttributeId> out;
  AttributeSet used;
  for (int i = len(*rng); i > 0; --i) {
    const AttributeId a = attr(*rng);
    if (!used.Contains(a)) {
      used.Add(a);
      out.push_back(a);
    }
  }
  return AttributeList(std::move(out));
}

// The abstract sign-vector semantics must agree with the concrete two-row
// relation it denotes, for every OD — this is the correctness core of the
// whole prover.
class AbstractionAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(AbstractionAgreementTest, SignVectorMatchesMaterializedRelation) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> sign(-1, 1);
  const int kAttrs = 5;
  for (int trial = 0; trial < 50; ++trial) {
    SignVector sv(kAttrs);
    for (int a = 0; a < kAttrs; ++a) {
      sv.Set(a, static_cast<Sign>(sign(rng)));
    }
    Relation r = sv.ToRelation();
    for (int q = 0; q < 10; ++q) {
      const OrderDependency dep(RandomList(&rng, kAttrs, 3),
                                RandomList(&rng, kAttrs, 3));
      EXPECT_EQ(sv.Satisfies(dep), Satisfies(r, dep))
          << dep.ToString() << " on σ=" << sv.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AbstractionAgreementTest,
                         ::testing::Range(1, 9));

TEST(TwoRowModelTest, FalsifyingModelContract) {
  NameTable names;
  Parser parser(&names);
  DependencySet m = *parser.ParseSet("[a] -> [b]; [c] ~ [a]");
  const OrderDependency target(AttributeList({names.Lookup("b")}),
                               AttributeList({names.Lookup("c")}));
  auto model = FindFalsifyingModel(m, target, m.Attributes());
  ASSERT_TRUE(model.has_value());
  // Contract: satisfies every OD of ℳ, falsifies the target.
  for (const auto& dep : m.ods()) {
    EXPECT_TRUE(model->Satisfies(dep)) << dep.ToString();
  }
  EXPECT_FALSE(model->Satisfies(target));
}

// The Permutation theorem is deliberately restricted to FD-shaped
// conclusions: permuting the left side of a general OD is UNSOUND, and the
// model search exhibits the counterexample.
TEST(TwoRowModelTest, LhsPermutationUnsoundForGeneralOds) {
  DependencySet m;
  m.Add(AttributeList({0, 1}), AttributeList({2}));  // AB ↦ C
  const OrderDependency permuted(AttributeList({1, 0}),
                                 AttributeList({2}));  // BA ↦ C
  auto model = FindFalsifyingModel(m, permuted, m.Attributes());
  ASSERT_TRUE(model.has_value());
  Relation r = model->ToRelation();
  EXPECT_TRUE(Satisfies(r, m));
  EXPECT_FALSE(Satisfies(r, permuted));
}

// Monotonicity of implication: adding constraints never removes
// consequences.
TEST(TwoRowModelTest, ImplicationMonotoneInConstraints) {
  NameTable names;
  Parser parser(&names);
  DependencySet small = *parser.ParseSet("[a] -> [b]");
  DependencySet big = *parser.ParseSet("[a] -> [b]; [b] -> [c]");
  Prover pv_small(small);
  Prover pv_big(big);
  const auto lists = EnumerateLists(AttributeSet{0, 1, 2}, 2);
  for (const auto& x : lists) {
    for (const auto& y : lists) {
      const OrderDependency dep(x, y);
      if (pv_small.Implies(dep)) {
        EXPECT_TRUE(pv_big.Implies(dep)) << dep.ToString();
      }
    }
  }
}

// Suffix-axiom subtleties. Given A ↦ B, both X ↔ XY and X ↔ YX hold, and
// even AB ↦ B follows (s ≺_A t forces s ≼_B t). Without the premise, none
// of these non-trivial shapes hold — the model semantics keeps the
// asymmetry straight.
TEST(TwoRowModelTest, SuffixShapeEdgeCases) {
  DependencySet m;
  m.Add(AttributeList({0}), AttributeList({1}));  // A ↦ B
  Prover pv(m);
  EXPECT_TRUE(pv.OrderEquivalent(AttributeList({0}), AttributeList({0, 1})));
  EXPECT_TRUE(pv.OrderEquivalent(AttributeList({0}), AttributeList({1, 0})));
  EXPECT_TRUE(pv.Implies(AttributeList({0, 1}), AttributeList({1})));
  // Without the premise, none of these hold.
  Prover empty((DependencySet()));
  EXPECT_FALSE(
      empty.OrderEquivalent(AttributeList({0}), AttributeList({0, 1})));
  EXPECT_FALSE(empty.Implies(AttributeList({0, 1}), AttributeList({1})));
}

TEST(TwoRowModelTest, EmptyTheoryEdgeCases) {
  DependencySet empty;
  // [] ↦ [] is trivially implied; [] ↦ [a] is not.
  Prover pv(empty);
  EXPECT_TRUE(pv.Implies(AttributeList(), AttributeList()));
  EXPECT_FALSE(pv.Implies(AttributeList(), AttributeList({0})));
  // Any X ↦ X and X ↦ [] are trivial.
  EXPECT_TRUE(pv.Implies(AttributeList({3, 1}), AttributeList({3, 1})));
  EXPECT_TRUE(pv.Implies(AttributeList({3, 1}), AttributeList({3})));
}

}  // namespace
}  // namespace prover
}  // namespace od
