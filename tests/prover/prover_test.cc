#include "prover/prover.h"

#include <gtest/gtest.h>

#include "core/parser.h"
#include "core/witness.h"
#include "prover/closure.h"
#include "prover/two_row_model.h"

namespace od {
namespace prover {
namespace {

DependencySet Parse(NameTable* names, const std::string& text) {
  Parser parser(names);
  auto set = parser.ParseSet(text);
  EXPECT_TRUE(set.has_value()) << parser.error();
  return *set;
}

TEST(SignVectorTest, CompareAndSatisfy) {
  SignVector sv(3);
  sv.Set(0, 0);
  sv.Set(1, 1);
  sv.Set(2, -1);
  EXPECT_EQ(sv.CompareOnList(AttributeList({0})), 0);
  EXPECT_EQ(sv.CompareOnList(AttributeList({0, 1})), 1);
  EXPECT_EQ(sv.CompareOnList(AttributeList({0, 2, 1})), -1);
  // B ascends, C descends: B ↦ C is a swap violation.
  EXPECT_FALSE(sv.Satisfies(OrderDependency(AttributeList({1}),
                                            AttributeList({2}))));
  // A is constant across the rows: A ↦ B is split-violated.
  EXPECT_FALSE(sv.Satisfies(OrderDependency(AttributeList({0}),
                                            AttributeList({1}))));
  // B ↦ BA holds (equal A after equal B... B never equal).
  EXPECT_TRUE(sv.Satisfies(OrderDependency(AttributeList({1}),
                                           AttributeList({1, 0}))));
  // The materialized relation agrees with the abstract semantics.
  Relation r = sv.ToRelation();
  EXPECT_FALSE(Satisfies(r, OrderDependency(AttributeList({1}),
                                            AttributeList({2}))));
  EXPECT_TRUE(Satisfies(r, OrderDependency(AttributeList({1}),
                                           AttributeList({1, 0}))));
}

TEST(ProverTest, TrivialAndReflexive) {
  Prover pv((DependencySet()));
  // X ↦ [] and XY ↦ X hold vacuously / by reflexivity.
  EXPECT_TRUE(pv.Implies(AttributeList({0}), AttributeList()));
  EXPECT_TRUE(pv.Implies(AttributeList({0, 1}), AttributeList({0})));
  EXPECT_FALSE(pv.Implies(AttributeList({0}), AttributeList({1})));
  // [] ↦ X does not hold unless X is constant.
  EXPECT_FALSE(pv.Implies(AttributeList(), AttributeList({0})));
}

TEST(ProverTest, TransitivityAndSuffix) {
  NameTable names;
  Prover pv(Parse(&names, "[a] -> [b]; [b] -> [c]"));
  const AttributeId a = names.Lookup("a");
  const AttributeId b = names.Lookup("b");
  const AttributeId c = names.Lookup("c");
  EXPECT_TRUE(pv.Implies(AttributeList({a}), AttributeList({c})));
  // Suffix: X ↔ YX.
  EXPECT_TRUE(pv.OrderEquivalent(AttributeList({a}), AttributeList({b, a})));
  // The converse direction does not follow.
  EXPECT_FALSE(pv.Implies(AttributeList({c}), AttributeList({a})));
}

TEST(ProverTest, PaperExample5TaxSchedule) {
  // Example 5: [income] ↦ [bracket] and [income] ↦ [tax] entail
  // [income] ↦ [bracket, tax] (Union / Theorem 2).
  NameTable names;
  Prover pv(Parse(&names, "[income] -> [bracket]; [income] -> [tax]"));
  auto income = AttributeList({names.Lookup("income")});
  auto both = AttributeList(
      {names.Lookup("bracket"), names.Lookup("tax")});
  EXPECT_TRUE(pv.Implies(income, both));
}

TEST(ProverTest, Example1QuarterElimination) {
  // Example 1: given [month] ↦ [quarter], the order-by
  // [year, quarter, month] is equivalent to [year, month]
  // (Theorem 8, Left Eliminate).
  NameTable names;
  Prover pv(Parse(&names, "[month] -> [quarter]"));
  const AttributeId year = names.Intern("year");
  const AttributeId quarter = names.Lookup("quarter");
  const AttributeId month = names.Lookup("month");
  EXPECT_TRUE(pv.OrderEquivalent(AttributeList({year, quarter, month}),
                                 AttributeList({year, month})));
  // And year, month, quarter likewise reduces (Theorem 7, Eliminate).
  EXPECT_TRUE(pv.OrderEquivalent(AttributeList({year, month, quarter}),
                                 AttributeList({year, month})));
  // But quarter alone does not order month.
  EXPECT_FALSE(pv.Implies(AttributeList({quarter}), AttributeList({month})));
}

TEST(ProverTest, ListSensitivity) {
  // ODs are list-based: D ↦ B lets ABD reduce to AD, but ABCD cannot
  // reduce to ACD (Section 2.3 discussion).
  NameTable names;
  Prover pv(Parse(&names, "[d] -> [b]"));
  const AttributeId a = names.Intern("a");
  const AttributeId b = names.Lookup("b");
  const AttributeId c = names.Intern("c");
  const AttributeId d = names.Lookup("d");
  EXPECT_TRUE(pv.OrderEquivalent(AttributeList({a, b, d}),
                                 AttributeList({a, d})));
  EXPECT_FALSE(pv.OrderEquivalent(AttributeList({a, b, c, d}),
                                  AttributeList({a, c, d})));
}

TEST(ProverTest, ConstantsDetection) {
  NameTable names;
  Prover pv(Parse(&names, "[] -> [k]; [a] -> [b]"));
  EXPECT_TRUE(pv.IsConstant(names.Lookup("k")));
  EXPECT_FALSE(pv.IsConstant(names.Lookup("a")));
  EXPECT_EQ(pv.Constants(), AttributeSet{names.Lookup("k")});
}

TEST(ProverTest, FdProjectionAgreesOnSplits) {
  NameTable names;
  Prover pv(Parse(&names, "[a] -> [b]; [b, c] -> [d]"));
  const AttributeId a = names.Lookup("a");
  const AttributeId c = names.Lookup("c");
  const AttributeId d = names.Lookup("d");
  EXPECT_TRUE(pv.ImpliesFd(AttributeSet{a, c}, AttributeSet{d}));
  EXPECT_FALSE(pv.ImpliesFd(AttributeSet{a}, AttributeSet{d}));
  // FD-shaped OD implication must agree with the FD projection
  // (Theorem 16: ODs are complete over FDs).
  EXPECT_TRUE(pv.Implies(AttributeList({a, c}),
                         AttributeList({a, c, d})));
  EXPECT_FALSE(pv.Implies(AttributeList({a}), AttributeList({a, d})));
}

TEST(ProverTest, CounterexampleIsConsistentAndFalsifying) {
  NameTable names;
  DependencySet m = Parse(&names, "[a] -> [b]");
  Prover pv(m);
  const OrderDependency target(AttributeList({names.Lookup("b")}),
                               AttributeList({names.Lookup("a")}));
  auto cex = pv.Counterexample(target);
  ASSERT_TRUE(cex.has_value());
  EXPECT_TRUE(Satisfies(*cex, m));
  EXPECT_FALSE(Satisfies(*cex, target));
  // No counterexample for an implied OD.
  EXPECT_FALSE(pv.Counterexample(OrderDependency(
                                     AttributeList({names.Lookup("a")}),
                                     AttributeList({names.Lookup("b")})))
                   .has_value());
}

TEST(ProverTest, CounterexampleSharesTheMemo) {
  NameTable names;
  Prover pv(Parse(&names, "[a] -> [b]"));
  const AttributeId a = names.Lookup("a");
  const AttributeId b = names.Lookup("b");
  const OrderDependency implied(AttributeList({a}), AttributeList({b}));
  const OrderDependency refuted(AttributeList({b}), AttributeList({a}));

  // A cached "implied" answers Counterexample with no extra search.
  EXPECT_TRUE(pv.Implies(implied));
  EXPECT_EQ(pv.searches_executed(), 1);
  EXPECT_FALSE(pv.Counterexample(implied).has_value());
  EXPECT_EQ(pv.searches_executed(), 1);

  // A cached "not implied" stores the falsifying model itself: the
  // Counterexample call materializes it as a cache hit, no extra search.
  // [b] ↦ [a] fails the FD split, so its miss refutes without a search.
  EXPECT_FALSE(pv.Implies(refuted));
  EXPECT_EQ(pv.searches_executed(), 1);
  EXPECT_EQ(pv.split_refutations(), 1);
  auto cex = pv.Counterexample(refuted);
  ASSERT_TRUE(cex.has_value());
  EXPECT_EQ(pv.searches_executed(), 1);
  EXPECT_EQ(pv.split_refutations(), 1);
  EXPECT_EQ(pv.cache_hits(), 2);  // the implied probe above, plus this one
  // The cached model is a genuine countermexample: satisfies ℳ, breaks dep.
  EXPECT_TRUE(Satisfies(*cex, pv.deps()));
  EXPECT_FALSE(Satisfies(*cex, refuted));
}

TEST(ProverTest, CounterexamplePopulatesTheMemo) {
  NameTable names;
  Prover pv(Parse(&names, "[a] -> [b]"));
  const OrderDependency refuted(AttributeList({names.Lookup("b")}),
                                AttributeList({names.Lookup("a")}));
  // Counterexample first: one miss (refuted by the FD split), and the
  // boolean lands in the memo so the subsequent Implies is a pure lookup.
  EXPECT_TRUE(pv.Counterexample(refuted).has_value());
  EXPECT_EQ(pv.split_refutations(), 1);
  EXPECT_FALSE(pv.Implies(refuted));
  EXPECT_EQ(pv.split_refutations(), 1);
  EXPECT_EQ(pv.cache_hits(), 1);
}

TEST(ProverTest, ConstantsShortCircuitThroughFdProjection) {
  // Every attribute of ℳ is constant by the FD projection alone (∅ → k,
  // ∅ → j via transitivity through k): Constants() must not run a single
  // model search.
  NameTable names;
  Prover pv(Parse(&names, "[] -> [k]; [k] -> [j]"));
  EXPECT_EQ(pv.Constants(),
            (AttributeSet{names.Lookup("k"), names.Lookup("j")}));
  EXPECT_EQ(pv.searches_executed(), 0);
  // And the seeded memo answers the equivalent Implies without searching.
  EXPECT_TRUE(pv.Implies(AttributeList::EmptyList(),
                         AttributeList({names.Lookup("k")})));
  EXPECT_EQ(pv.searches_executed(), 0);
}

TEST(ProverTest, EmptyTheoryConstantsNeedNoSearch) {
  Prover pv((DependencySet()));
  EXPECT_FALSE(pv.IsConstant(0));
  EXPECT_TRUE(pv.Constants().IsEmpty());
  EXPECT_EQ(pv.searches_executed(), 0);
}

TEST(ProverTest, FdConstantStillFallsBackForNonConstants) {
  // k is FD-constant; a is not constant at all. The FD split decides both
  // constancy questions, but a query it leaves open — its FD holds, so
  // only the swap side is in doubt — must still run the search (and
  // answer correctly).
  NameTable names;
  Prover pv(Parse(&names, "[] -> [k]; [a] -> [b]"));
  const AttributeId a = names.Lookup("a");
  const AttributeId b = names.Lookup("b");
  const AttributeId k = names.Lookup("k");
  EXPECT_TRUE(pv.IsConstant(k));
  EXPECT_EQ(pv.searches_executed(), 0);
  EXPECT_FALSE(pv.IsConstant(a));
  EXPECT_EQ(pv.searches_executed(), 0);
  EXPECT_EQ(pv.split_refutations(), 1);
  EXPECT_TRUE(pv.Implies(AttributeList({a}), AttributeList({k, b})));
  EXPECT_EQ(pv.searches_executed(), 1);
}

TEST(ProverTest, OrderCompatibilityDefinition) {
  // A ~ B alone (no other constraints) is NOT valid: a swap falsifies it.
  Prover empty((DependencySet()));
  EXPECT_FALSE(empty.OrderCompatible(AttributeList({0}), AttributeList({1})));
  // But any X is compatible with itself and with [].
  EXPECT_TRUE(empty.OrderCompatible(AttributeList({0}), AttributeList({0})));
  EXPECT_TRUE(empty.OrderCompatible(AttributeList({0}), AttributeList()));
}

TEST(ProverTest, PinnedModelSearch) {
  NameTable names;
  DependencySet m = Parse(&names, "[a] ~ [b]");
  // With A ~ B prescribed, no model has A and B swapped.
  auto swap = FindModelWithSigns(
      m, m.Attributes(),
      {{names.Lookup("a"), Sign{1}}, {names.Lookup("b"), Sign{-1}}});
  EXPECT_FALSE(swap.has_value());
  // Both ascending is fine.
  auto asc = FindModelWithSigns(
      m, m.Attributes(),
      {{names.Lookup("a"), Sign{1}}, {names.Lookup("b"), Sign{1}}});
  EXPECT_TRUE(asc.has_value());
}

TEST(ClosureTest, EnumerateLists) {
  auto lists = EnumerateLists(AttributeSet{0, 1}, 2);
  // [], [0], [1], [0,1], [1,0]
  EXPECT_EQ(lists.size(), 5u);
  auto lists3 = EnumerateLists(AttributeSet{0, 1, 2}, 2);
  // [] + 3 singletons + 6 ordered pairs.
  EXPECT_EQ(lists3.size(), 10u);
}

TEST(ClosureTest, BoundedClosureContainsAxiomInstances) {
  NameTable names;
  Prover pv(Parse(&names, "[a] -> [b]"));
  auto closure = BoundedClosure(pv, AttributeSet{0, 1}, 2);
  auto contains = [&closure](const OrderDependency& dep) {
    for (const auto& d : closure) {
      if (d == dep) return true;
    }
    return false;
  };
  const AttributeId a = names.Lookup("a");
  const AttributeId b = names.Lookup("b");
  EXPECT_TRUE(contains(OrderDependency(AttributeList({a}),
                                       AttributeList({b}))));
  // Suffix consequence: X ↔ YX.
  EXPECT_TRUE(contains(OrderDependency(AttributeList({a}),
                                       AttributeList({b, a}))));
  EXPECT_TRUE(contains(OrderDependency(AttributeList({b, a}),
                                       AttributeList({a}))));
  // Non-consequence.
  EXPECT_FALSE(contains(OrderDependency(AttributeList({b}),
                                        AttributeList({a}))));
}

}  // namespace
}  // namespace prover
}  // namespace od
