// Incremental re-proving: memo retention across Theory mutations, the
// split stats API, the churn-sweep miss-reduction gate (the prover must
// take ≥5× fewer memo misses than rebuild-from-scratch on a 90%-retained
// add/drop workload — the headline economics of the versioned-theory
// redesign), and what a sweep reaches through the memo's certificate
// index. Counts are deterministic serially, so these are exact
// assertions, not timing-based flakes.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "core/parser.h"
#include "core/witness.h"
#include "prover/prover.h"
#include "theory/theory.h"

namespace od {
namespace prover {
namespace {

TEST(IncrementalProverTest, StatsSplitAndReset) {
  Prover pv(DependencySet{{OrderDependency(AttributeList({0}),
                                           AttributeList({1}))}});
  const OrderDependency q(AttributeList({0}), AttributeList({1}));
  EXPECT_TRUE(pv.Implies(q));
  EXPECT_EQ(pv.searches_executed(), 1);
  EXPECT_EQ(pv.cache_hits(), 0);
  EXPECT_TRUE(pv.Implies(q));
  EXPECT_EQ(pv.searches_executed(), 1);
  EXPECT_EQ(pv.cache_hits(), 1);
  EXPECT_EQ(pv.memo_size(), 1);
  pv.ResetStats();
  EXPECT_EQ(pv.searches_executed(), 0);
  EXPECT_EQ(pv.cache_hits(), 0);
  EXPECT_EQ(pv.entries_invalidated(), 0);
  EXPECT_EQ(pv.entries_retained(), 0);
  // Resetting stats does not drop the memo.
  EXPECT_EQ(pv.memo_size(), 1);
  EXPECT_TRUE(pv.Implies(q));
  EXPECT_EQ(pv.searches_executed(), 0);
  EXPECT_EQ(pv.cache_hits(), 1);
}

TEST(IncrementalProverTest, PositiveSurvivesIrrelevantRemove) {
  auto th = std::make_shared<theory::Theory>();
  const auto ab = th->Add(AttributeList({0}), AttributeList({1}));
  const auto cd = th->Add(AttributeList({2}), AttributeList({3}));
  Prover pv(th);
  const OrderDependency q(AttributeList({0}), AttributeList({1}));
  EXPECT_TRUE(pv.Implies(q));
  EXPECT_EQ(pv.searches_executed(), 1);

  // [c] ↦ [d] never participated in proving [a] ↦ [b] (the support set
  // records only constraints that rejected candidate models), so dropping
  // it keeps the positive entry: the re-ask is a pure cache hit.
  const uint64_t derived_at = *pv.entry_epoch(q);
  EXPECT_EQ(derived_at, pv.epoch());
  th->Remove(cd);
  EXPECT_TRUE(pv.Implies(q));
  EXPECT_EQ(pv.searches_executed(), 1);
  EXPECT_GE(pv.entries_retained(), 1);
  // Retention keeps the original derivation tag: the entry now provably
  // predates the current catalog version.
  EXPECT_EQ(*pv.entry_epoch(q), derived_at);
  EXPECT_LT(*pv.entry_epoch(q), pv.epoch());

  // Dropping the supporting constraint evicts the entry, and the fresh
  // miss (refuted by the FD split) flips the answer and re-tags it at the
  // current epoch.
  th->Remove(ab);
  EXPECT_GE(pv.entries_invalidated(), 1);
  EXPECT_FALSE(pv.entry_epoch(q).has_value());
  EXPECT_FALSE(pv.Implies(q));
  EXPECT_EQ(pv.searches_executed(), 1);
  EXPECT_EQ(pv.split_refutations(), 1);
  EXPECT_EQ(*pv.entry_epoch(q), pv.epoch());
}

TEST(IncrementalProverTest, PositivesAlwaysSurviveAdds) {
  NameTable names;
  Parser parser(&names);
  auto th = std::make_shared<theory::Theory>(
      *parser.ParseSet("[a] -> [b]; [b] -> [c]"));
  Prover pv(th);
  const OrderDependency q(AttributeList({names.Lookup("a")}),
                          AttributeList({names.Lookup("c")}));
  EXPECT_TRUE(pv.Implies(q));
  const int64_t searches = pv.searches_executed();
  // Implication is monotone in ℳ: any add preserves every positive.
  th->Add(AttributeList({names.Lookup("c")}),
          AttributeList({names.Lookup("a")}));
  EXPECT_TRUE(pv.Implies(q));
  EXPECT_EQ(pv.searches_executed(), searches);
}

TEST(IncrementalProverTest, NegativeSurvivesCompatibleAdd) {
  auto th = std::make_shared<theory::Theory>();
  th->Add(AttributeList({0}), AttributeList({1}));
  Prover pv(th);
  const OrderDependency q(AttributeList({1}), AttributeList({0}));
  EXPECT_FALSE(pv.Implies(q));
  EXPECT_EQ(pv.split_refutations(), 1);

  // An unrelated constraint over fresh attributes: the stored countermodel
  // zero-extends to satisfy it, so the negative entry survives the add.
  th->Add(AttributeList({4}), AttributeList({5}));
  EXPECT_FALSE(pv.Implies(q));
  EXPECT_EQ(pv.split_refutations(), 1);
  EXPECT_GE(pv.entries_retained(), 1);

  // A constraint the countermodel violates evicts the entry — and here the
  // answer genuinely flips, which an unsound retention would have missed.
  // The split now holds, so the fresh miss searches.
  th->Add(AttributeList({1}), AttributeList({0}));
  EXPECT_TRUE(pv.Implies(q));
  EXPECT_EQ(pv.split_refutations(), 1);
  EXPECT_EQ(pv.searches_executed(), 1);
}

TEST(IncrementalProverTest, NegativesAlwaysSurviveRemoves) {
  auto th = std::make_shared<theory::Theory>();
  const auto ab = th->Add(AttributeList({0}), AttributeList({1}));
  th->Add(AttributeList({2}), AttributeList({3}));
  Prover pv(th);
  const OrderDependency q(AttributeList({1}), AttributeList({2}));
  EXPECT_FALSE(pv.Implies(q));
  EXPECT_EQ(pv.split_refutations(), 1);
  th->Remove(ab);
  // ℳ only shrank: the countermodel still works, no re-derivation.
  EXPECT_FALSE(pv.Implies(q));
  EXPECT_EQ(pv.split_refutations(), 1);
  EXPECT_EQ(pv.cache_hits(), 1);
}

TEST(IncrementalProverTest, EpochTracksTheory) {
  auto th = std::make_shared<theory::Theory>();
  Prover pv(th);
  EXPECT_EQ(pv.epoch(), 0u);
  const auto id = th->Add(AttributeList({0}), AttributeList({1}));
  EXPECT_EQ(pv.epoch(), 1u);
  th->Remove(id);
  EXPECT_EQ(pv.epoch(), 2u);
}

TEST(IncrementalProverTest, ProversShareOneTheory) {
  auto th = std::make_shared<theory::Theory>();
  th->Add(AttributeList({0}), AttributeList({1}));
  Prover first(th);
  Prover second(th);
  const OrderDependency q(AttributeList({0}), AttributeList({1}));
  EXPECT_TRUE(first.Implies(q));
  EXPECT_TRUE(second.Implies(q));
  th->RemoveOne(OrderDependency(AttributeList({0}), AttributeList({1})));
  // Both provers observed the removal through the change feed.
  EXPECT_FALSE(first.Implies(q));
  EXPECT_FALSE(second.Implies(q));
}

/// The chain theory and dense pair workload of bench_incremental_prover,
/// scaled for a unit test.
DependencySet ChainTheory(int n) {
  DependencySet m;
  for (int i = 0; i + 1 < n; ++i) {
    m.Add(AttributeList({i}), AttributeList({i + 1}));
  }
  return m;
}

std::vector<OrderDependency> PairQueries(int n) {
  std::vector<OrderDependency> queries;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      queries.emplace_back(AttributeList({i}), AttributeList({j}));
      queries.emplace_back(AttributeList({i}),
                           AttributeList({j, (j + 1) % n}));
    }
  }
  return queries;
}

/// Memo misses: the model searches plus the misses the FD split refuted.
int64_t Misses(const Prover& pv) {
  return pv.searches_executed() + pv.split_refutations();
}

TEST(IncrementalProverTest, ChurnSweepExecutesFiveTimesFewerSearches) {
  // The acceptance gate: a 90%-retained churn sweep (each epoch drops one
  // of the ~10 constraints and declares a replacement, then re-answers the
  // full workload) must cost the incremental prover ≥5× fewer memo misses
  // than rebuilding a prover from scratch at every epoch.
  const int n = 11;
  const int kEpochs = 25;
  std::mt19937 rng(7);
  auto th = std::make_shared<theory::Theory>(ChainTheory(n));
  Prover incremental(th);
  const std::vector<OrderDependency> queries = PairQueries(n);

  incremental.ProveAll(queries);  // warm: the steady-state starting point
  incremental.ResetStats();

  int64_t rebuild_searches = 0;
  for (int e = 0; e < kEpochs; ++e) {
    // Drop a random live constraint, declare a replacement elsewhere.
    std::uniform_int_distribution<int> pick(0, th->Size() - 1);
    const auto victim_index = pick(rng);
    const OrderDependency victim = th->deps()[victim_index];
    th->Remove(th->ids()[victim_index]);
    th->Add(victim);  // re-declared: 90% of the catalog never moved

    incremental.ProveAll(queries);

    Prover rebuilt(th->deps());
    rebuilt.ProveAll(queries);
    rebuild_searches += Misses(rebuilt);
  }

  const int64_t incremental_searches = Misses(incremental);
  ASSERT_GT(incremental_searches, 0);  // churn does evict something
  EXPECT_GE(rebuild_searches, 5 * incremental_searches)
      << "incremental=" << incremental_searches
      << " rebuild=" << rebuild_searches;
  // And the two provers agree exactly at the final epoch.
  Prover fresh(th->deps());
  EXPECT_EQ(incremental.ProveAll(queries), fresh.ProveAll(queries));
}

/// A warmed chain-theory memo and its answer split, for the sweep-reach
/// tests: every query is a distinct open-ended entry.
struct WarmMemo {
  std::vector<OrderDependency> queries;
  std::vector<OrderDependency> negatives;
  int64_t positives = 0;
};

WarmMemo Warm(Prover& pv, int n) {
  WarmMemo warm;
  warm.queries = PairQueries(n);
  const std::vector<bool> answers = pv.ProveAll(warm.queries);
  for (size_t i = 0; i < answers.size(); ++i) {
    if (answers[i]) {
      ++warm.positives;
    } else {
      warm.negatives.push_back(warm.queries[i]);
    }
  }
  EXPECT_EQ(pv.memo_size(), static_cast<int64_t>(warm.queries.size()));
  pv.ResetStats();
  return warm;
}

/// Whether the stored countermodel for negative `q` orders attribute `a`,
/// read back through Counterexample (a memo hit, no search).
bool CountermodelOrders(const Prover& pv, const OrderDependency& q,
                        AttributeId a) {
  const std::optional<Relation> model = pv.Counterexample(q);
  EXPECT_TRUE(model.has_value()) << q.ToString();
  return model && !(model->At(0, a) == model->At(1, a));
}

TEST(IncrementalProverTest, AddNoCountermodelOrdersReachesNothing) {
  const int n = 6;
  auto th = std::make_shared<theory::Theory>(ChainTheory(n));
  Prover pv(th);
  const WarmMemo warm = Warm(pv, n);
  const int64_t negatives = static_cast<int64_t>(warm.negatives.size());
  ASSERT_GT(negatives, 0);
  ASSERT_GT(warm.positives, 0);

  // Attribute 7 is outside every countermodel, so no stored negative can
  // violate a constraint ordering it: the sweep looks at nothing, yet
  // reports what a walk of every entry would.
  th->Add(AttributeList({0}), AttributeList({7}));
  EXPECT_EQ(pv.last_sweep_reached(), 0);
  EXPECT_EQ(pv.entries_invalidated(), 0);
  EXPECT_EQ(pv.entries_retained(), negatives);
  EXPECT_EQ(pv.last_sweep_kept(), negatives + warm.positives);
  EXPECT_EQ(pv.memo_size(), negatives + warm.positives);
  pv.ProveAll(warm.queries);
  EXPECT_EQ(pv.searches_executed(), 0);
  EXPECT_EQ(pv.split_refutations(), 0);
}

TEST(IncrementalProverTest, RemoveNoSupportNamesReachesNothing) {
  const int n = 6;
  DependencySet m = ChainTheory(n);
  m.Add(AttributeList({8}), AttributeList({9}));
  auto th = std::make_shared<theory::Theory>(m);
  Prover pv(th);
  const WarmMemo warm = Warm(pv, n);
  const int64_t negatives = static_cast<int64_t>(warm.negatives.size());
  ASSERT_GT(warm.positives, 0);

  // [8] ↦ [9] shares no attribute with the chain queries, so no support
  // names it.
  th->Remove(th->ids().back());
  EXPECT_EQ(pv.last_sweep_reached(), 0);
  EXPECT_EQ(pv.entries_invalidated(), 0);
  EXPECT_EQ(pv.entries_retained(), warm.positives);
  EXPECT_EQ(pv.last_sweep_kept(), negatives + warm.positives);

  // A chain link is named: the sweep reaches exactly the positives whose
  // support names it and evicts each of them.
  pv.ResetStats();
  th->Remove(th->ids()[2]);
  const int64_t evicted = pv.entries_invalidated();
  EXPECT_GT(evicted, 0);
  EXPECT_EQ(pv.last_sweep_reached(), evicted);
  EXPECT_EQ(pv.entries_retained(), warm.positives - evicted);
  EXPECT_EQ(pv.last_sweep_kept(), negatives + warm.positives - evicted);
  Prover fresh(th->deps());
  EXPECT_EQ(pv.ProveAll(warm.queries), fresh.ProveAll(warm.queries));
}

/// Adds `c` to a warmed chain memo and checks the sweep against an
/// independent count: it reaches exactly the negatives whose countermodel
/// orders `ordered`, each once, and evicts exactly those whose
/// countermodel violates `c`.
void ExpectAddReachesOrderingNegatives(const OrderDependency& c,
                                       AttributeId ordered) {
  const int n = 6;
  auto th = std::make_shared<theory::Theory>(ChainTheory(n));
  Prover pv(th);
  const WarmMemo warm = Warm(pv, n);
  const int64_t negatives = static_cast<int64_t>(warm.negatives.size());
  int64_t reachable = 0;
  int64_t violated = 0;
  for (const OrderDependency& q : warm.negatives) {
    if (!CountermodelOrders(pv, q, ordered)) continue;
    ++reachable;
    if (!Satisfies(*pv.Counterexample(q), c)) ++violated;
  }
  ASSERT_GT(violated, 0);
  ASSERT_LT(violated, reachable);   // survivors would show a second visit
  ASSERT_LT(reachable, negatives);  // the index must actually narrow
  pv.ResetStats();

  th->Add(c);
  EXPECT_EQ(pv.last_sweep_reached(), reachable);
  EXPECT_EQ(pv.entries_invalidated(), violated);
  EXPECT_EQ(pv.entries_retained(), negatives - violated);
  EXPECT_EQ(pv.last_sweep_kept(), negatives + warm.positives - violated);
  EXPECT_EQ(pv.memo_size(), negatives + warm.positives - violated);
  Prover fresh(th->deps());
  EXPECT_EQ(pv.ProveAll(warm.queries), fresh.ProveAll(warm.queries));
}

TEST(IncrementalProverTest, AddReachesExactlyTheNegativesOrderingItsRhs) {
  ExpectAddReachesOrderingNegatives(
      OrderDependency(AttributeList({3}), AttributeList({2})), 2);
}

TEST(IncrementalProverTest, AddWithRepeatedRhsAttributeEvictsEachOnce) {
  // Nothing rejects a repeated attribute in a list; the sweep must still
  // visit, and evict, each reached negative once.
  ExpectAddReachesOrderingNegatives(
      OrderDependency(AttributeList({3}), AttributeList({2, 2})), 2);
}

TEST(IncrementalProverTest, SplitCountermodelsLeaveUnqueriedAttributesEqual) {
  // ODs over four attributes (8-11) that no query mentions, like
  // implies_churn's churning attributes. Every chain query [i] ↦ [j] with
  // j < i fails the FD split. Its countermodel's zero set grows past
  // closure({i}) to take in 8-11, whose closures never reach j, so an Add
  // with its right side among them reaches none of these negatives. With
  // Z = closure({i}) alone each countermodel would order all four.
  const int n = 6;
  DependencySet m = ChainTheory(n);
  m.Add(AttributeList({8}), AttributeList({9}));
  m.Add(AttributeList({9, 10}), AttributeList({11}));
  m.Add(AttributeList({11}), AttributeList({10, 8}));
  auto th = std::make_shared<theory::Theory>(m);
  Prover pv(th);
  int64_t refuted = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < i; ++j) {
      EXPECT_FALSE(pv.Implies(AttributeList({i}), AttributeList({j})));
      ++refuted;
    }
  }
  EXPECT_EQ(pv.split_refutations(), refuted);
  EXPECT_EQ(pv.searches_executed(), 0);

  th->Add(AttributeList({9}), AttributeList({11, 10}));
  EXPECT_EQ(pv.last_sweep_reached(), 0);
  EXPECT_EQ(pv.entries_invalidated(), 0);
  EXPECT_EQ(pv.last_sweep_kept(), refuted);
}

TEST(IncrementalProverTest, AnswersStoredBehindTheHeadDropAtTheNextSweep) {
  auto th = std::make_shared<theory::Theory>();
  th->Add(AttributeList({0}), AttributeList({1}));
  Prover owner(th);
  const auto e0 = th->Snapshot();
  th->Add(AttributeList({2}), AttributeList({3}));
  Prover behind(e0, owner);
  const OrderDependency q(AttributeList({0}), AttributeList({1}));
  EXPECT_TRUE(behind.Implies(q));
  EXPECT_EQ(owner.memo_size(), 1);
  EXPECT_FALSE(owner.entry_epoch(q).has_value());  // holds at e0 only

  // Never checked against a later catalog, so the next sweep drops it
  // without looking at it and without counting it as evicted.
  th->Add(AttributeList({4}), AttributeList({5}));
  EXPECT_EQ(owner.memo_size(), 0);
  EXPECT_EQ(owner.last_sweep_reached(), 0);
  EXPECT_EQ(owner.last_sweep_kept(), 0);
  EXPECT_EQ(owner.entries_invalidated(), 0);
}

}  // namespace
}  // namespace prover
}  // namespace od
