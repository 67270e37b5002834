// Incremental re-proving: memo retention across Theory mutations, the
// split stats API, and the churn-sweep search-reduction gate (the prover
// must execute ≥5× fewer model searches than rebuild-from-scratch on a
// 90%-retained add/drop workload — the headline economics of the
// versioned-theory redesign). Counts are deterministic serially, so these
// are exact assertions, not timing-based flakes.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "core/parser.h"
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
  // search flips the answer and re-tags it at the current epoch.
  th->Remove(ab);
  EXPECT_GE(pv.entries_invalidated(), 1);
  EXPECT_FALSE(pv.entry_epoch(q).has_value());
  EXPECT_FALSE(pv.Implies(q));
  EXPECT_EQ(pv.searches_executed(), 2);
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
  EXPECT_EQ(pv.searches_executed(), 1);

  // An unrelated constraint over fresh attributes: the stored countermodel
  // zero-extends to satisfy it, so the negative entry survives the add.
  th->Add(AttributeList({4}), AttributeList({5}));
  EXPECT_FALSE(pv.Implies(q));
  EXPECT_EQ(pv.searches_executed(), 1);
  EXPECT_GE(pv.entries_retained(), 1);

  // A constraint the countermodel violates evicts the entry — and here the
  // answer genuinely flips, which an unsound retention would have missed.
  th->Add(AttributeList({1}), AttributeList({0}));
  EXPECT_TRUE(pv.Implies(q));
  EXPECT_EQ(pv.searches_executed(), 2);
}

TEST(IncrementalProverTest, NegativesAlwaysSurviveRemoves) {
  auto th = std::make_shared<theory::Theory>();
  const auto ab = th->Add(AttributeList({0}), AttributeList({1}));
  th->Add(AttributeList({2}), AttributeList({3}));
  Prover pv(th);
  const OrderDependency q(AttributeList({1}), AttributeList({2}));
  EXPECT_FALSE(pv.Implies(q));
  EXPECT_EQ(pv.searches_executed(), 1);
  th->Remove(ab);
  // ℳ only shrank: the countermodel still works, no re-search.
  EXPECT_FALSE(pv.Implies(q));
  EXPECT_EQ(pv.searches_executed(), 1);
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

TEST(IncrementalProverTest, ChurnSweepExecutesFiveTimesFewerSearches) {
  // The acceptance gate: a 90%-retained churn sweep (each epoch drops one
  // of the ~10 constraints and declares a replacement, then re-answers the
  // full workload) must cost the incremental prover ≥5× fewer executed
  // model searches than rebuilding a prover from scratch at every epoch.
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
    rebuild_searches += rebuilt.searches_executed();
  }

  const int64_t incremental_searches = incremental.searches_executed();
  ASSERT_GT(incremental_searches, 0);  // churn does evict something
  EXPECT_GE(rebuild_searches, 5 * incremental_searches)
      << "incremental=" << incremental_searches
      << " rebuild=" << rebuild_searches;
  // And the two provers agree exactly at the final epoch.
  Prover fresh(th->deps());
  EXPECT_EQ(incremental.ProveAll(queries), fresh.ProveAll(queries));
}

}  // namespace
}  // namespace prover
}  // namespace od
