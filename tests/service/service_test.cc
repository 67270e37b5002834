// Functional suite for the multi-tenant OD service: session pinning and
// snapshot isolation, the tenant memo and its epoch windows, retention
// across publications, concurrent cold queries, planning against pinned
// snapshots, tenant isolation, and per-tenant labeled metrics
// round-tripping through both exporters.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/witness.h"
#include "engine/index.h"
#include "engine/ops.h"
#include "engine/table.h"
#include "service/service.h"
#include "warehouse/queries.h"
#include "warehouse/tax_schedule.h"

namespace od {
namespace service {
namespace {

AttributeList L(std::initializer_list<AttributeId> attrs) {
  AttributeList list;
  for (AttributeId a : attrs) list = list.Append(a);
  return list;
}

OrderDependency Od(std::initializer_list<AttributeId> lhs,
                   std::initializer_list<AttributeId> rhs) {
  return OrderDependency(L(lhs), L(rhs));
}

common::Counter& PublishesOf(const std::string& tenant) {
  return common::MetricRegistry::Global().GetCounter(
      "od_service_publishes_total", "", common::FormatLabel("tenant", tenant));
}

TEST(ServiceTest, TenantLifecycle) {
  Server server;
  EXPECT_FALSE(server.HasTenant("acme"));
  server.CreateTenant("acme");
  EXPECT_TRUE(server.HasTenant("acme"));
  server.Add("acme", Od({0}, {1}));
  server.Add("acme", Od({1}, {2}));

  // A rejected duplicate publishes and records nothing: the live tenant's
  // labeled series (keyed by the name) keep their values.
  const common::Gauge& published_epoch =
      common::MetricRegistry::Global().GetGauge(
          "od_service_published_epoch", "",
          common::FormatLabel("tenant", "acme"));
  const int64_t publishes = PublishesOf("acme").Value();
  ASSERT_EQ(published_epoch.Value(), 2);
  EXPECT_THROW(server.CreateTenant("acme"), std::invalid_argument);
  EXPECT_EQ(published_epoch.Value(), 2);
  EXPECT_EQ(PublishesOf("acme").Value() - publishes, 0);
  EXPECT_EQ(server.PublishedEpoch("acme"), 2u);

  EXPECT_THROW(server.OpenSession("nobody"), std::out_of_range);
  EXPECT_THROW(server.Add("nobody", Od({0}, {1})), std::out_of_range);
  server.CreateTenant("globex");
  EXPECT_EQ(server.Tenants(), (std::vector<std::string>{"acme", "globex"}));

  // Callers racing to create one name: one wins and publishes once.
  const int64_t raced = PublishesOf("initech").Value();
  std::atomic<int> created{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> callers;
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&] {
      try {
        server.CreateTenant("initech");
        created.fetch_add(1);
      } catch (const std::invalid_argument&) {
        rejected.fetch_add(1);
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(created.load(), 1);
  EXPECT_EQ(rejected.load(), 3);
  EXPECT_EQ(PublishesOf("initech").Value() - raced, 1);
}

TEST(ServiceTest, PublicationHandsTheCatalogValueToTheEpochProver) {
  Server server;
  server.CreateTenant("t");
  server.Apply("t", {Mutation::Add(Od({0}, {1})), Mutation::Add(Od({1}, {2}))});
  Session s = server.OpenSession("t");
  // The epoch prover reads the very value the writer published: no copy.
  EXPECT_EQ(&server.Catalog("t")->deps, &s.pinned_prover().deps());
  EXPECT_EQ(&s.snapshot(), server.Catalog("t").get());

  // The writer's next edit copies the value; the pinned one stays intact.
  const theory::TheorySnapshot pinned = s.snapshot();
  server.Add("t", Od({2}, {3}));
  EXPECT_EQ(s.snapshot(), pinned);
  EXPECT_EQ(&s.snapshot().deps, &s.pinned_prover().deps());
  EXPECT_NE(&server.Catalog("t")->deps, &s.pinned_prover().deps());
}

TEST(ServiceTest, SessionPinsEpochUntilRefresh) {
  Server server;
  server.CreateTenant("t");
  server.Add("t", Od({0}, {1}));

  Session s = server.OpenSession("t");
  const uint64_t pinned = s.epoch();
  EXPECT_EQ(pinned, server.PublishedEpoch("t"));

  // [a] -> [b], so [a] -> [b] holds but [b] -> [c] does not (yet).
  EXPECT_TRUE(s.Implies(Od({0}, {1})));
  EXPECT_FALSE(s.Implies(Od({1}, {2})));

  // The writer moves on; the pinned session must not see it.
  server.Add("t", Od({1}, {2}));
  EXPECT_EQ(s.epoch(), pinned);
  EXPECT_FALSE(s.Implies(Od({1}, {2})))
      << "session leaked a post-pin mutation";
  EXPECT_FALSE(s.Implies(Od({0}, {2})));
  auto cex = s.Counterexample(Od({1}, {2}));
  ASSERT_TRUE(cex.has_value());

  // Refresh re-pins to the latest epoch and the answers flip.
  s.Refresh();
  EXPECT_GT(s.epoch(), pinned);
  EXPECT_TRUE(s.Implies(Od({1}, {2})));
  EXPECT_TRUE(s.Implies(Od({0}, {2}))) << "transitivity at the new epoch";
}

TEST(ServiceTest, SessionsShareTheEpochMemo) {
  Server server;
  server.CreateTenant("t");
  server.Add("t", Od({0}, {1}));
  server.Add("t", Od({1}, {2}));

  Session a = server.OpenSession("t");
  Session b = server.OpenSession("t");
  ASSERT_EQ(a.epoch(), b.epoch());
  ASSERT_EQ(&a.pinned_prover(), &b.pinned_prover())
      << "same (tenant, epoch) must share one prover";

  const OrderDependency q = Od({0}, {2});
  const int64_t searches_before = a.pinned_prover().searches_executed();
  EXPECT_TRUE(a.Implies(q));
  const int64_t searches_after_first = a.pinned_prover().searches_executed();
  EXPECT_GT(searches_after_first, searches_before);

  // Session b asks the same question: memo hit, zero new searches.
  EXPECT_TRUE(b.Implies(q));
  EXPECT_EQ(a.pinned_prover().searches_executed(), searches_after_first);
  EXPECT_GT(a.pinned_prover().cache_hits(), 0);
}

TEST(ServiceTest, PublicationCarriesMemoAcrossEpochs) {
  // The retention loop end to end: answers computed by sessions at epoch E
  // land in the tenant memo, survive the mutation sweeps by certificate,
  // and stay open-ended — so a re-ask at epoch E+1 is a memo hit, not a
  // search.
  Server server;
  server.CreateTenant("t");
  server.Add("t", Od({0}, {1}));
  server.Add("t", Od({1}, {2}));

  Session s = server.OpenSession("t");
  // Three positives (Add-stable by monotonicity) and one negative whose
  // countermodel never touches attributes 3/4 (zero-extension keeps it a
  // countermodel after the Add below).
  std::vector<OrderDependency> qs = {Od({0}, {2}), Od({0}, {1}),
                                     Od({1}, {2}), Od({2}, {0})};
  s.ProveAll(qs);
  EXPECT_GE(server.Stats("t").epoch_memo_size, 4);

  ApplyResult r = server.Apply("t", {Mutation::Add(Od({3}, {4}))});
  EXPECT_EQ(r.added.size(), 1u);
  EXPECT_EQ(r.epoch, server.PublishedEpoch("t"));
  EXPECT_GE(r.memo_seeded, 4) << "retention lost the warmed answers";
  TenantStats st = server.Stats("t");
  EXPECT_EQ(r.memo_seeded, st.epoch_memo_size);
  EXPECT_EQ(st.memo_invalidated, 0);

  // Re-ask at the new epoch: every warmed answer comes from the tenant
  // memo — no memo miss on the fresh epoch prover: neither a model search
  // nor an FD-split refutation (a lost [2] ↦ [0] would be the latter).
  s.Refresh();
  EXPECT_EQ(s.epoch(), r.epoch);
  const int64_t searches_before = s.pinned_prover().searches_executed();
  const int64_t split_before = s.pinned_prover().split_refutations();
  EXPECT_EQ(s.ProveAll(qs), (std::vector<bool>{true, true, true, false}));
  EXPECT_EQ(s.pinned_prover().searches_executed(), searches_before)
      << "seeded answers were re-searched";
  EXPECT_EQ(s.pinned_prover().split_refutations(), split_before)
      << "a seeded negative was re-refuted";
  EXPECT_TRUE(s.Implies(Od({3}, {4}))) << "new constraint reachable";
}

// The three tests below pin the memo's epoch windows: the first two fail
// if a prover reads an entry whose window does not cover its epoch, the
// third if a window closes while the entry's certificate still holds.

TEST(ServiceTest, AnswerFlippedByTheNextEditReachesTheHead) {
  Server server;
  server.CreateTenant("t");
  server.Add("t", Od({0}, {1}));
  Session behind = server.OpenSession("t");
  const uint64_t e0 = behind.epoch();

  // Stored at the head, then flipped by the edit: the sweep evicts it.
  EXPECT_FALSE(behind.Implies(Od({1}, {2})));
  server.Add("t", Od({1}, {2}));
  // Asked only after the edit, by the session still pinned at e0: its
  // answer is stored behind the head.
  EXPECT_FALSE(behind.Implies(Od({0}, {2})));
  EXPECT_EQ(behind.epoch(), e0);

  Session head = server.OpenSession("t");
  ASSERT_GT(head.epoch(), e0);
  EXPECT_TRUE(head.Implies(Od({1}, {2}))) << "a flipped answer survived";
  EXPECT_TRUE(head.Implies(Od({0}, {2})))
      << "an answer stored at e0 was served at the head";
  EXPECT_EQ(head.pinned_prover().searches_executed(), 2);
}

TEST(ServiceTest, AnswerDerivedAtTheHeadIsNotServedBehindIt) {
  Server server;
  server.CreateTenant("t");
  server.Add("t", Od({0}, {1}));
  Session behind = server.OpenSession("t");
  server.Add("t", Od({1}, {2}));

  Session head = server.OpenSession("t");
  ASSERT_GT(head.epoch(), behind.epoch());
  EXPECT_TRUE(head.Implies(Od({0}, {2})));
  EXPECT_FALSE(behind.Implies(Od({0}, {2})))
      << "an answer derived at the head was served at e0";
  auto cex = behind.Counterexample(Od({0}, {2}));
  ASSERT_TRUE(cex.has_value());
  EXPECT_TRUE(Satisfies(*cex, behind.snapshot().deps));
  // The head's entry still stands: a second head session hits it.
  Session head2 = server.OpenSession("t");
  const int64_t searches = head2.pinned_prover().searches_executed();
  EXPECT_TRUE(head2.Implies(Od({0}, {2})));
  EXPECT_EQ(head2.pinned_prover().searches_executed(), searches);
}

TEST(ServiceTest, EntrySurvivingSweepsHitsAtEveryEpochBetween) {
  Server server;
  server.CreateTenant("t");
  server.Add("t", Od({0}, {1}));
  server.Add("t", Od({1}, {2}));
  std::vector<Session> sessions;
  sessions.push_back(server.OpenSession("t"));
  const OrderDependency q = Od({0}, {2});
  EXPECT_TRUE(sessions[0].Implies(q));

  // k = 4 sweeps over attributes q never touches: two adds and two
  // removes, each keeping the entry by certificate. A session pins every
  // epoch in between.
  constexpr int kSweeps = 4;
  std::vector<theory::ConstraintId> extra;
  for (int k = 0; k < kSweeps; ++k) {
    if (k < 2) {
      extra.push_back(server.Add("t", Od({5 + k}, {7 + k})));
    } else {
      ASSERT_TRUE(server.Remove("t", extra[static_cast<size_t>(k - 2)]));
    }
    sessions.push_back(server.OpenSession("t"));
  }
  for (size_t i = 0; i < sessions.size(); ++i) {
    const prover::Prover& pv = sessions[i].pinned_prover();
    EXPECT_EQ(sessions[i].epoch(), sessions[0].epoch() + i);
    const int64_t searches = pv.searches_executed();
    const int64_t hits = pv.cache_hits();
    EXPECT_TRUE(sessions[i].Implies(q));
    EXPECT_EQ(pv.searches_executed(), searches) << "epoch offset " << i;
    EXPECT_EQ(pv.cache_hits(), hits + 1) << "epoch offset " << i;
  }
}

TEST(ServiceTest, ConcurrentImpliesAgreeWithReference) {
  common::ThreadPool pool(4);
  Server server(ServerOptions{&pool});
  server.CreateTenant("t");
  server.Add("t", Od({0}, {1}));
  server.Add("t", Od({1}, {2}));
  server.Add("t", Od({2}, {3}));

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 32;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &wrong, t] {
      Session s = server.OpenSession("t");
      prover::Prover reference(s.snapshot().deps);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const AttributeId a = (t + i) % 5;
        const AttributeId b = (t + 2 * i + 1) % 5;
        const OrderDependency q = Od({a}, {b});
        if (s.Implies(q) != reference.Implies(q)) wrong.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);

  // The tenant memo answered the repeats: fewer memo misses (model
  // searches plus FD-split refutations) than total queries (the
  // distinct-query space is tiny).
  TenantStats st = server.Stats("t");
  EXPECT_LT(st.epoch_searches + st.epoch_split_refutations,
            kThreads * kQueriesPerThread);
}

TEST(ServiceTest, PlanAgainstPinnedSnapshot) {
  // The tax-schedule scenario (Example 5): [income] -> [bracket] and
  // [income] -> [tax] as declared ODs let the planner satisfy ORDER BY
  // bracket, tax from the income index with no sort enforcer.
  engine::Table taxes = warehouse::GenerateTaxTable(
      /*num_rows=*/2000, /*max_income=*/250000, /*seed=*/7);
  engine::OrderedIndex income_index(
      &taxes, engine::SortSpec{warehouse::TaxColumns().income});
  Server server;
  server.CreateTenant("t", warehouse::TaxOds());

  Session s = server.OpenSession("t");
  opt::LogicalQuery q = warehouse::TaxOrderByQuery(&taxes, &income_index,
                                                   /*tax_ods=*/nullptr);
  // Leave the table's ods null: the session must bind its pinned catalog.
  opt::PhysicalPlan plan = s.Plan(q);
  EXPECT_GE(plan.sorts_elided(), 1)
      << "pinned catalog did not reach the planner:\n"
      << plan.Explain();

  // Snapshot isolation for planning: drop every constraint, then plan
  // again on the still-pinned session — the elision must survive, while a
  // fresh session loses it.
  std::vector<Mutation> drops;
  for (theory::ConstraintId id : s.snapshot().ids) {
    drops.push_back(Mutation::Remove(id));
  }
  server.Apply("t", drops);
  opt::PhysicalPlan pinned_plan = s.Plan(q);
  EXPECT_GE(pinned_plan.sorts_elided(), 1);

  Session fresh = server.OpenSession("t");
  EXPECT_EQ(fresh.snapshot().deps.Size(), 0);
  opt::PhysicalPlan cold_plan = fresh.Plan(q);
  EXPECT_EQ(cold_plan.sorts_elided(), 0);
}

TEST(ServiceTest, DateTemplatesThroughASessionMatchExplicitCatalogs) {
  // A DateDimOds tenant plans the 13 date templates with date_dim's catalog
  // left null: the session binds the tenant catalog to date_dim alone
  // (store_sales declares its own, empty one), so every result matches
  // PlanQuery over explicit catalogs.
  constexpr int kStartYear = 1998;
  constexpr int kYears = 4;
  engine::Table dim = warehouse::GenerateDateDim(kStartYear, kYears);
  engine::Table fact = warehouse::GenerateStoreSales(
      /*num_rows=*/20000, dim.col(0).Int(0), dim.num_rows(),
      /*num_items=*/50, /*num_stores=*/10, /*seed=*/42);
  engine::OrderedIndex index(&fact, engine::SortSpec{0});
  auto dim_ods = std::make_shared<theory::Theory>(warehouse::DateDimOds());
  Server server;
  server.CreateTenant("dates", warehouse::DateDimOds());
  Session s = server.OpenSession("dates");

  const auto queries = warehouse::TpcdsDateQueries(kStartYear, kYears);
  ASSERT_EQ(queries.size(), 13u);
  for (const opt::DateRangeQuery& dq : queries) {
    const opt::PhysicalPlan plan = s.Plan(warehouse::ToLogicalQuery(
        dq, &fact, &dim, &index, /*fact_parts=*/nullptr, /*dim_ods=*/nullptr));
    EXPECT_EQ(plan.joins_elided(), 1) << dq.name << "\n" << plan.Explain();
    const engine::Table got = s.Execute(plan);
    opt::ExecStats stats;
    const engine::Table want =
        opt::PlanQuery(warehouse::ToLogicalQuery(dq, &fact, &dim, &index,
                                                 /*fact_parts=*/nullptr,
                                                 dim_ods))
            .Execute(&stats);
    EXPECT_EQ(got.num_rows(), want.num_rows()) << dq.name;
    EXPECT_TRUE(engine::SameRowMultiset(want, got)) << dq.name;
  }
}

TEST(ServiceTest, TenantsAreIsolated) {
  Server server;
  server.CreateTenant("a");
  server.CreateTenant("b");
  server.Add("a", Od({0}, {1}));

  Session sa = server.OpenSession("a");
  Session sb = server.OpenSession("b");
  EXPECT_TRUE(sa.Implies(Od({0}, {1})));
  EXPECT_FALSE(sb.Implies(Od({0}, {1})))
      << "tenant b saw tenant a's constraint";
  EXPECT_NE(&sa.pinned_prover(), &sb.pinned_prover());

  TenantStats stats_b = server.Stats("b");
  EXPECT_EQ(stats_b.catalog_size, 0);
}

TEST(ServiceTest, ApplySweepPublishesOnce) {
  Server server;
  server.CreateTenant("t");
  const uint64_t before = server.PublishedEpoch("t");
  ApplyResult r = server.Apply(
      "t", {Mutation::Add(Od({0}, {1})), Mutation::Add(Od({1}, {2})),
            Mutation::Add(Od({2}, {3}))});
  EXPECT_EQ(r.added.size(), 3u);
  EXPECT_EQ(r.epoch, before + 3) << "epoch advances per mutation";
  EXPECT_EQ(server.PublishedEpoch("t"), r.epoch);
  // Remove through the sweep too.
  ApplyResult r2 = server.Apply("t", {Mutation::Remove(r.added[1])});
  EXPECT_EQ(r2.removed, 1);
  EXPECT_EQ(server.Catalog("t")->deps.Size(), 2);
  // Removing a dead id is a no-op, not an error.
  ApplyResult r3 = server.Apply("t", {Mutation::Remove(r.added[1])});
  EXPECT_EQ(r3.removed, 0);
  EXPECT_EQ(r3.epoch, r2.epoch);
}

TEST(ServiceTest, LabeledServiceMetricsRoundTrip) {
  // Tenant names that stress the label escaping: spaces, quotes,
  // backslashes, and a newline.
  const std::vector<std::string> names = {
      "acme west", "quo\"ted", "back\\slash", "new\nline"};
  Server server;
  for (const auto& n : names) {
    server.CreateTenant(n);
    server.Add(n, Od({0}, {1}));
    Session s = server.OpenSession(n);
    EXPECT_TRUE(s.Implies(Od({0}, {1})));
  }

  using common::MetricRegistry;
  const common::MetricsSnapshot snap = MetricRegistry::Global().Snapshot();

  // Each tenant produced a distinct labeled series.
  for (const auto& n : names) {
    const std::string key = "od_service_sessions_opened_total{" +
                            common::FormatLabel("tenant", n) + "}";
    ASSERT_TRUE(snap.counters.count(key)) << "missing series " << key;
    EXPECT_GE(snap.counters.at(key), 1) << key;
  }

  // The exporter's inverse parser recovers the labeled service metrics
  // losslessly — including the names with spaces, quotes, and newlines.
  const common::MetricsSnapshot from_prom = MetricRegistry::FromPrometheusText(
      MetricRegistry::ToPrometheusText(snap));
  EXPECT_EQ(from_prom, snap) << "Prometheus round-trip diverged";
}

}  // namespace
}  // namespace service
}  // namespace od
