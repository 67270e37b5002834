// Request-scoped observability through the service: QueryProfiles
// assembled from scoped deltas, the per-tenant flight recorder and
// slow-query log, pinned-session accounting, and — with tracing compiled
// in — the acceptance contract that a traced dop-4 daily-sales run's
// exchange-producer spans (and a spilling sort's spill spans) all carry
// the request's trace id and parent under the request's root span.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "engine/index.h"
#include "engine/partition.h"
#include "engine/table.h"
#include "service/flight_recorder.h"
#include "service/service.h"
#include "warehouse/date_dim.h"
#include "warehouse/queries.h"
#include "warehouse/star_schema.h"
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

TEST(FlightRecorderTest, RingKeepsLastNOldestFirst) {
  FlightRecorder rec(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    QueryProfile p;
    p.wall_us = i;
    rec.Record(std::move(p));
  }
  EXPECT_EQ(rec.total_recorded(), 10);
  const auto tail = rec.Tail(4);
  ASSERT_EQ(tail.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(tail[i].wall_us, 6 + i);
  EXPECT_EQ(rec.Tail(2).size(), 2u);
  EXPECT_EQ(rec.Tail(2)[0].wall_us, 8);
  EXPECT_EQ(rec.Tail(100).size(), 4u);  // clamped to what exists
}

TEST(FlightRecorderTest, SlowRingSurvivesFastBursts) {
  FlightRecorder rec(/*capacity=*/4);
  QueryProfile slow;
  slow.wall_us = 999;
  slow.slow = true;
  rec.Record(std::move(slow));
  // A burst of fast requests rotates the main ring...
  for (int i = 0; i < 8; ++i) rec.Record(QueryProfile());
  const auto tail = rec.Tail(4);
  for (const auto& p : tail) EXPECT_FALSE(p.slow);
  // ...but the slow outlier is still on file.
  const auto slow_tail = rec.SlowTail(4);
  ASSERT_EQ(slow_tail.size(), 1u);
  EXPECT_EQ(slow_tail[0].wall_us, 999);
  EXPECT_EQ(rec.slow_recorded(), 1);
}

TEST(FlightRecorderTest, DumpJsonHasBothRings) {
  FlightRecorder rec(8);
  QueryProfile p;
  p.kind = QueryProfile::Kind::kPlan;
  p.tenant = "acme \"inc\"";  // exercises escaping
  p.slow = true;
  rec.Record(std::move(p));
  const std::string json = rec.DumpJson(8);
  EXPECT_NE(json.find("\"profiles\":["), std::string::npos);
  EXPECT_NE(json.find("\"slow\":["), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"plan\""), std::string::npos);
  EXPECT_NE(json.find("acme \\\"inc\\\""), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":1"), std::string::npos);
}

TEST(QueryProfileTest, ImpliesMissProfiledFastpathHitNot) {
  Server server;
  server.CreateTenant("qp_implies");
  server.Add("qp_implies", Od({0}, {1}));
  Session s = server.OpenSession("qp_implies");

  ASSERT_TRUE(s.Implies(Od({0}, {1})));  // cold: miss -> profiled
  const int64_t after_miss =
      server.Stats("qp_implies").profiles_recorded;
  EXPECT_GE(after_miss, 1);

  // Same query again: memo fast path — deliberately NOT profiled.
  ASSERT_TRUE(s.Implies(Od({0}, {1})));
  EXPECT_EQ(server.Stats("qp_implies").profiles_recorded, after_miss);

  const auto tail = server.FlightRecorderTail("qp_implies");
  ASSERT_FALSE(tail.empty());
  const QueryProfile& p = tail.back();
  EXPECT_EQ(p.kind, QueryProfile::Kind::kImplies);
  EXPECT_EQ(p.tenant, "qp_implies");
  EXPECT_GT(p.epoch, 0u);
  EXPECT_FALSE(p.detail.empty());
  EXPECT_GE(p.prover_searches, 1) << "miss should have searched";
}

/// A cold Implies the FD split refutes is a memo miss like any other: it
/// is profiled, and its profile and the tenant's stats carry it as a split
/// refutation, not a model search.
TEST(QueryProfileTest, SplitRefutedMissIsProfiledAsARefutation) {
  Server server;
  server.CreateTenant("qp_split");
  server.Add("qp_split", Od({0}, {1}));
  Session s = server.OpenSession("qp_split");

  ASSERT_FALSE(s.Implies(Od({1}, {0})));  // the FD {1} → {0} fails
  const auto tail = server.FlightRecorderTail("qp_split");
  ASSERT_FALSE(tail.empty());
  const QueryProfile& p = tail.back();
  EXPECT_EQ(p.kind, QueryProfile::Kind::kImplies);
  EXPECT_EQ(p.prover_searches, 0);
  EXPECT_EQ(p.prover_split_refutations, 1);
  EXPECT_EQ(p.prover_cache_hits, 0);
  EXPECT_NE(p.ToJson().find("\"prover_split_refutations\":1"),
            std::string::npos);
  const TenantStats st = server.Stats("qp_split");
  EXPECT_EQ(st.epoch_searches, 0);
  EXPECT_EQ(st.epoch_split_refutations, 1);

  // The repeat is a memo hit on the fast path: no profile, no miss.
  ASSERT_FALSE(s.Implies(Od({1}, {0})));
  EXPECT_EQ(server.FlightRecorderTail("qp_split").size(), tail.size());
  EXPECT_EQ(server.Stats("qp_split").epoch_split_refutations, 1);
}

TEST(QueryProfileTest, ProveAllAndPlanAndApplyKinds) {
  common::ThreadPool pool(2);
  ServerOptions opts;
  opts.pool = &pool;
  Server server(opts);
  server.CreateTenant("qp_kinds", warehouse::TaxOds());

  Session s = server.OpenSession("qp_kinds");
  (void)s.ProveAll({Od({0}, {1}), Od({1}, {2})});
  server.Add("qp_kinds", Od({5}, {6}));

  engine::Table taxes = warehouse::GenerateTaxTable(500, 250000, 7);
  engine::OrderedIndex income_index(
      &taxes, engine::SortSpec{warehouse::TaxColumns().income});
  opt::LogicalQuery q =
      warehouse::TaxOrderByQuery(&taxes, &income_index, nullptr);
  opt::PhysicalPlan plan = s.Plan(q);
  EXPECT_GE(plan.sorts_elided(), 1);

  std::set<std::string> kinds;
  for (const auto& p : server.FlightRecorderTail("qp_kinds", 100)) {
    kinds.insert(QueryProfile::KindName(p.kind));
  }
  EXPECT_GT(kinds.count("prove_all"), 0u);
  EXPECT_GT(kinds.count("apply"), 0u);
  EXPECT_GT(kinds.count("plan"), 0u);

  // The plan profile carried the planner's elision outcome.
  for (const auto& p : server.FlightRecorderTail("qp_kinds", 100)) {
    if (p.kind == QueryProfile::Kind::kPlan) {
      EXPECT_GE(p.sorts_elided, 1);
    }
  }
}

TEST(QueryProfileTest, ExecuteProfileCarriesExecStats) {
  Server server;
  server.CreateTenant("qp_exec", warehouse::TaxOds());
  Session s = server.OpenSession("qp_exec");

  engine::Table taxes = warehouse::GenerateTaxTable(2000, 250000, 3);
  // No index, no ODs bound to the table and a query the catalog cannot
  // help: the planner places a real Sort, and the tiny spill budget
  // forces it external.
  opt::LogicalQuery q =
      warehouse::TaxOrderByQuery(&taxes, /*income_index=*/nullptr, nullptr);
  opt::PlanOptions popts;
  popts.spill_budget_rows = 128;
  popts.spill_dir = ::testing::TempDir();
  opt::PhysicalPlan plan =
      s.Plan(q, opt::CostModel(), popts);

  opt::ExecStats stats;
  engine::Table out = s.Execute(plan, &stats);
  EXPECT_EQ(out.num_rows(), taxes.num_rows());
  EXPECT_GT(stats.spills, 0);

  const auto tail = server.FlightRecorderTail("qp_exec", 100);
  const QueryProfile* exec = nullptr;
  for (const auto& p : tail) {
    if (p.kind == QueryProfile::Kind::kExecute) exec = &p;
  }
  ASSERT_NE(exec, nullptr);
  EXPECT_EQ(exec->rows_output, taxes.num_rows());
  EXPECT_GT(exec->spilled_bytes, 0);
  EXPECT_EQ(exec->rows_output, stats.rows_output);
}

TEST(QueryProfileTest, SlowQueryClassificationAgainstFloorAndQuantile) {
  ServerOptions opts;
  opts.slow_query_floor_us = 0;  // every request classifies slow
  Server server(opts);
  server.CreateTenant("qp_slow");
  server.Add("qp_slow", Od({0}, {1}));
  Session s = server.OpenSession("qp_slow");
  ASSERT_TRUE(s.Implies(Od({0}, {1})));

  const TenantStats stats = server.Stats("qp_slow");
  EXPECT_GE(stats.slow_queries, 1);
  const auto slow = server.SlowQueryLog("qp_slow");
  ASSERT_FALSE(slow.empty());
  EXPECT_TRUE(slow.back().slow);

  // A sane floor keeps cheap requests out of the slow log.
  ServerOptions strict;
  strict.slow_query_floor_us = int64_t{60} * 1000 * 1000;  // one minute
  Server calm(strict);
  calm.CreateTenant("qp_calm");
  calm.Add("qp_calm", Od({0}, {1}));
  Session c = calm.OpenSession("qp_calm");
  ASSERT_TRUE(c.Implies(Od({0}, {1})));
  EXPECT_EQ(calm.Stats("qp_calm").slow_queries, 0);
  EXPECT_TRUE(calm.SlowQueryLog("qp_calm").empty());
  // The threshold helper reflects the floor until 32 requests exist.
  EXPECT_EQ(calm.SlowQueryThresholdUs("qp_calm"),
            int64_t{60} * 1000 * 1000);
}

TEST(QueryProfileTest, PinnedSessionGaugeTracksLifetimes) {
  Server server;
  server.CreateTenant("qp_pins");
  EXPECT_EQ(server.Stats("qp_pins").pinned_sessions, 0);
  {
    Session a = server.OpenSession("qp_pins");
    EXPECT_EQ(server.Stats("qp_pins").pinned_sessions, 1);
    Session b = std::move(a);  // the pin travels, not duplicates
    EXPECT_EQ(server.Stats("qp_pins").pinned_sessions, 1);
    Session c = server.OpenSession("qp_pins");
    EXPECT_EQ(server.Stats("qp_pins").pinned_sessions, 2);
    c = std::move(b);  // c's own pin released by the assignment
    EXPECT_EQ(server.Stats("qp_pins").pinned_sessions, 1);
  }
  EXPECT_EQ(server.Stats("qp_pins").pinned_sessions, 0);
  EXPECT_EQ(server.Stats("qp_pins").sessions_opened, 2);
}

/// Server::StatusJson, the one status renderer, dumps every tenant's
/// flight recorder.
TEST(QueryProfileTest, DumpFlightRecorderCoversAllTenants) {
  Server server;
  server.CreateTenant("qp_dump_a");
  server.CreateTenant("qp_dump_b");
  server.Add("qp_dump_a", Od({0}, {1}));
  const std::string json = server.StatusJson();
  EXPECT_NE(json.find("\"qp_dump_a\""), std::string::npos);
  EXPECT_NE(json.find("\"qp_dump_b\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"apply\""), std::string::npos);
}

/// Runs a test with the tracer on and cleared. The tracer exists in both
/// builds; with spans compiled out it records nothing.
class TracedServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::Tracer::Global().Clear();
    common::Tracer::Global().Enable();
  }
  void TearDown() override {
    common::Tracer::Global().Disable();
    common::Tracer::Global().Clear();
  }
};

#if OD_TRACE_ENABLED

struct SpanEv {
  std::string name;
  int64_t ts = 0;
  int64_t dur = 0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
};

std::vector<SpanEv> ParseSpans(const std::string& json) {
  std::vector<SpanEv> events;
  const std::string marker = "{\"name\":\"";
  size_t pos = json.find(marker);
  while (pos != std::string::npos) {
    SpanEv e;
    const size_t name_begin = pos + marker.size();
    const size_t name_end = json.find('"', name_begin);
    e.name = json.substr(name_begin, name_end - name_begin);
    const auto field = [&](const char* key) -> uint64_t {
      const size_t p = json.find(key, name_end);
      return p == std::string::npos
                 ? 0
                 : std::strtoull(json.c_str() + p + std::strlen(key),
                                 nullptr, 10);
    };
    e.ts = static_cast<int64_t>(field("\"ts\":"));
    e.dur = static_cast<int64_t>(field("\"dur\":"));
    e.trace_id = field("\"trace_id\":");
    e.span_id = field("\"span_id\":");
    e.parent_id = field("\"parent_id\":");
    events.push_back(e);
    pos = json.find(marker, json.find('}', name_end));
  }
  return events;
}

/// The PR's acceptance bar: a dop-4 daily-sales run planned AND executed
/// through a Session exports a Chrome trace where every exchange-producer
/// span carries the request's trace id and sits in a tree rooted at the
/// request — even though the producer pumps ran as work-stealing pool
/// tasks (including parked/resumed ones).
TEST_F(TracedServiceTest, DailySalesExchangeSpansParentUnderRequest) {
  engine::Table dim = warehouse::GenerateDateDim(1998, 4);
  engine::Table fact = warehouse::GenerateStoreSales(
      /*num_rows=*/50000, dim.col(0).Int(0), dim.num_rows(),
      /*num_items=*/50, /*num_stores=*/10, /*seed=*/42);
  engine::OrderedIndex index(&fact, engine::SortSpec{0});
  auto parts = engine::PartitionedTable::PartitionByRange(fact, 0, 16);

  common::ThreadPool pool(4);
  ServerOptions sopts;
  sopts.pool = &pool;
  Server server(sopts);
  server.CreateTenant("qp_traced", warehouse::DateDimOds());
  Session s = server.OpenSession("qp_traced");

  // Null dim ODs: the session binds its pinned catalog, exactly like the
  // PlanAgainstPinnedSnapshot contract.
  opt::LogicalQuery q = warehouse::DailySalesQuery(
      &fact, &dim, &index, &parts, /*dim_ods=*/nullptr, 1999);
  opt::CostModel cm;
  cm.fragment_startup = 0.0;  // make dop-4 the winning plan
  opt::PlanOptions popts;
  popts.dop = 4;
  popts.pool = &pool;
  opt::PhysicalPlan plan = s.Plan(q, cm, popts);
  ASSERT_NE(plan.trace_context().trace_id, 0u);

  opt::ExecStats stats;
  (void)s.Execute(plan, &stats);
  ASSERT_GT(stats.fragments, 0) << "plan did not parallelize";

  common::Tracer::Global().Disable();
  const std::string json = common::Tracer::Global().ExportChromeTrace();
  const auto events = ParseSpans(json);
  const uint64_t trace = plan.trace_context().trace_id;

  std::set<uint64_t> ids_in_trace;
  uint64_t root_span = 0;
  for (const auto& e : events) {
    if (e.trace_id == trace) ids_in_trace.insert(e.span_id);
    if (e.name == "service.plan" && e.trace_id == trace) {
      root_span = e.span_id;
    }
  }
  ASSERT_NE(root_span, 0u);
  EXPECT_EQ(plan.trace_context().span_id, root_span);

  int fragments = 0;
  for (const auto& e : events) {
    if (e.name != "exchange.fragment") continue;
    ++fragments;
    EXPECT_EQ(e.trace_id, trace)
        << "producer span escaped the request's trace";
    EXPECT_GT(ids_in_trace.count(e.parent_id), 0u)
        << "producer span not parented inside the request tree";
  }
  EXPECT_GT(fragments, 0) << json.substr(0, 500);

  // The execute profile agrees on the join key.
  const auto tail = server.FlightRecorderTail("qp_traced", 100);
  bool exec_seen = false;
  for (const auto& p : tail) {
    if (p.kind == QueryProfile::Kind::kExecute) {
      exec_seen = true;
      EXPECT_EQ(p.trace_id, trace);
      EXPECT_GT(p.exchange_peak_rows, 0);
    }
  }
  EXPECT_TRUE(exec_seen);
}

TEST_F(TracedServiceTest, SpillSpansCarryTheRequestTrace) {
  Server server;
  server.CreateTenant("qp_spill");
  Session s = server.OpenSession("qp_spill");

  engine::Table taxes = warehouse::GenerateTaxTable(2000, 250000, 5);
  opt::LogicalQuery q =
      warehouse::TaxOrderByQuery(&taxes, /*income_index=*/nullptr, nullptr);
  opt::PlanOptions popts;
  popts.spill_budget_rows = 128;
  popts.spill_dir = ::testing::TempDir();
  opt::PhysicalPlan plan = s.Plan(q, opt::CostModel(), popts);
  opt::ExecStats stats;
  (void)s.Execute(plan, &stats);
  ASSERT_GT(stats.spills, 0);

  common::Tracer::Global().Disable();
  const auto events =
      ParseSpans(common::Tracer::Global().ExportChromeTrace());
  const uint64_t trace = plan.trace_context().trace_id;
  std::set<uint64_t> ids_in_trace;
  for (const auto& e : events) {
    if (e.trace_id == trace) ids_in_trace.insert(e.span_id);
  }
  int spill_spans = 0;
  for (const auto& e : events) {
    if (e.name != "sort.spill_run") continue;
    ++spill_spans;
    EXPECT_EQ(e.trace_id, trace);
    EXPECT_GT(ids_in_trace.count(e.parent_id), 0u);
  }
  EXPECT_GT(spill_spans, 0);
}

/// A cold Implies searches on the requesting thread, inside its own
/// request: its one prover.search span is a direct child of the request's
/// service.implies root.
TEST_F(TracedServiceTest, ColdImpliesSearchesDirectlyUnderItsRequest) {
  Server server;
  server.CreateTenant("qp_cold_implies", warehouse::TaxOds());
  Session s = server.OpenSession("qp_cold_implies");
  (void)s.Implies(Od({0}, {1}));

  common::Tracer::Global().Disable();
  const auto events =
      ParseSpans(common::Tracer::Global().ExportChromeTrace());
  std::vector<const SpanEv*> roots;
  std::vector<const SpanEv*> searches;
  for (const auto& e : events) {
    if (e.name == "service.implies") roots.push_back(&e);
    if (e.name == "prover.search") searches.push_back(&e);
  }
  ASSERT_EQ(roots.size(), 1u);
  ASSERT_EQ(searches.size(), 1u);
  EXPECT_EQ(searches[0]->trace_id, roots[0]->trace_id);
  EXPECT_EQ(searches[0]->parent_id, roots[0]->span_id);
}

/// The writer-path attribution rests on this: an Apply's memo sweeps and
/// its publication are children of its service.apply span, inside it in
/// time as well as in the tree.
TEST_F(TracedServiceTest, ApplySweepsAndPublishNestInsideApply) {
  Server server;
  server.CreateTenant("qp_apply_spans", warehouse::TaxOds());
  Session s = server.OpenSession("qp_apply_spans");
  s.ProveAll({Od({0}, {1}), Od({1}, {0}), Od({2}, {1})});
  common::Tracer::Global().Clear();
  for (int i = 0; i < 20; ++i) {
    const theory::ConstraintId id =
        server.Add("qp_apply_spans", Od({7}, {8}));
    server.Remove("qp_apply_spans", id);
  }

  common::Tracer::Global().Disable();
  const auto events =
      ParseSpans(common::Tracer::Global().ExportChromeTrace());
  std::map<uint64_t, const SpanEv*> applies;
  for (const auto& e : events) {
    if (e.name == "service.apply") applies[e.span_id] = &e;
  }
  ASSERT_EQ(applies.size(), 40u);
  int sweeps = 0;
  int publishes = 0;
  for (const auto& e : events) {
    if (e.name != "prover.memo_sweep" && e.name != "service.publish") continue;
    (e.name == "service.publish" ? publishes : sweeps) += 1;
    auto parent = applies.find(e.parent_id);
    ASSERT_NE(parent, applies.end()) << e.name << " outside service.apply";
    const SpanEv& apply = *parent->second;
    EXPECT_EQ(e.trace_id, apply.trace_id);
    EXPECT_GE(e.ts, apply.ts) << e.name;
    EXPECT_LE(e.ts + e.dur, apply.ts + apply.dur) << e.name;
  }
  EXPECT_EQ(sweeps, 40);
  EXPECT_EQ(publishes, 40);
}

#endif  // OD_TRACE_ENABLED

/// A cold Counterexample searches like a cold Implies, so it is a profiled
/// request: it records a counterexample profile, counts with the Implies
/// queries, and its prover.search span is a direct child of its
/// service.counterexample root. [a, b] ↦ [b, a] over an empty catalog
/// passes the FD split, so the miss runs the model search.
TEST_F(TracedServiceTest, ColdCounterexampleIsAProfiledRequest) {
  const std::string tenant = "qp_counterexample";
  Server server;
  server.CreateTenant(tenant);
  Session s = server.OpenSession(tenant);
  common::Counter& implies = common::MetricRegistry::Global().GetCounter(
      "od_service_implies_total", "", common::FormatLabel("tenant", tenant));
  const int64_t implies_before = implies.Value();
  ASSERT_EQ(server.Stats(tenant).profiles_recorded, 0);

  ASSERT_TRUE(s.Counterexample(Od({0, 1}, {1, 0})).has_value());
  EXPECT_EQ(implies.Value() - implies_before, 1);
  const auto tail = server.FlightRecorderTail(tenant);
  ASSERT_EQ(tail.size(), 1u);
  const QueryProfile& p = tail.back();
  EXPECT_EQ(p.kind, QueryProfile::Kind::kCounterexample);
  EXPECT_STREQ(QueryProfile::KindName(p.kind), "counterexample");
  EXPECT_EQ(p.prover_searches, 1);
  EXPECT_FALSE(p.detail.empty());

#if OD_TRACE_ENABLED
  common::Tracer::Global().Disable();
  const auto events =
      ParseSpans(common::Tracer::Global().ExportChromeTrace());
  std::vector<const SpanEv*> roots;
  std::vector<const SpanEv*> searches;
  for (const auto& e : events) {
    if (e.name == "service.counterexample") roots.push_back(&e);
    if (e.name == "prover.search") searches.push_back(&e);
  }
  ASSERT_EQ(roots.size(), 1u);
  ASSERT_EQ(searches.size(), 1u);
  EXPECT_NE(roots[0]->trace_id, 0u);
  EXPECT_EQ(p.trace_id, roots[0]->trace_id);
  EXPECT_EQ(searches[0]->trace_id, roots[0]->trace_id);
  EXPECT_EQ(searches[0]->parent_id, roots[0]->span_id);
#endif  // OD_TRACE_ENABLED
}

}  // namespace
}  // namespace service
}  // namespace od
