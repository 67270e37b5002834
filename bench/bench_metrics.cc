// Experiment OBS: the price of observability. Record-path micros for the
// metrics registry (sharded counter, histogram) and the span tracer in its
// three states — compiled out (measure via the OD_TRACE=OFF build),
// runtime-disabled (the always-on production cost), and enabled. The
// engine-level ≤5% budget is gated by bench/check_overhead.py, which
// compares OD_TRACE=OFF and ON builds of the real query benches; these
// micros explain *why* that gate holds.
//
// With OD_TRACE_OUT=<path> in the environment, the binary additionally
// executes the daily-sales star query at dop 4 with tracing enabled and
// writes the Chrome trace JSON there (load it in https://ui.perfetto.dev);
// CI uploads it as an artifact.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "engine/index.h"
#include "engine/partition.h"
#include "optimizer/planner.h"
#include "service/service.h"
#include "theory/theory.h"
#include "warehouse/date_dim.h"
#include "warehouse/queries.h"
#include "warehouse/star_schema.h"

namespace od {
namespace {

void BM_CounterAdd(benchmark::State& state) {
  common::Counter& c =
      common::MetricRegistry::Global().GetCounter("od_bench_counter");
  for (auto _ : state) {
    c.Add();
  }
  benchmark::DoNotOptimize(c.Value());
}

void BM_CounterAddContended(benchmark::State& state) {
  // 8 threads on one counter: the sharded design keeps this near the
  // uncontended cost instead of collapsing onto one cache line.
  static common::Counter* c =
      &common::MetricRegistry::Global().GetCounter("od_bench_contended");
  for (auto _ : state) {
    c->Add();
  }
}

void BM_HistogramRecord(benchmark::State& state) {
  common::Histogram& h =
      common::MetricRegistry::Global().GetHistogram("od_bench_hist");
  int64_t v = 1;
  for (auto _ : state) {
    h.Record(v);
    v = (v * 7 + 3) & 0xffff;
  }
  benchmark::DoNotOptimize(h.Count());
}

void BM_SpanRuntimeDisabled(benchmark::State& state) {
  // The production default: spans compiled in, tracer off. One relaxed
  // load + branch per span — this is what every instrumented hot loop
  // pays when nobody is tracing.
  common::Tracer::Global().Disable();
  for (auto _ : state) {
    OD_TRACE_SPAN("bench.disabled");
  }
}

void BM_SpanEnabled(benchmark::State& state) {
  common::Tracer::Global().Clear();
  common::Tracer::Global().Enable();
  for (auto _ : state) {
    OD_TRACE_SPAN("bench.enabled");
  }
  common::Tracer::Global().Disable();
  common::Tracer::Global().Clear();
}

void BM_SnapshotPrometheus(benchmark::State& state) {
  common::MetricRegistry& reg = common::MetricRegistry::Global();
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.SnapshotPrometheus());
  }
}

void BM_SubmitContextRestore(benchmark::State& state) {
  // What trace-context propagation adds to every pool hop: Submit captures
  // the caller's 16-byte context, Execute installs it around the task.
  // Compare against the OD_TRACE=OFF build (where the restore is a no-op)
  // to isolate the propagation cost from the base Submit/Wait machinery.
  common::ThreadPool pool(2);
  common::TaskGroup group(&pool);
  for (auto _ : state) {
    group.Submit([] {});
    group.Wait();
  }
}

void BM_QueryProfileAssembly(benchmark::State& state) {
  // A full profiled request on the cheapest profiled path: ProveAll of one
  // already-memoized dependency. Measures the RequestProfiler envelope —
  // context install, root span, clock reads, prover deltas, histogram
  // record, slow classification, and the flight-recorder push.
  service::Server server;
  server.CreateTenant("bench_profile");
  AttributeList lhs = AttributeList().Append(0);
  AttributeList rhs = AttributeList().Append(1);
  server.Add("bench_profile", OrderDependency(lhs, rhs));
  service::Session session = server.OpenSession("bench_profile");
  const std::vector<OrderDependency> batch = {OrderDependency(lhs, rhs)};
  (void)session.ProveAll(batch);  // warm the memo
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.ProveAll(batch));
  }
}

BENCHMARK(BM_CounterAdd);
BENCHMARK(BM_CounterAddContended)->Threads(8);
BENCHMARK(BM_HistogramRecord);
BENCHMARK(BM_SpanRuntimeDisabled);
BENCHMARK(BM_SpanEnabled);
BENCHMARK(BM_SnapshotPrometheus);
BENCHMARK(BM_SubmitContextRestore);
BENCHMARK(BM_QueryProfileAssembly);

/// Executes the daily-sales query at dop 4 — as a real request through a
/// service Session, so planning and execution share one request-scoped
/// trace context — and writes the Chrome trace to `path`. The trace shows
/// the service.plan/service.execute root spans, the planner span, one
/// exchange.fragment span per worker lane (all carrying the request's
/// trace id), and any spill spans.
void WriteSampleTrace(const std::string& path) {
  using namespace od::opt;
  engine::Table dim = warehouse::GenerateDateDim(1998, 4);
  engine::Table fact = warehouse::GenerateStoreSales(
      /*num_rows=*/200000, dim.col(0).Int(0), dim.num_rows(),
      /*num_items=*/50, /*num_stores=*/10, /*seed=*/42);
  engine::OrderedIndex index(&fact, engine::SortSpec{0});
  auto parts = engine::PartitionedTable::PartitionByRange(fact, 0, 16);

  common::ThreadPool pool(4);
  service::ServerOptions sopts;
  sopts.pool = &pool;
  service::Server server(sopts);
  server.CreateTenant("trace_demo", warehouse::DateDimOds());
  service::Session session = server.OpenSession("trace_demo");

  // Null dim ODs: the session binds the dimension table to its pinned
  // catalog, so elision proofs run against the tenant memo.
  LogicalQuery q = warehouse::DailySalesQuery(&fact, &dim, &index, &parts,
                                              /*dim_ods=*/nullptr, 1999);
  CostModel cm;
  cm.fragment_startup = 0.0;
  PlanOptions opts;
  opts.dop = 4;
  opts.pool = &pool;

  common::Tracer& tracer = common::Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  PhysicalPlan plan = session.Plan(q, cm, opts);
  ExecStats stats;
  session.Execute(plan, &stats);
  tracer.Disable();

  std::ofstream out(path);
  out << tracer.ExportChromeTrace();
  tracer.Clear();
  std::printf("wrote Chrome trace to %s (trace_id=%llu, %s)\n", path.c_str(),
              static_cast<unsigned long long>(plan.trace_context().trace_id),
              stats.ToString().c_str());
}

}  // namespace
}  // namespace od

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (const char* path = std::getenv("OD_TRACE_OUT")) {
#if OD_TRACE_ENABLED
    od::WriteSampleTrace(path);
#else
    std::printf("OD_TRACE_OUT set but this build has OD_TRACE=OFF\n");
#endif
  }
  return 0;
}
