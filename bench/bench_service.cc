// Experiment SERVICE: sustained throughput of the multi-tenant OD service.
//
//   * BM_ServiceReadNoChurn/n — a FIXED total budget of implication reads
//     split across n session threads, each on its own pinned session, no
//     writer. The thread sweep is the scaling family CI gates with
//     check_scaling.py (--require BM_ServiceRead --min-speedup 2): read
//     throughput must at least double with >= 4 cores.
//   * BM_ServiceReadUnderChurn/n — the SAME read budget while a writer
//     thread continuously applies Add/Remove sweeps (publishing a new
//     epoch each time) and sessions periodically re-pin. The acceptance
//     bar for the snapshot design is read time within 20% of the
//     churn-free arm at equal thread count (the tenant memo, swept in
//     place, keeps re-pinned sessions warm; readers never block on the
//     writer).
//   * BM_ServiceTenantSweep/t — the read budget spread round-robin over t
//     tenants from one thread: per-tenant isolation overhead.
//   * BM_ServicePublish — writer-path cost of one Add+Remove cycle: per
//     edit, the catalog copy (the value the last publish handed out is
//     shared), the memo sweep, and a publish that copies nothing (a
//     replica prover adopting the value and the pointer swap).

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "service/service.h"

namespace od {
namespace {

constexpr int kAttrs = 10;
constexpr int kTotalReads = 1 << 14;  // fixed work, split across threads

DependencySet ChainTheory(int n) {
  DependencySet m;
  for (int i = 0; i + 1 < n; ++i) {
    m.Add(AttributeList({i}), AttributeList({i + 1}));
  }
  return m;
}

/// All ordered pair queries [i] ↦ [j] — the overlapping "interesting
/// orders" stream a planner fleet would ask; after one pass the tenant memo
/// absorbs every answer.
std::vector<OrderDependency> PairQueries(int n) {
  std::vector<OrderDependency> queries;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) queries.emplace_back(AttributeList({i}), AttributeList({j}));
    }
  }
  return queries;
}

/// n reader threads, kTotalReads/n queries each, cycling the pair-query
/// stream on pinned sessions (re-pinning every 256 reads). Returns total
/// reads issued.
int64_t RunReaders(service::Server& server, const std::string& tenant,
                   int threads, const std::vector<OrderDependency>& queries) {
  const int per_thread = kTotalReads / threads;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&server, &tenant, &queries, per_thread, t] {
      service::Session session = server.OpenSession(tenant);
      bool sink = false;
      for (int q = 0; q < per_thread; ++q) {
        if ((q & 255) == 255) session.Refresh();
        sink ^= session.Implies(
            queries[static_cast<size_t>(q + t) % queries.size()]);
      }
      benchmark::DoNotOptimize(sink);
    });
  }
  for (auto& w : workers) w.join();
  return static_cast<int64_t>(per_thread) * threads;
}

void BM_ServiceReadNoChurn(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  common::ThreadPool pool(threads);
  service::Server server(service::ServerOptions{&pool});
  server.CreateTenant("t", ChainTheory(kAttrs));
  const auto queries = PairQueries(kAttrs);
  RunReaders(server, "t", threads, queries);  // warm the tenant memo
  int64_t reads = 0;
  for (auto _ : state) {
    reads += RunReaders(server, "t", threads, queries);
  }
  state.SetItemsProcessed(reads);
}

void BM_ServiceReadUnderChurn(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  common::ThreadPool pool(threads);
  service::Server server(service::ServerOptions{&pool});
  server.CreateTenant("t", ChainTheory(kAttrs));
  const auto queries = PairQueries(kAttrs);
  RunReaders(server, "t", threads, queries);  // warm the tenant memo

  // Continuous writer: add a fresh off-chain constraint, then remove it —
  // two publications per cycle, each sweeping the tenant memo. Runs for
  // the whole measured region.
  std::atomic<bool> stop{false};
  std::thread writer([&server, &stop] {
    int extra = kAttrs;
    while (!stop.load(std::memory_order_relaxed)) {
      const theory::ConstraintId id = server.Add(
          "t", OrderDependency(AttributeList({extra}),
                               AttributeList({extra + 1})));
      server.Remove("t", id);
      extra = kAttrs + (extra - kAttrs + 2) % 16;
      // ~1-2k publications/sec — aggressive for a constraint catalog but
      // bounded, so the arm measures snapshot-isolation overhead rather
      // than a writer saturating a core with back-to-back publishes.
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  int64_t reads = 0;
  for (auto _ : state) {
    reads += RunReaders(server, "t", threads, queries);
  }
  stop.store(true);
  writer.join();
  state.SetItemsProcessed(reads);
}

void BM_ServiceTenantSweep(benchmark::State& state) {
  const int tenants = static_cast<int>(state.range(0));
  service::Server server;
  std::vector<std::string> names;
  for (int i = 0; i < tenants; ++i) {
    names.push_back("tenant" + std::to_string(i));
    server.CreateTenant(names.back(), ChainTheory(kAttrs));
  }
  const auto queries = PairQueries(kAttrs);
  for (const auto& n : names) RunReaders(server, n, 1, queries);  // warm
  for (auto _ : state) {
    bool sink = false;
    std::vector<service::Session> sessions;
    sessions.reserve(names.size());
    for (const auto& n : names) sessions.push_back(server.OpenSession(n));
    for (size_t q = 0; q < queries.size(); ++q) {
      sink ^= sessions[q % sessions.size()].Implies(queries[q]);
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(PairQueries(kAttrs).size()));
}

void BM_ServicePublish(benchmark::State& state) {
  service::Server server;
  server.CreateTenant("t", ChainTheory(kAttrs));
  // A warm memo makes the measured publish representative: seeding cost is
  // part of the writer path.
  const auto queries = PairQueries(kAttrs);
  RunReaders(server, "t", 1, queries);
  int extra = kAttrs;
  for (auto _ : state) {
    const theory::ConstraintId id = server.Add(
        "t", OrderDependency(AttributeList({extra}),
                             AttributeList({extra + 1})));
    server.Remove("t", id);
  }
  state.SetItemsProcessed(state.iterations() * 2);  // two publications
}

BENCHMARK(BM_ServiceReadNoChurn)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ServiceReadUnderChurn)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ServiceTenantSweep)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ServicePublish)->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace
}  // namespace od

BENCHMARK_MAIN();
