// implies_churn: 2 closed-loop reader sessions call Session::Implies and
// re-pin with Refresh every 256 requests, while an open-loop writer calls
// Server::Apply 50 times a second. The readers ask queries of a warmed
// 4,096-query hot set in a closed loop; fresh random ODs (cold, memo
// misses) are issued on a fixed schedule, 400 a second in all. The memo
// never evicts and every publish copies it, so Apply latency grows with the
// cold queries asked so far. A fixed cold rate keeps that growth a function
// of run time alone: a faster cold Implies cannot inflate Apply by adding
// memo entries faster.
//
// The catalog is 24 random ODs over 16 attributes (lists 1-3 long) plus one
// churning OD: each sweep adds a random OD and removes the one the previous
// sweep added, so the catalog keeps its size.
//
// The churning ODs are random ODs over 4 further attributes (16-19) that
// no base OD and no query mentions — constraints of another table in the
// same tenant catalog. Every sweep still mints a new epoch, publishes a
// snapshot, sweeps the memo's certificates and seeds the next epoch's
// memo, but no answer the readers ask about changes. Churning arbitrary
// random ODs over the queried attributes made the run unsteady: one added
// OD can invalidate a third of the memo, and whether the readers'
// re-proofs keep up decided the hit ratio — five seeds gave 2.8k to 8.6k
// Implies/s.
//
// The base catalog and the hot set come from a fixed generator seed, the
// same in every run: prover search cost varies several-fold between random
// catalogs and has a heavy tail, so per-run draws would make run-to-run
// spread a property of the draw. --seed varies the readers' query streams
// and the writer's choice of churning ODs.

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <thread>

#include "common/thread_pool.h"
#include "harness.h"
#include "prover/prover.h"
#include "service/service.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kReaders = 2;
constexpr int kPoolThreads = 2;  // the caller plus 1 worker thread
constexpr int kAttributes = 16;
constexpr int kCatalogOds = 24;
constexpr int kHotSet = 4096;
constexpr double kColdPerSecond = 400;  // all readers together
constexpr int kRefreshEvery = 256;
constexpr double kApplyPerSecond = 50;
// Hot requests run at millions a second. One in kLatencyEvery of them goes
// into fixed-size uniform samples, so the benchmark's memory does not grow
// with libod's speed: latency by class, latency over all requests (for the
// overall p99), and answers to replay. Cold requests come at a fixed rate;
// every one is timed and one in kColdReplayEvery is replayed.
constexpr int kLatencyEvery = 64;
constexpr size_t kLatencySample = 1 << 15;  // per reader
constexpr size_t kHotReplaySample = 512;    // per reader
constexpr int kColdReplayEvery = 16;
constexpr int kSetupRepeats = 3;
constexpr uint32_t kCatalogSeed = 8;
constexpr int kChurnAttributes = 4;  // ids 16..19, never queried
const char* const kTenant = "churn";

/// A random OD whose two lists are 1-3 distinct attributes drawn from
/// [first, first + count).
od::OrderDependency RandomOd(std::mt19937& rng, int first = 0,
                             int count = kAttributes) {
  auto list = [&] {
    std::uniform_int_distribution<int> len(1, 3);
    std::vector<od::AttributeId> attrs;
    const int n = len(rng);
    while (static_cast<int>(attrs.size()) < n) {
      const auto a = static_cast<od::AttributeId>(first + rng() % count);
      if (std::find(attrs.begin(), attrs.end(), a) == attrs.end()) {
        attrs.push_back(a);
      }
    }
    return od::AttributeList(attrs);
  };
  od::AttributeList lhs = list();
  od::AttributeList rhs = list();
  return od::OrderDependency(std::move(lhs), std::move(rhs));
}

od::OrderDependency ChurnOd(std::mt19937& rng) {
  return RandomOd(rng, kAttributes, kChurnAttributes);
}

struct ChurnState {
  std::unique_ptr<od::common::ThreadPool> pool;
  std::unique_ptr<od::service::Server> server;
  std::vector<od::OrderDependency> hot;
  od::theory::ConstraintId churning = od::theory::kNoConstraint;
  std::mt19937 writer_rng;
  /// Every published catalog a session may have pinned, by epoch.
  std::mutex snapshots_mu;
  std::map<uint64_t, std::shared_ptr<const od::theory::TheorySnapshot>>
      snapshots;

  void RememberCatalog() {
    auto snap = server->Catalog(kTenant);
    std::lock_guard<std::mutex> lock(snapshots_mu);
    snapshots[snap->epoch] = std::move(snap);
  }
};

std::unique_ptr<ChurnState> SetUp(uint32_t seed) {
  auto s = std::make_unique<ChurnState>();
  s->writer_rng.seed(seed ^ 0x2545f491u);
  s->pool = std::make_unique<od::common::ThreadPool>(kPoolThreads);
  od::service::ServerOptions options;
  options.pool = s->pool.get();
  s->server = std::make_unique<od::service::Server>(options);
  std::mt19937 rng(kCatalogSeed);
  od::DependencySet catalog;
  for (int i = 0; i < kCatalogOds; ++i) catalog.Add(RandomOd(rng));
  s->server->CreateTenant(kTenant, catalog);
  std::set<od::OrderDependency> distinct;
  while (static_cast<int>(distinct.size()) < kHotSet) {
    distinct.insert(RandomOd(rng));
  }
  s->hot.assign(distinct.begin(), distinct.end());
  std::shuffle(s->hot.begin(), s->hot.end(), rng);
  s->churning = s->server->Add(kTenant, ChurnOd(s->writer_rng));
  // Warm the epoch memo with the hot set.
  od::service::Session session = s->server->OpenSession(kTenant);
  session.ProveAll(s->hot);
  s->RememberCatalog();
  return s;
}

struct Observation {
  uint64_t epoch;
  od::OrderDependency dep;
  bool answer;
};

struct Phase {
  std::vector<double> hot_us;
  std::vector<double> cold_us;
  std::vector<double> every_us;  // sampled over all requests
  std::vector<double> apply_ms;  // from the sweep's due time
  std::vector<double> late_ms;   // how late the writer started each sweep
  std::vector<Observation> sample;
  int64_t implies = 0;
  int64_t applies = 0;
  int64_t memo_seeded = 0;
  int64_t failed = 0;
  int64_t max_queue_depth = 0;
  double seconds = 0;
};

Phase RunPhase(ChurnState& s, uint32_t seed, double seconds) {
  Phase total;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<Phase> readers(kReaders);
  od::common::Gauge& queue_depth =
      od::common::MetricRegistry::Global().GetGauge(
          "od_threadpool_queue_depth");

  auto reader = [&](int r) {
    Phase& p = readers[r];
    const uint32_t reader_seed = seed * 104729u + static_cast<uint32_t>(r);
    std::mt19937 rng(reader_seed);
    Reservoir<double> hot_us(kLatencySample, reader_seed + 1);
    Reservoir<double> every_us(kLatencySample, reader_seed + 2);
    Reservoir<Observation> hot_sample(kHotReplaySample, reader_seed + 3);
    od::service::Session session = s.server->OpenSession(kTenant);
    // Open-loop cold queries: one is due every cold_period on this reader
    // (the readers staggered); a reader behind schedule catches up.
    const auto cold_period =
        static_cast<int64_t>(1e9 * kReaders / kColdPerSecond);
    int64_t cold_due = start + cold_period * (r + 1) / kReaders;
    int64_t now = NowNs();
    for (int64_t n = 0; now < deadline; ++n) {
      if (n > 0 && n % kRefreshEvery == 0) session.Refresh();
      const bool cold = now >= cold_due;
      if (cold) cold_due += cold_period;
      const od::OrderDependency dep =
          cold ? RandomOd(rng) : s.hot[rng() % s.hot.size()];
      RequestScope request;
      const int64_t t0 = NowNs();
      bool answer;
      {
        od::common::TraceSpan span(cold ? "bench.implies_cold"
                                        : "bench.implies_hot");
        answer = session.Implies(dep);
      }
      now = NowNs();
      const double us = static_cast<double>(now - t0) / 1e3;
      if (cold) {
        p.cold_us.push_back(us);
        if (rng() % kColdReplayEvery == 0) {
          p.sample.push_back(Observation{session.epoch(), dep, answer});
        }
      }
      if (n % kLatencyEvery == 0) {
        every_us.Add(us);
        if (!cold) {
          hot_us.Add(us);
          hot_sample.Add(Observation{session.epoch(), dep, answer});
        }
      }
      ++p.implies;
      if ((n & 255) == 0) {
        p.max_queue_depth = std::max(p.max_queue_depth, queue_depth.Value());
      }
    }
    p.hot_us = hot_us.items();
    p.every_us = every_us.items();
    p.sample.insert(p.sample.end(), hot_sample.items().begin(),
                    hot_sample.items().end());
  };

  auto writer = [&] {
    const auto period = static_cast<int64_t>(1e9 / kApplyPerSecond);
    for (int64_t k = 1;; ++k) {
      const int64_t due = start + k * period;
      if (due >= deadline) break;
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
      total.late_ms.push_back(static_cast<double>(NowNs() - due) / 1e6);
      const std::vector<od::service::Mutation> sweep = {
          od::service::Mutation::Add(ChurnOd(s.writer_rng)),
          od::service::Mutation::Remove(s.churning)};
      od::service::ApplyResult result;
      {
        RequestScope request;
        od::common::TraceSpan span("bench.apply");
        result = s.server->Apply(kTenant, sweep);
      }
      total.apply_ms.push_back(static_cast<double>(NowNs() - due) / 1e6);
      s.RememberCatalog();
      ++total.applies;
      total.memo_seeded += result.memo_seeded;
      if (result.removed != 1 || result.added.size() != 1) {
        ++total.failed;
      } else {
        s.churning = result.added.front();
      }
    }
  };

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);
  threads.emplace_back(writer);
  for (std::thread& t : threads) t.join();
  total.seconds = static_cast<double>(NowNs() - start) / 1e9;
  for (const Phase& p : readers) {
    total.hot_us.insert(total.hot_us.end(), p.hot_us.begin(), p.hot_us.end());
    total.cold_us.insert(total.cold_us.end(), p.cold_us.begin(),
                         p.cold_us.end());
    total.every_us.insert(total.every_us.end(), p.every_us.begin(),
                          p.every_us.end());
    total.sample.insert(total.sample.end(), p.sample.begin(), p.sample.end());
    total.implies += p.implies;
    total.max_queue_depth = std::max(total.max_queue_depth, p.max_queue_depth);
  }
  return total;
}

/// Replays the sampled answers against a fresh prover built from the
/// snapshot each answer's session had pinned; returns the mismatches.
int64_t Replay(ChurnState& s, const std::vector<Observation>& sample) {
  std::map<uint64_t, std::vector<const Observation*>> by_epoch;
  for (const Observation& o : sample) by_epoch[o.epoch].push_back(&o);
  int64_t mismatches = 0;
  for (const auto& [epoch, observations] : by_epoch) {
    auto it = s.snapshots.find(epoch);
    if (it == s.snapshots.end()) {
      mismatches += static_cast<int64_t>(observations.size());
      continue;
    }
    od::prover::Prover fresh(*it->second);
    for (const Observation* o : observations) {
      if (fresh.Implies(o->dep) != o->answer) {
        if (mismatches < 3) {
          std::cerr << "FAILED Implies " << o->dep.ToString() << " at epoch "
                    << epoch << ": service said " << o->answer << "\n";
        }
        ++mismatches;
      }
    }
  }
  return mismatches;
}

/// Geometric mean over the request classes (hot Implies, cold Implies,
/// Apply) of one quantile of each class's latency, ms.
double GeoMeanOfClasses(const Phase& p, double q) {
  return GeoMean({Quantile(p.hot_us, q) / 1e3, Quantile(p.cold_us, q) / 1e3,
                  Quantile(p.apply_ms, q)});
}

}  // namespace

WorkloadResult RunImpliesChurn(const Args& args) {
  std::vector<double> setup_s;
  std::unique_ptr<ChurnState> state;
  for (int i = 0; i < kSetupRepeats; ++i) {
    state.reset();
    const int64_t start = NowNs();
    state = SetUp(args.seed);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  ChurnState& s = *state;

  WorkloadResult result;
  result.threads = {{"readers", kReaders},
                    {"writers", 1},
                    {"pool_workers", kPoolThreads - 1}};
  auto finish = [&](const Phase& p) {
    const int64_t wrong = Replay(s, p.sample);
    result.attempted += p.implies + p.applies;
    result.failed += p.failed + wrong;
  };
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  Phase plain = RunPhase(s, args.seed, untraced_s);
  finish(plain);
  const double plain_geomean = GeoMeanOfClasses(plain, 0.5);
  result.class_medians_ms = {{"implies_hot", Median(plain.hot_us) / 1e3},
                             {"implies_cold", Median(plain.cold_us) / 1e3},
                             {"apply", Median(plain.apply_ms)}};

  MetricTable& e2e = result.end_to_end;
  e2e["setup_s"] = {Median(setup_s), "s"};
  e2e["request_geomean_ms"] = {plain_geomean, "ms"};
  e2e["requests_per_s"] = {static_cast<double>(plain.implies) / plain.seconds,
                           "1/s"};
  if (!args.trace) return result;

  od::common::Tracer::Global().Enable();
  RegistryDelta registry;
  Phase traced = RunPhase(s, args.seed + 1, args.seconds - untraced_s);
  od::common::Tracer::Global().Disable();
  const double reqs =
      static_cast<double>(std::max<int64_t>(traced.implies, 1));
  const double applies =
      static_cast<double>(std::max<int64_t>(traced.applies, 1));
  auto counter = [&](const char* name) {
    return static_cast<double>(registry.Counter(name));
  };
  const double searches = counter("od_prover_searches_total");
  const double hits = counter("od_prover_memo_hits_total");
  const double invalidated = counter("od_prover_memo_invalidated_total");
  const double retained = counter("od_prover_memo_retained_total");
  const double fastpath = counter("od_service_fastpath_hits_total");
  const double batches = counter("od_service_batches_total");
  const double batched = counter("od_service_batched_queries_total");
  const double bumps = counter("od_theory_epoch_bumps_total");
  const double notifications =
      counter("od_theory_listener_notifications_total");
  const double steals = counter("od_threadpool_steals_total");
  const double submits = counter("od_threadpool_submits_total");
  const double publish_p50 =
      registry.HistogramQuantile("od_service_publish_us", 0.5);
  const double depth_p50 =
      registry.HistogramQuantile("od_prover_search_depth", 0.5);
  const double task_p50 =
      registry.HistogramQuantile("od_threadpool_task_us", 0.5);
  finish(traced);

  MetricTable& layer = result.per_layer;
  layer["request.p95_geomean_ms"] = {GeoMeanOfClasses(plain, 0.95), "ms"};
  layer["service.implies_hot_us"] = {Median(traced.hot_us), "us"};
  layer["service.implies_cold_us"] = {Median(traced.cold_us), "us"};
  layer["service.implies_p99_us"] = {Quantile(plain.every_us, 0.99), "us"};
  layer["service.apply_p50_ms"] = {Median(plain.apply_ms), "ms"};
  layer["service.apply_p99_ms"] = {Quantile(plain.apply_ms, 0.99), "ms"};
  layer["service.fastpath_hits"] = {fastpath / reqs, "1/req"};
  layer["service.batches"] = {batches / reqs, "1/req"};
  layer["service.batch_size_mean"] = {batches > 0 ? batched / batches : 0.0,
                                     "queries"};
  layer["service.batched_queries"] = {batched / reqs, "1/req"};
  layer["service.publish_us_p50"] = {publish_p50, "us"};
  layer["service.memo_seeded"] = {
      static_cast<double>(traced.memo_seeded) / applies, "1/apply"};
  layer["theory.epoch_bumps"] = {bumps / applies, "1/apply"};
  layer["theory.listener_notifications"] = {notifications / applies,
                                            "1/apply"};
  layer["prover.searches"] = {searches / reqs, "1/req"};
  layer["prover.memo_hits"] = {hits / reqs, "1/req"};
  layer["prover.hit_ratio"] = {
      hits + searches > 0 ? hits / (hits + searches) : 0.0, "ratio"};
  layer["prover.search_depth_p50"] = {depth_p50, "attributes"};
  layer["prover.memo_invalidated"] = {invalidated / applies, "1/apply"};
  layer["prover.memo_retained"] = {retained / applies, "1/apply"};
  layer["prover.retention_ratio"] = {
      retained + invalidated > 0 ? retained / (retained + invalidated) : 0.0,
      "ratio"};
  layer["common.pool_task_us_p50"] = {task_p50, "us"};
  layer["common.pool_steals"] = {steals / reqs, "1/req"};
  layer["common.pool_submits"] = {submits / reqs, "1/req"};
  layer["common.pool_queue_depth"] = {
      static_cast<double>(traced.max_queue_depth), "tasks"};
  layer["bench.writer_late_ms_p99"] = {Quantile(plain.late_ms, 0.99), "ms"};
  layer["bench.trace_overhead_pct"] = {
      (GeoMeanOfClasses(traced, 0.5) / plain_geomean - 1) * 100, "%"};
  return result;
}

}  // namespace perfbench
