#ifndef OD_SERVICE_SERVICE_H_
#define OD_SERVICE_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/dependency.h"
#include "core/relation.h"
#include "optimizer/planner.h"
#include "prover/prover.h"
#include "service/query_profile.h"
#include "theory/theory.h"

namespace od {

namespace common {
class ThreadPool;
}  // namespace common

/// The multi-tenant OD service: a long-running, in-process server façade
/// over versioned `theory::Theory` catalogs — the deployment shape the
/// paper's reasoning amortization asks for. Many client sessions prove and
/// plan concurrently against *pinned, immutable snapshots* of a tenant's
/// catalog while a single writer per tenant keeps mutating it:
///
///   * **Snapshot isolation.** `Server::OpenSession` pins the tenant's
///     currently published `theory::TheorySnapshot` (plus the prover
///     serving that epoch). The writer's later mutations are
///     invisible to the session until it calls `Refresh()`; every answer a
///     session returns is exactly the answer of a fresh prover at its
///     pinned epoch (the churn differential suite enforces this bitwise).
///   * **Readers and the writer meet only at short locks:** the writer
///     mutates its private master catalog and publishes a fresh immutable
///     epoch state with one pointer swap; readers touch only their pinned
///     state and the tenant memo. The shared locks are pointer-copy
///     mutexes and the memo's shard locks, which the writer's sweep holds
///     one shard at a time — never across proving work.
///   * **One memo per tenant, windowed by epoch.** The tenant's master
///     prover owns one sharded memo; every published epoch prover is a
///     frozen replica holding a pointer to it, and each entry records the
///     epochs it holds at. A hot query proved once serves every session
///     whose epoch its window covers. The master prover rides the
///     catalog's change feed, so the monotonicity-aware retention
///     (support-set and countermodel certificates) carries answers across
///     epochs in place: publication copies no memo.
///   * **Cold queries.** A `Session::Implies` miss proves on the caller's
///     thread, inside its own profiled request, through the epoch prover:
///     it never waits behind another session's search, and its answer
///     lands in the tenant memo for every session whose epoch it covers.
///
/// See docs/service.md for the architecture and lifecycle diagrams.
namespace service {

struct ServerOptions {
  /// Scheduler that Session::ProveAll fans its searches across. Null runs
  /// them serially on the caller's thread.
  common::ThreadPool* pool = nullptr;
  /// Slow-query classification: a request is slow when its wall time
  /// reaches max(floor, p99) of the tenant's request-latency histogram —
  /// the p99 needs ≥32 recorded requests before it participates, so a
  /// cold tenant classifies against the floor alone. Tests set the floor
  /// to 0 to make every request slow.
  int64_t slow_query_floor_us = 10000;
};

/// One writer-path catalog edit.
struct Mutation {
  enum class Kind { kAdd, kRemove };
  Kind kind = Kind::kAdd;
  OrderDependency od;                               ///< kAdd payload
  theory::ConstraintId id = theory::kNoConstraint;  ///< kRemove payload

  static Mutation Add(OrderDependency dep) {
    Mutation m;
    m.kind = Kind::kAdd;
    m.od = std::move(dep);
    return m;
  }
  static Mutation Remove(theory::ConstraintId id) {
    Mutation m;
    m.kind = Kind::kRemove;
    m.id = id;
    return m;
  }
};

/// Outcome of one writer sweep (Server::Apply): the epoch published after
/// the whole sweep, the constraint ids minted for kAdd mutations (in
/// mutation order; kRemove entries contribute nothing), how many removes
/// found a live id, and how many memo entries the certificate sweeps
/// carried into the new epoch (the live entries it inherits; 0 when no
/// mutation took effect and the epoch did not move).
struct ApplyResult {
  uint64_t epoch = 0;
  std::vector<theory::ConstraintId> added;
  int removed = 0;
  int64_t memo_seeded = 0;
};

/// Point-in-time counters for one tenant (diagnostics; see the
/// `od_service_*{tenant=...}` registry metrics for scrapeable versions).
struct TenantStats {
  uint64_t epoch = 0;
  int catalog_size = 0;
  /// Entries in the tenant's memo (every epoch window), and the published
  /// epoch prover's query counters: its memo misses are the model
  /// searches plus the FD-split refutations.
  int64_t epoch_memo_size = 0;
  int64_t epoch_searches = 0;
  int64_t epoch_split_refutations = 0;
  int64_t epoch_cache_hits = 0;
  /// The memo sweeps' retention counters (see
  /// Prover::entries_invalidated / entries_retained).
  int64_t memo_invalidated = 0;
  int64_t memo_retained = 0;
  /// Session lifecycle: total ever opened, and currently live (pinned)
  /// Session objects.
  int64_t sessions_opened = 0;
  int64_t pinned_sessions = 0;
  /// Flight-recorder view: profiles recorded, how many classified slow,
  /// the current slow threshold, and the request-latency distribution
  /// (for p50/p95/p99 via HistogramSnapshot::ValueAtQuantile).
  int64_t profiles_recorded = 0;
  int64_t slow_queries = 0;
  int64_t slow_threshold_us = 0;
  common::HistogramSnapshot request_us;
};

namespace internal {
struct EpochState;
struct TenantState;
}  // namespace internal

class Server;

/// A client handle pinned to one tenant's catalog at one epoch. Sessions
/// are cheap (two pointers), movable, and safe to use from the owning
/// thread while any number of other sessions — on the same or other
/// epochs — run concurrently; one Session object itself is not meant to
/// be shared across threads (open one per thread; they share the tenant
/// memo anyway). Sessions must not outlive their Server.
class Session {
 public:
  Session(Session&& other) noexcept;
  Session& operator=(Session&& other) noexcept;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  /// Unpins (decrements the tenant's od_service_pinned_sessions gauge).
  ~Session();

  const std::string& tenant() const;
  /// The pinned catalog version. Stable until Refresh().
  uint64_t epoch() const;
  /// The pinned immutable snapshot (deps, FD projection, ids, attributes).
  const theory::TheorySnapshot& snapshot() const;

  /// ℳ@epoch ⊨ dep. Fast path: the tenant memo at the pinned epoch (one
  /// shared-lock probe). Miss: the epoch prover searches on the caller's
  /// thread, inside a profiled request.
  bool Implies(const OrderDependency& dep) const;
  bool Implies(const AttributeList& lhs, const AttributeList& rhs) const {
    return Implies(OrderDependency(lhs, rhs));
  }
  /// Batch form, fanned across the server's scheduler. Results are
  /// positionally aligned and bit-identical to asking one by one.
  std::vector<bool> ProveAll(const std::vector<OrderDependency>& deps) const;
  /// A two-row witness relation falsifying `dep` under the pinned catalog,
  /// if not implied (see Prover::Counterexample). Always a profiled
  /// request, counted with the Implies queries: a cold one searches like a
  /// cold Implies.
  std::optional<Relation> Counterexample(const OrderDependency& dep) const;

  /// Cost-based physical planning against the pinned snapshot: every
  /// table of `q` that declares no catalog of its own is bound to this
  /// session's frozen theory AND its shared epoch prover, so the plan's
  /// sort/join-elision proofs come from (and land in) the tenant memo.
  opt::PhysicalPlan Plan(opt::LogicalQuery q,
                         const opt::CostModel& cost = opt::CostModel(),
                         const opt::PlanOptions& options =
                             opt::PlanOptions()) const;

  /// Executes a plan (typically one this session built) under a profiled
  /// request scope: adopts the plan's trace context — execution spans
  /// parent under the same trace as the planning request — and records an
  /// execute-kind QueryProfile (rows, spilled bytes, exchange peak) into
  /// the tenant's flight recorder. `stats`, when non-null, receives the
  /// run's ExecStats exactly as PhysicalPlan::Execute would fill them.
  engine::Table Execute(const opt::PhysicalPlan& plan,
                        opt::ExecStats* stats = nullptr) const;

  /// Re-pins to the tenant's latest published epoch (a pointer swap; any
  /// in-flight answers already returned stay valid for the old epoch).
  void Refresh();

  /// The shared prover serving this session's pinned (tenant, epoch) —
  /// diagnostics and tests (e.g. asserting a hot query searched once).
  const prover::Prover& pinned_prover() const;

 private:
  friend class Server;
  Session(internal::TenantState* tenant,
          std::shared_ptr<const internal::EpochState> state);
  /// Drops the pin (gauge decrement) and nulls tenant_.
  void Release();

  internal::TenantState* tenant_;  ///< null only in a moved-from Session
  std::shared_ptr<const internal::EpochState> state_;
};

/// The in-process multi-tenant server. Thread contract:
///
///   * `OpenSession`, and every Session method, may run concurrently from
///     any number of threads, concurrently with the writer path.
///   * The writer path (`Add`/`Remove`/`Apply`) is internally serialized
///     per tenant (a writer mutex), so multiple callers are safe — they
///     queue. Each sweep publishes exactly one new epoch state.
///   * `CreateTenant` may race with everything; a duplicate name throws
///     before anything is published or recorded.
///
/// The Server must outlive every Session and every thread using it.
class Server {
 public:
  explicit Server(ServerOptions options = ServerOptions());
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers a tenant with an optionally pre-seeded catalog and
  /// publishes its first epoch. Throws std::invalid_argument if the name
  /// is already taken.
  void CreateTenant(const std::string& tenant,
                    const DependencySet& seed = DependencySet());
  bool HasTenant(const std::string& tenant) const;
  std::vector<std::string> Tenants() const;

  /// Writer path: applies the sweep to the tenant's master catalog (the
  /// tenant memo is swept per mutation with certificate-checked retention,
  /// while sessions keep reading it at their pinned epochs) and publishes
  /// ONE new epoch state at the end: the catalog value (by pointer) and a
  /// replica prover on the same memo. Throws
  /// std::out_of_range on unknown tenants.
  ApplyResult Apply(const std::string& tenant,
                    const std::vector<Mutation>& mutations);
  /// Single-mutation conveniences (one publish each).
  theory::ConstraintId Add(const std::string& tenant, OrderDependency dep);
  bool Remove(const std::string& tenant, theory::ConstraintId id);

  /// Pins the tenant's latest published epoch. Throws std::out_of_range
  /// on unknown tenants.
  Session OpenSession(const std::string& tenant);

  /// The latest published epoch / snapshot (what a new session would pin).
  uint64_t PublishedEpoch(const std::string& tenant) const;
  std::shared_ptr<const theory::TheorySnapshot> Catalog(
      const std::string& tenant) const;

  TenantStats Stats(const std::string& tenant) const;

  // -- Flight recorder ------------------------------------------------------

  /// The tenant's last min(n, capacity) profiled requests, oldest first.
  /// Throws std::out_of_range on unknown tenants.
  std::vector<QueryProfile> FlightRecorderTail(const std::string& tenant,
                                               size_t n = 32) const;
  /// The tenant's last min(n, capacity) *slow* requests, oldest first.
  std::vector<QueryProfile> SlowQueryLog(const std::string& tenant,
                                         size_t n = 32) const;
  /// The wall-time bound (µs) at/above which the tenant's next request
  /// would be classified slow right now — max(slow_query_floor_us, the
  /// request-latency histogram's p99 once ≥32 requests have been
  /// recorded).
  int64_t SlowQueryThresholdUs(const std::string& tenant) const;
  /// The status document `/statusz` serves, rendered here once for every
  /// tenant: `{"tenants":{"<name>":{<TenantStats fields>,
  /// "request_p50_us":..,"request_p95_us":..,"request_p99_us":..,
  /// "flight_recorder":<FlightRecorder::DumpJson of the last 32>}, ...}}`.
  /// Names and profile strings are escaped by common::AppendJsonString.
  std::string StatusJson() const;

 private:
  internal::TenantState& Tenant(const std::string& tenant) const;

  ServerOptions options_;
  mutable std::mutex tenants_mu_;
  std::map<std::string, std::unique_ptr<internal::TenantState>> tenants_;
};

}  // namespace service
}  // namespace od

#endif  // OD_SERVICE_SERVICE_H_
