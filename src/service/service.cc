#include "service/service.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "service/flight_recorder.h"

namespace od {
namespace service {

namespace internal {

/// Per-tenant registry instruments, labeled `tenant="<name>"` (escaped) so
/// one Prometheus scrape separates tenants — the "per-tenant scrape
/// is a label away" follow-through. References are process-lived.
struct TenantMetrics {
  common::Counter& sessions_opened;
  common::Counter& implies;
  common::Counter& fastpath_hits;
  common::Counter& publishes;
  common::Counter& memo_seeded;
  common::Counter& plans;
  common::Counter& slow_queries;
  common::Gauge& published_epoch;
  common::Gauge& pinned_sessions;
  common::Histogram& publish_us;
  common::Histogram& request_us;

  explicit TenantMetrics(const std::string& tenant)
      : TenantMetrics(common::MetricRegistry::Global(),
                      common::FormatLabel("tenant", tenant)) {}

 private:
  TenantMetrics(common::MetricRegistry& reg, const std::string& label)
      : sessions_opened(reg.GetCounter(
            "od_service_sessions_opened_total",
            "Sessions pinned to a published epoch", label)),
        implies(reg.GetCounter("od_service_implies_total",
                               "Implication queries served to sessions",
                               label)),
        fastpath_hits(reg.GetCounter(
            "od_service_fastpath_hits_total",
            "Implies answered from the tenant memo without opening a "
            "profiled request",
            label)),
        publishes(reg.GetCounter("od_service_publishes_total",
                                 "Epoch states published by the writer "
                                 "path",
                                 label)),
        memo_seeded(reg.GetCounter(
            "od_service_memo_seeded_total",
            "Memo entries the certificate sweeps carried into freshly "
            "published epochs",
            label)),
        plans(reg.GetCounter("od_service_plans_total",
                             "Physical plans built against pinned "
                             "snapshots",
                             label)),
        slow_queries(reg.GetCounter(
            "od_service_slow_queries_total",
            "Profiled requests at/above the tenant's slow-query threshold",
            label)),
        published_epoch(reg.GetGauge("od_service_published_epoch",
                                     "Latest catalog epoch published for "
                                     "this tenant",
                                     label)),
        pinned_sessions(reg.GetGauge(
            "od_service_pinned_sessions",
            "Live Session objects currently pinning an epoch", label)),
        publish_us(reg.GetHistogram(
            "od_service_publish_us",
            "Writer-path publication cost (replica prover adopting the "
            "catalog value + pointer swap), microseconds",
            label)),
        request_us(reg.GetHistogram(
            "od_service_request_us",
            "Wall time of profiled requests (Implies misses, ProveAll, "
            "Counterexample, Plan, Execute, Apply; memo fast-path hits "
            "excluded)",
            label)) {}
};

/// Everything a session needs at one (tenant, epoch): the immutable
/// snapshot and the frozen replica prover that reads and feeds the
/// tenant's memo at this epoch. Logically immutable after publication —
/// the memo synchronizes internally — so any number of sessions share one
/// EpochState by shared_ptr, and the state dies with its last session once
/// the writer has moved on. The memo itself is the tenant's and outlives
/// it.
struct EpochState {
  std::shared_ptr<const theory::TheorySnapshot> snapshot;
  std::shared_ptr<prover::Prover> prover;
};

struct TenantState {
  std::string name;
  TenantMetrics metrics;
  /// The server's scheduler (may be null: Session::ProveAll runs serially).
  common::ThreadPool* pool = nullptr;

  /// Flight-recorder ring size (main and slow ring each), and the latency
  /// quantile that joins the slow-query floor.
  static constexpr size_t kFlightRecorderCapacity = 128;
  static constexpr double kSlowQueryQuantile = 0.99;

  /// Last-N profiled requests (and the slow subset) for this tenant.
  FlightRecorder recorder;
  const int64_t slow_floor_us;

  /// Serializes the writer path (mutations + publication).
  std::mutex writer_mu;
  /// The writer's private mutable catalog. Only the writer path touches
  /// it; readers see it exclusively through published snapshots.
  std::shared_ptr<theory::Theory> master;
  /// Owns the tenant's one memo and rides master's change feed: its sweeps
  /// keep the memo sound at the head with the certificate-checked
  /// retention, and every published epoch prover is a replica sharing it.
  std::unique_ptr<prover::Prover> master_prover;

  /// Guards only the `published` pointer swap — held for a pointer copy,
  /// never across mutation or proving work.
  mutable std::mutex publish_mu;
  std::shared_ptr<const EpochState> published;

  TenantState(std::string tenant_name, const ServerOptions& options)
      : name(std::move(tenant_name)),
        metrics(name),
        recorder(kFlightRecorderCapacity),
        slow_floor_us(options.slow_query_floor_us) {}

  std::shared_ptr<const EpochState> Published() const {
    std::lock_guard<std::mutex> lock(publish_mu);
    return published;
  }

  /// max(floor, request-latency quantile) — the quantile joins once 32
  /// requests exist, so a cold tenant classifies against the floor alone.
  int64_t SlowThresholdUs() const {
    int64_t threshold = slow_floor_us;
    const common::HistogramSnapshot snap = metrics.request_us.Snapshot();
    if (snap.count >= 32) {
      const auto q =
          static_cast<int64_t>(snap.ValueAtQuantile(kSlowQueryQuantile));
      if (q > threshold) threshold = q;
    }
    return threshold;
  }

  /// Feeds the latency histogram, classifies against the threshold the
  /// *previous* requests established (this one is recorded first, so the
  /// very first request of a floor-0 tenant already classifies slow), and
  /// pushes into the flight recorder.
  void RecordProfile(QueryProfile p) {
    metrics.request_us.Record(p.wall_us);
    p.slow = p.wall_us >= SlowThresholdUs();
    if (p.slow) metrics.slow_queries.Add();
    recorder.Record(std::move(p));
  }
};

/// The request scope every profiled service entry point opens: installs a
/// TraceContext (a fresh one unless the caller is already inside a trace
/// or hands one to adopt), opens the root span, captures before-counters
/// from the request's prover, and on destruction assembles the
/// QueryProfile from the *deltas* and hands it to the tenant. Prover
/// deltas are per-instance, not global — but the epoch prover is shared
/// by every session at its epoch, so under concurrency a profile may
/// attribute a neighbor's searches to itself; approximate by construction,
/// never off by a global-counter reset.
class RequestProfiler {
 public:
  RequestProfiler(TenantState* tenant, const prover::Prover* prover,
                  uint64_t epoch, QueryProfile::Kind kind,
                  const char* span_name,
                  common::TraceContext adopt = common::TraceContext())
      : tenant_(tenant),
        prover_(prover),
        ctx_(ChooseContext(adopt)),
        root_(span_name),
        start_(std::chrono::steady_clock::now()) {
    profile_.kind = kind;
    profile_.tenant = tenant->name;
    profile_.epoch = epoch;
    profile_.trace_id = root_.context().trace_id;
    profile_.start_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            start_.time_since_epoch())
            .count();
    if (prover_ != nullptr) {
      searches_before_ = prover_->searches_executed();
      split_before_ = prover_->split_refutations();
      hits_before_ = prover_->cache_hits();
    }
  }

  ~RequestProfiler() {
    profile_.wall_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count();
    if (prover_ != nullptr) {
      profile_.prover_searches =
          prover_->searches_executed() - searches_before_;
      profile_.prover_split_refutations =
          prover_->split_refutations() - split_before_;
      profile_.prover_cache_hits = prover_->cache_hits() - hits_before_;
    }
    tenant_->RecordProfile(std::move(profile_));
  }

  RequestProfiler(const RequestProfiler&) = delete;
  RequestProfiler& operator=(const RequestProfiler&) = delete;

  QueryProfile& profile() { return profile_; }
  /// The root span's context — what children of this request parent
  /// under; stamp it on artifacts (plans) that outlive the request.
  common::TraceContext context() const { return root_.context(); }

 private:
  static common::TraceContext ChooseContext(common::TraceContext adopt) {
    if (adopt.trace_id != 0) return adopt;
    const common::TraceContext ambient = common::Tracer::CurrentContext();
    return ambient.trace_id != 0 ? ambient
                                 : common::TraceContext::NewRequest();
  }

  TenantState* tenant_;
  const prover::Prover* prover_;
  common::TraceContextScope ctx_;
  common::TraceSpan root_;
  std::chrono::steady_clock::time_point start_;
  int64_t searches_before_ = 0;
  int64_t split_before_ = 0;
  int64_t hits_before_ = 0;
  QueryProfile profile_;
};

}  // namespace internal

namespace {

/// Writer-path publication: hand the master's catalog value, uncopied, to
/// a replica prover on the tenant memo and swap the published pointer.
/// `seeded` is what the sweeps carried into this epoch. Caller holds
/// writer_mu.
void PublishLocked(internal::TenantState& tenant, int64_t seeded) {
  OD_TRACE_SPAN("service.publish");
  const auto start = std::chrono::steady_clock::now();
  auto state = std::make_shared<internal::EpochState>();
  state->snapshot = tenant.master->Snapshot();
  state->prover =
      std::make_shared<prover::Prover>(state->snapshot, *tenant.master_prover);
  {
    std::lock_guard<std::mutex> lock(tenant.publish_mu);
    tenant.published = state;
  }
  tenant.metrics.publishes.Add();
  tenant.metrics.memo_seeded.Add(seeded);
  tenant.metrics.published_epoch.Set(
      static_cast<int64_t>(state->snapshot->epoch));
  tenant.metrics.publish_us.Record(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// Session

Session::Session(internal::TenantState* tenant,
                 std::shared_ptr<const internal::EpochState> state)
    : tenant_(tenant), state_(std::move(state)) {
  tenant_->metrics.pinned_sessions.Add(1);
}

Session::Session(Session&& other) noexcept
    : tenant_(other.tenant_), state_(std::move(other.state_)) {
  other.tenant_ = nullptr;  // the pin travels; no gauge change
}

Session& Session::operator=(Session&& other) noexcept {
  if (this != &other) {
    Release();
    tenant_ = other.tenant_;
    state_ = std::move(other.state_);
    other.tenant_ = nullptr;
  }
  return *this;
}

Session::~Session() { Release(); }

void Session::Release() {
  if (tenant_ != nullptr) {
    tenant_->metrics.pinned_sessions.Add(-1);
    tenant_ = nullptr;
  }
  state_.reset();
}

const std::string& Session::tenant() const { return tenant_->name; }

uint64_t Session::epoch() const { return state_->snapshot->epoch; }

const theory::TheorySnapshot& Session::snapshot() const {
  return *state_->snapshot;
}

bool Session::Implies(const OrderDependency& dep) const {
  tenant_->metrics.implies.Add();
  // The memo fast path is deliberately NOT profiled (no root span, no
  // flight-recorder push): a hit is one shared-lock probe, and the
  // read-scaling contract (BM_ServiceReadNoChurn's CI gate) cannot afford
  // a per-hit mutex on the tenant's recorder ring.
  if (auto hit = state_->prover->CachedImplies(dep)) {
    tenant_->metrics.fastpath_hits.Add();
    return *hit;
  }
  internal::RequestProfiler prof(tenant_, state_->prover.get(), epoch(),
                                 QueryProfile::Kind::kImplies,
                                 "service.implies");
  prof.profile().detail = dep.ToString();
  return state_->prover->Implies(dep);
}

std::vector<bool> Session::ProveAll(
    const std::vector<OrderDependency>& deps) const {
  tenant_->metrics.implies.Add(static_cast<int64_t>(deps.size()));
  internal::RequestProfiler prof(tenant_, state_->prover.get(), epoch(),
                                 QueryProfile::Kind::kProveAll,
                                 "service.prove_all");
  prof.profile().detail = std::to_string(deps.size()) + " queries";
  return state_->prover->ProveAll(deps, tenant_->pool);
}

std::optional<Relation> Session::Counterexample(
    const OrderDependency& dep) const {
  tenant_->metrics.implies.Add();
  internal::RequestProfiler prof(tenant_, state_->prover.get(), epoch(),
                                 QueryProfile::Kind::kCounterexample,
                                 "service.counterexample");
  prof.profile().detail = dep.ToString();
  return state_->prover->Counterexample(dep);
}

opt::PhysicalPlan Session::Plan(opt::LogicalQuery q,
                                const opt::CostModel& cost,
                                const opt::PlanOptions& options) const {
  tenant_->metrics.plans.Add();
  internal::RequestProfiler prof(tenant_, state_->prover.get(), epoch(),
                                 QueryProfile::Kind::kPlan, "service.plan");
  prof.profile().detail =
      std::to_string(q.tables.size()) + " tables, dop " +
      std::to_string(options.dop);
  for (auto& table : q.tables) {
    if (table.ods == nullptr && table.prover == nullptr) {
      // Bind the pinned catalog AND its shared epoch prover, so the
      // planner's elision proofs read and feed the (tenant, epoch) memo.
      table.ods = state_->prover->shared_theory();
      table.prover = state_->prover;
    }
  }
  opt::PhysicalPlan plan = opt::PlanQuery(q, cost, options);
  // The plan remembers the request it was planned under, so a deferred
  // Execute parents its spans in the same trace (see PhysicalPlan).
  plan.set_trace_context(prof.context());
  prof.profile().sorts_elided = plan.sorts_elided();
  prof.profile().joins_elided = plan.joins_elided();
  return plan;
}

engine::Table Session::Execute(const opt::PhysicalPlan& plan,
                               opt::ExecStats* stats) const {
  internal::RequestProfiler prof(tenant_, state_->prover.get(), epoch(),
                                 QueryProfile::Kind::kExecute,
                                 "service.execute", plan.trace_context());
  prof.profile().detail = "dop " + std::to_string(plan.options().dop);
  opt::ExecStats local;
  engine::Table out = plan.Execute(&local);
  QueryProfile& p = prof.profile();
  p.sorts_elided = local.sorts_elided;
  p.joins_elided = local.joins_elided;
  p.rows_output = local.rows_output;
  p.spilled_bytes = local.spilled_bytes;
  p.exchange_peak_rows = local.exchange_peak_rows;
  if (stats != nullptr) stats->Merge(local);
  return out;
}

void Session::Refresh() { state_ = tenant_->Published(); }

const prover::Prover& Session::pinned_prover() const {
  return *state_->prover;
}

// ---------------------------------------------------------------------------
// Server

Server::Server(ServerOptions options) : options_(options) {}

Server::~Server() = default;

void Server::CreateTenant(const std::string& tenant,
                          const DependencySet& seed) {
  // Held throughout: a duplicate name, racing or not, is rejected before
  // it publishes or records into the live tenant's labeled metrics.
  std::lock_guard<std::mutex> lock(tenants_mu_);
  if (tenants_.count(tenant) > 0) {
    throw std::invalid_argument("Server::CreateTenant: tenant '" + tenant +
                                "' already exists");
  }
  auto state = std::make_unique<internal::TenantState>(tenant, options_);
  state->pool = options_.pool;
  state->master = std::make_shared<theory::Theory>(seed);
  state->master_prover = std::make_unique<prover::Prover>(state->master);
  // Publication needs no writer_mu here: the tenant is not yet visible.
  PublishLocked(*state, /*seeded=*/0);
  tenants_.emplace(tenant, std::move(state));
}

bool Server::HasTenant(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  return tenants_.count(tenant) > 0;
}

std::vector<std::string> Server::Tenants() const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  std::vector<std::string> out;
  out.reserve(tenants_.size());
  for (const auto& [name, state] : tenants_) out.push_back(name);
  return out;
}

internal::TenantState& Server::Tenant(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    throw std::out_of_range("od::service: unknown tenant '" + tenant + "'");
  }
  return *it->second;
}

ApplyResult Server::Apply(const std::string& tenant,
                          const std::vector<Mutation>& mutations) {
  internal::TenantState& state = Tenant(tenant);
  // The master prover is the writer path's prover: its deltas count the
  // work this sweep caused.
  internal::RequestProfiler prof(&state, state.master_prover.get(),
                                 /*epoch=*/0, QueryProfile::Kind::kApply,
                                 "service.apply");
  prof.profile().detail =
      std::to_string(mutations.size()) + " mutations";
  std::lock_guard<std::mutex> writer(state.writer_mu);
  const uint64_t before = state.master->epoch();
  ApplyResult result;
  for (const Mutation& m : mutations) {
    if (m.kind == Mutation::Kind::kAdd) {
      // The master prover's listener sweeps the tenant memo here, keeping
      // entries whose certificates survive — the incremental-reproving
      // payoff — while sessions keep reading it at their pinned epochs.
      result.added.push_back(state.master->Add(m.od));
    } else if (state.master->Remove(m.id)) {
      ++result.removed;
    }
  }
  result.epoch = state.master->epoch();
  if (result.epoch != before) {
    result.memo_seeded = state.master_prover->last_sweep_kept();
  }
  PublishLocked(state, result.memo_seeded);
  prof.profile().epoch = result.epoch;
  return result;
}

theory::ConstraintId Server::Add(const std::string& tenant,
                                 OrderDependency dep) {
  return Apply(tenant, {Mutation::Add(std::move(dep))}).added.front();
}

bool Server::Remove(const std::string& tenant, theory::ConstraintId id) {
  return Apply(tenant, {Mutation::Remove(id)}).removed > 0;
}

Session Server::OpenSession(const std::string& tenant) {
  OD_TRACE_SPAN("service.open_session");
  internal::TenantState& state = Tenant(tenant);
  state.metrics.sessions_opened.Add();
  return Session(&state, state.Published());
}

uint64_t Server::PublishedEpoch(const std::string& tenant) const {
  return Tenant(tenant).Published()->snapshot->epoch;
}

std::shared_ptr<const theory::TheorySnapshot> Server::Catalog(
    const std::string& tenant) const {
  return Tenant(tenant).Published()->snapshot;
}

TenantStats Server::Stats(const std::string& tenant) const {
  internal::TenantState& state = Tenant(tenant);
  auto published = state.Published();
  TenantStats stats;
  stats.epoch = published->snapshot->epoch;
  stats.catalog_size = published->snapshot->deps.Size();
  stats.epoch_memo_size = published->prover->memo_size();
  stats.epoch_searches = published->prover->searches_executed();
  stats.epoch_split_refutations = published->prover->split_refutations();
  stats.epoch_cache_hits = published->prover->cache_hits();
  stats.memo_invalidated = state.master_prover->entries_invalidated();
  stats.memo_retained = state.master_prover->entries_retained();
  stats.sessions_opened = state.metrics.sessions_opened.Value();
  stats.pinned_sessions = state.metrics.pinned_sessions.Value();
  stats.profiles_recorded = state.recorder.total_recorded();
  stats.slow_queries = state.recorder.slow_recorded();
  stats.slow_threshold_us = state.SlowThresholdUs();
  stats.request_us = state.metrics.request_us.Snapshot();
  return stats;
}

std::vector<QueryProfile> Server::FlightRecorderTail(
    const std::string& tenant, size_t n) const {
  return Tenant(tenant).recorder.Tail(n);
}

std::vector<QueryProfile> Server::SlowQueryLog(const std::string& tenant,
                                               size_t n) const {
  return Tenant(tenant).recorder.SlowTail(n);
}

int64_t Server::SlowQueryThresholdUs(const std::string& tenant) const {
  return Tenant(tenant).SlowThresholdUs();
}

namespace {

/// Profiles (and slow profiles) per tenant in the status document.
constexpr size_t kStatusFlightTail = 32;

std::string Quantile(const common::HistogramSnapshot& snap, double q) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", snap.ValueAtQuantile(q));
  return buf;
}

}  // namespace

std::string Server::StatusJson() const {
  std::string out = "{\"tenants\":{";
  // No API removes a tenant, so every listed name stays known.
  for (const std::string& name : Tenants()) {
    if (out.back() != '{') out += ",";
    common::AppendJsonString(name, &out);
    const TenantStats stats = Stats(name);
    out += ":{\"epoch\":" + std::to_string(stats.epoch);
    out += ",\"catalog_size\":" + std::to_string(stats.catalog_size);
    out += ",\"sessions_opened\":" + std::to_string(stats.sessions_opened);
    out += ",\"pinned_sessions\":" + std::to_string(stats.pinned_sessions);
    out += ",\"epoch_memo_size\":" + std::to_string(stats.epoch_memo_size);
    out += ",\"epoch_searches\":" + std::to_string(stats.epoch_searches);
    out += ",\"epoch_split_refutations\":" +
           std::to_string(stats.epoch_split_refutations);
    out += ",\"epoch_cache_hits\":" + std::to_string(stats.epoch_cache_hits);
    out += ",\"profiles_recorded\":" +
           std::to_string(stats.profiles_recorded);
    out += ",\"slow_queries\":" + std::to_string(stats.slow_queries);
    out += ",\"slow_threshold_us\":" +
           std::to_string(stats.slow_threshold_us);
    out += ",\"request_p50_us\":" + Quantile(stats.request_us, 0.50);
    out += ",\"request_p95_us\":" + Quantile(stats.request_us, 0.95);
    out += ",\"request_p99_us\":" + Quantile(stats.request_us, 0.99);
    out += ",\"flight_recorder\":" +
           Tenant(name).recorder.DumpJson(kStatusFlightTail) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace service
}  // namespace od
