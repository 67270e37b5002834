// reports_od / reports_blind: a closed loop of 2 client threads, each
// request = Server::OpenSession + Session::Plan + Session::Execute of one of
// 15 reports (the 13 TPC-DS date templates, daily sales, and the Example 5
// tax ORDER BY). The two workloads differ only in the tenant catalogs:
// DateDimOds / TaxOds (OD-aware) versus empty (OD-blind).
//
// The clients run in rounds, in lock step: in each round both issue the 15
// reports in their own shuffled order, then both check their answers off
// the clock. Latency and throughput are measured with both clients issuing
// requests; the throughput divisor is the rounds' request windows.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>

#include "common/thread_pool.h"
#include "engine/index.h"
#include "harness.h"
#include "prover/prover.h"
#include "service/service.h"
#include "warehouse/date_dim.h"
#include "warehouse/queries.h"
#include "warehouse/star_schema.h"
#include "warehouse/tax_schedule.h"
#include "workloads.h"

namespace perfbench {
namespace {

using od::engine::AggSpec;
using od::engine::Predicate;
using od::engine::Table;
using od::opt::PhysicalNode;

constexpr int kClients = 2;
constexpr int kPoolThreads = 3;  // the caller plus 2 worker threads
constexpr int kDop = 2;
// A tenth of bench_exec's sizes (1M fact rows, 1.2M tax rows). At full
// size the OD-aware plans' index gathers are bound by cache misses on a
// working set of ~100 MB, and on a shared host their speed followed the
// neighbours' cache use: reports_od medians moved 3x between runs of one
// build. At a tenth, interleaved runs spread 3.6% instead of 9.1%.
constexpr int64_t kFactRows = 100000;
constexpr int kDimYears = 5;
constexpr int64_t kTaxRows = 120000;
constexpr int64_t kSpillBudgetRows = 40000;
constexpr int kSetupRepeats = 5;

enum class Shape { kDate, kTax };

struct Report {
  std::string name;
  std::string tenant;
  Shape shape;
  od::opt::LogicalQuery query;
};

/// Order-independent fingerprint of a row multiset plus its size.
struct Fingerprint {
  uint64_t sum = 0;
  uint64_t xor_mix = 0;
  int64_t rows = 0;
  bool operator==(const Fingerprint& o) const {
    return sum == o.sum && xor_mix == o.xor_mix && rows == o.rows;
  }
};

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t CellBits(const od::engine::Column& c, int64_t row) {
  switch (c.type()) {
    case od::engine::DataType::kInt64:
      return static_cast<uint64_t>(c.Int(row));
    case od::engine::DataType::kDouble: {
      uint64_t bits = 0;
      const double d = c.Double(row);
      std::memcpy(&bits, &d, sizeof bits);
      return bits;
    }
    case od::engine::DataType::kString:
      return std::hash<std::string>()(c.Str(row));
  }
  return 0;
}

Fingerprint TableFingerprint(const Table& t) {
  Fingerprint f;
  f.rows = t.num_rows();
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    uint64_t h = 0;
    for (int c = 0; c < t.num_columns(); ++c) {
      h = Mix(h ^ CellBits(t.col(c), r));
    }
    f.sum += h;
    f.xor_mix ^= Mix(h);
  }
  return f;
}

/// The expected answer of one report, computed by the benchmark itself
/// (independent of libod's operators) from the generated tables.
struct Expected {
  Shape shape = Shape::kDate;
  // Date reports: group key -> aggregate values, plus the ORDER BY (group
  // column positions that must ascend in the result).
  std::map<std::vector<int64_t>, std::vector<double>> groups;
  bool ordered = false;
  // Tax report: the full row multiset, ordered by the ORDER BY columns.
  Fingerprint fingerprint;
  std::vector<od::engine::ColumnId> order_by;
};

bool PredicateHolds(const Predicate& p, int64_t v) {
  using Op = Predicate::Op;
  const int64_t lo = p.lo.AsInt();
  switch (p.op) {
    case Op::kEq: return v == lo;
    case Op::kLt: return v < lo;
    case Op::kLe: return v <= lo;
    case Op::kGt: return v > lo;
    case Op::kGe: return v >= lo;
    case Op::kBetween: return v >= lo && v <= p.hi.AsInt();
  }
  return false;
}

/// Naive evaluation of fact ⋈ date_dim WHERE <dim preds> GROUP BY <fact
/// cols> with the report's aggregates.
Expected EvaluateDateReport(const od::opt::LogicalQuery& q) {
  const Table& fact = *q.tables[0].table;
  const Table& dim = *q.tables[1].table;
  const od::opt::JoinClause& join = q.joins.at(0);
  const int64_t first_sk = dim.col(join.right_col).Int(0);
  std::vector<char> dim_ok(static_cast<size_t>(dim.num_rows()), 1);
  for (int64_t r = 0; r < dim.num_rows(); ++r) {
    if (dim.col(join.right_col).Int(r) != first_sk + r) {
      throw std::runtime_error("date_dim surrogate keys are not dense");
    }
    for (const Predicate& p : q.filters.at(1)) {
      if (!PredicateHolds(p, dim.col(p.col).Int(r))) dim_ok[r] = 0;
    }
  }
  struct Acc {
    double sum = 0;
    double max = -INFINITY;
    double min = INFINITY;
    int64_t count = 0;
  };
  std::map<std::vector<int64_t>, std::vector<Acc>> accs;
  std::vector<int64_t> key(q.group_cols.size());
  for (int64_t r = 0; r < fact.num_rows(); ++r) {
    const int64_t sk = fact.col(join.left_col).Int(r);
    const int64_t d = sk - first_sk;
    if (d < 0 || d >= dim.num_rows() || !dim_ok[d]) continue;
    for (size_t g = 0; g < key.size(); ++g) {
      key[g] = fact.col(q.group_cols[g]).Int(r);
    }
    std::vector<Acc>& a = accs[key];
    a.resize(q.aggs.size());
    for (size_t i = 0; i < q.aggs.size(); ++i) {
      ++a[i].count;
      if (q.aggs[i].kind == AggSpec::Kind::kCount) continue;
      const double v = fact.col(q.aggs[i].col).Numeric(r);
      a[i].sum += v;
      a[i].max = std::max(a[i].max, v);
      a[i].min = std::min(a[i].min, v);
    }
  }
  Expected e;
  e.shape = Shape::kDate;
  e.ordered = !q.order_by.empty();
  for (const auto& [k, a] : accs) {
    std::vector<double> vals;
    for (size_t i = 0; i < q.aggs.size(); ++i) {
      switch (q.aggs[i].kind) {
        case AggSpec::Kind::kCount:
          vals.push_back(static_cast<double>(a[i].count));
          break;
        case AggSpec::Kind::kSum: vals.push_back(a[i].sum); break;
        case AggSpec::Kind::kMin: vals.push_back(a[i].min); break;
        case AggSpec::Kind::kMax: vals.push_back(a[i].max); break;
        case AggSpec::Kind::kAvg:
          vals.push_back(a[i].sum / static_cast<double>(a[i].count));
          break;
      }
    }
    e.groups.emplace(k, std::move(vals));
  }
  return e;
}

Expected EvaluateTaxReport(const od::opt::LogicalQuery& q) {
  Expected e;
  e.shape = Shape::kTax;
  e.fingerprint = TableFingerprint(*q.tables[0].table);
  e.order_by = q.order_by;
  return e;
}

bool Close(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= 1e-9 * scale;
}

/// Compares one report result with its expected answer; on mismatch fills
/// `why` and returns false.
bool CheckReport(const Expected& e, const Table& out, std::string* why) {
  if (e.shape == Shape::kTax) {
    const Fingerprint got = TableFingerprint(out);
    if (!(got == e.fingerprint)) {
      *why = "row multiset differs (" + std::to_string(got.rows) +
             " rows vs " + std::to_string(e.fingerprint.rows) + ")";
      return false;
    }
    for (int64_t r = 1; r < out.num_rows(); ++r) {
      if (out.CompareRows(r - 1, r, e.order_by) > 0) {
        *why = "ORDER BY violated at row " + std::to_string(r);
        return false;
      }
    }
    return true;
  }
  const size_t num_groups = e.groups.empty() ? 0 : e.groups.begin()->first.size();
  const size_t num_aggs = e.groups.empty() ? 0 : e.groups.begin()->second.size();
  if (out.num_rows() != static_cast<int64_t>(e.groups.size())) {
    *why = std::to_string(out.num_rows()) + " rows vs " +
           std::to_string(e.groups.size());
    return false;
  }
  if (out.num_rows() == 0) return true;
  if (out.num_columns() != static_cast<int>(num_groups + num_aggs)) {
    *why = "column count " + std::to_string(out.num_columns());
    return false;
  }
  std::vector<int64_t> key(num_groups);
  std::vector<int64_t> prev;
  std::map<std::vector<int64_t>, int> seen;
  for (int64_t r = 0; r < out.num_rows(); ++r) {
    for (size_t g = 0; g < num_groups; ++g) {
      key[g] = out.col(static_cast<int>(g)).Int(r);
    }
    if (e.ordered && r > 0 && !(prev < key)) {
      *why = "ORDER BY violated at row " + std::to_string(r);
      return false;
    }
    prev = key;
    auto it = e.groups.find(key);
    if (it == e.groups.end() || ++seen[key] > 1) {
      *why = "unexpected or repeated group at row " + std::to_string(r);
      return false;
    }
    for (size_t a = 0; a < num_aggs; ++a) {
      const double got = out.col(static_cast<int>(num_groups + a)).Numeric(r);
      if (!Close(got, it->second[a])) {
        *why = "aggregate " + std::to_string(a) + " at row " +
               std::to_string(r) + " is " + std::to_string(got) +
               ", expected " + std::to_string(it->second[a]);
        return false;
      }
    }
  }
  return true;
}

/// One complete set-up: data, indexes, pool, server and tenants, warm memo.
struct ReportState {
  Table dim;
  Table fact;
  Table taxes;
  std::unique_ptr<od::engine::OrderedIndex> fact_index;
  std::unique_ptr<od::engine::OrderedIndex> income_index;
  std::unique_ptr<od::common::ThreadPool> pool;
  std::unique_ptr<od::service::Server> server;
  std::vector<Report> reports;
  od::opt::PlanOptions options;
  int start_year = 0;
  double index_build_ms = 0;
};

/// Builds the 15 report queries. The fact table gets an explicit empty
/// catalog, so Session::Plan binds the tenant catalog only to the table it
/// describes (date_dim, taxes); a prover shared across requests serves that
/// empty catalog, as the epoch prover serves the bound ones.
std::vector<Report> BuildReports(const ReportState& s) {
  auto no_ods = std::make_shared<od::theory::Theory>();
  auto no_ods_prover = std::make_shared<od::prover::Prover>(no_ods);
  std::vector<Report> reports;
  for (const od::opt::DateRangeQuery& q :
       od::warehouse::TpcdsDateQueries(s.start_year, kDimYears)) {
    Report r{q.name, "dates", Shape::kDate,
             od::warehouse::ToLogicalQuery(q, &s.fact, &s.dim,
                                           s.fact_index.get(), nullptr,
                                           nullptr)};
    r.query.tables[0].ods = no_ods;
    r.query.tables[0].prover = no_ods_prover;
    reports.push_back(std::move(r));
  }
  Report daily{"daily_sales", "dates", Shape::kDate,
               od::warehouse::DailySalesQuery(&s.fact, &s.dim,
                                              s.fact_index.get(), nullptr,
                                              nullptr, s.start_year + 1)};
  daily.query.tables[0].ods = no_ods;
  daily.query.tables[0].prover = no_ods_prover;
  reports.push_back(std::move(daily));
  reports.push_back(Report{
      "tax_order_by", "tax", Shape::kTax,
      od::warehouse::TaxOrderByQuery(&s.taxes, s.income_index.get(),
                                     nullptr)});
  return reports;
}

struct Outcome {
  Table table;
  od::opt::ExecStats stats;
  od::opt::PhysicalPlan plan;
  double latency_ms = 0;
  double open_us = 0;
  double plan_us = 0;
  double execute_us = 0;
};

Outcome RunReport(ReportState& s, const Report& r) {
  Outcome o;
  RequestScope request;
  od::common::TraceSpan root("bench.report");
  const int64_t start = NowNs();
  od::service::Session session = [&] {
    od::common::TraceSpan span("bench.open_session");
    return s.server->OpenSession(r.tenant);
  }();
  const int64_t opened = NowNs();
  {
    od::common::TraceSpan span("bench.plan");
    o.plan = session.Plan(r.query, od::opt::CostModel(), s.options);
  }
  const int64_t planned = NowNs();
  {
    od::common::TraceSpan span("bench.execute");
    o.table = session.Execute(o.plan, &o.stats);
  }
  const int64_t end = NowNs();
  o.latency_ms = static_cast<double>(end - start) / 1e6;
  o.open_us = static_cast<double>(opened - start) / 1e3;
  o.plan_us = static_cast<double>(planned - opened) / 1e3;
  o.execute_us = static_cast<double>(end - planned) / 1e3;
  return o;
}

std::unique_ptr<ReportState> SetUp(uint32_t seed, bool od_aware,
                                   const std::string& spill_dir) {
  auto s = std::make_unique<ReportState>();
  s->start_year = 1990 + static_cast<int>(seed % 20);
  s->dim = od::warehouse::GenerateDateDim(s->start_year, kDimYears);
  s->fact = od::warehouse::GenerateStoreSales(
      kFactRows, s->dim.col(0).Int(0), s->dim.num_rows(), /*num_items=*/100,
      /*num_stores=*/10, seed);
  s->taxes = od::warehouse::GenerateTaxTable(kTaxRows, /*max_income=*/250000,
                                             seed ^ 0x5bd1e995u);
  {
    const int64_t start = NowNs();
    s->fact_index = std::make_unique<od::engine::OrderedIndex>(
        &s->fact, od::engine::SortSpec{0});
    s->income_index = std::make_unique<od::engine::OrderedIndex>(
        &s->taxes, od::engine::SortSpec{od::warehouse::TaxColumns().income});
    s->index_build_ms = static_cast<double>(NowNs() - start) / 1e6;
  }
  s->pool = std::make_unique<od::common::ThreadPool>(kPoolThreads);
  od::service::ServerOptions server_options;
  server_options.pool = s->pool.get();
  s->server = std::make_unique<od::service::Server>(server_options);
  s->server->CreateTenant(
      "dates", od_aware ? od::warehouse::DateDimOds() : od::DependencySet());
  s->server->CreateTenant(
      "tax", od_aware ? od::warehouse::TaxOds() : od::DependencySet());
  s->options.dop = kDop;
  s->options.pool = s->pool.get();
  s->options.spill_budget_rows = kSpillBudgetRows;
  s->options.spill_dir = spill_dir;
  s->reports = BuildReports(*s);
  // Warm-up: every report once, so the epoch memos hold the proofs.
  for (const Report& r : s->reports) RunReport(*s, r);
  return s;
}

/// Plan-shape assertions: OD-aware date reports pay no sort and elide the
/// join; the OD-aware tax report pays no sort; OD-blind plans elide no join.
bool CheckShape(bool od_aware, const Report& r, const Outcome& o,
                std::string* why) {
  if (od_aware) {
    if (o.stats.sorts != 0) {
      *why = std::to_string(o.stats.sorts) + " sorts paid";
      return false;
    }
    if (r.shape == Shape::kDate && o.plan.joins_elided() != 1) {
      *why = std::to_string(o.plan.joins_elided()) + " joins elided";
      return false;
    }
  } else if (o.plan.joins_elided() != 0) {
    *why = "join elided without ODs";
    return false;
  }
  return true;
}

const char* KindName(PhysicalNode::Kind k) {
  using K = PhysicalNode::Kind;
  switch (k) {
    case K::kScan: return "scan";
    case K::kIndexScan: return "index_scan";
    case K::kPartitionedScan: return "partitioned_scan";
    case K::kFilter: return "filter";
    case K::kProject: return "project";
    case K::kSort: return "sort";
    case K::kTopK: return "topk";
    case K::kLimit: return "limit";
    case K::kStreamAgg: return "stream_agg";
    case K::kHashAgg: return "hash_agg";
    case K::kMergeJoin: return "merge_join";
    case K::kHashJoin: return "hash_join";
    case K::kExchange: return "exchange";
    case K::kParallelHashAgg: return "parallel_hash_agg";
    case K::kCombinePartials: return "combine_partials";
  }
  return "unknown";
}

/// Walks an executed plan. Per-operator self time is a node's inclusive
/// time minus its timed children's; fragment templates under an exchange
/// are never timed, so their work rolls up into the exchange. Each node
/// that ran also contributes its row-estimate error, |actual - est| /
/// max(actual, 1), in percent.
void WalkPlan(const PhysicalNode& n, std::map<std::string, double>* self_ns,
              std::vector<double>* row_err_pct) {
  if (n.actual_ns < 0) return;
  int64_t self = n.actual_ns;
  for (const auto& c : n.children) {
    if (c->actual_ns >= 0) self -= c->actual_ns;
  }
  (*self_ns)[KindName(n.kind)] +=
      static_cast<double>(std::max<int64_t>(self, 0));
  if (n.actual_rows >= 0) {
    const double actual = static_cast<double>(n.actual_rows);
    row_err_pct->push_back(100 * std::fabs(actual - n.est_rows) /
                           std::max(actual, 1.0));
  }
  for (const auto& c : n.children) WalkPlan(*c, self_ns, row_err_pct);
}

/// What one measured phase produced.
struct Phase {
  std::vector<std::vector<double>> latency_ms;  // per report
  std::vector<double> open_us, plan_us, execute_us;
  double request_s = 0;  // wall time of the rounds' request windows
  int64_t completed = 0;
  int64_t failed = 0;
  // Per-layer accumulators (summed over requests).
  od::opt::ExecStats stats;
  int64_t sorts_elided = 0;
  int64_t joins_elided = 0;
  std::map<std::string, double> self_ns;
  std::vector<double> row_err_pct;
  int64_t max_queue_depth = 0;
};

/// Lets kClients threads proceed in lock step. The last thread to arrive
/// runs `on_last` before any is released.
class Barrier {
 public:
  template <class F>
  void ArriveAndWait(F on_last) {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t generation = generation_;
    if (++arrived_ == kClients) {
      on_last();
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return generation_ != generation; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  uint64_t generation_ = 0;
};

Phase RunPhase(ReportState& s, const std::map<std::string, Expected>& expected,
               bool od_aware, uint32_t seed, double seconds) {
  const size_t n = s.reports.size();
  std::vector<Phase> per_client(kClients);
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  od::common::Gauge& queue_depth =
      od::common::MetricRegistry::Global().GetGauge(
          "od_threadpool_queue_depth");
  Barrier barrier;
  bool stop = false;          // written by the barrier's last arrival
  int64_t window_start = 0;   // same
  int64_t request_ns = 0;     // same
  auto client = [&](int c) {
    Phase& p = per_client[c];
    p.latency_ms.resize(n);
    std::mt19937 rng(seed * 7919u + static_cast<uint32_t>(c));
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::vector<Outcome> outcomes(n);
    int failures_printed = 0;
    for (;;) {
      barrier.ArriveAndWait([&] {
        window_start = NowNs();
        stop = window_start >= deadline;
      });
      if (stop) break;
      std::shuffle(order.begin(), order.end(), rng);
      for (size_t i : order) {
        outcomes[i] = RunReport(s, s.reports[i]);
        p.max_queue_depth = std::max(p.max_queue_depth, queue_depth.Value());
      }
      barrier.ArriveAndWait([&] { request_ns += NowNs() - window_start; });
      // Off the clock: check every answer and account for it.
      for (size_t i = 0; i < n; ++i) {
        const Report& r = s.reports[i];
        const Outcome& o = outcomes[i];
        std::string why;
        const bool ok = CheckShape(od_aware, r, o, &why) &&
                        CheckReport(expected.at(r.name), o.table, &why);
        ++p.completed;
        if (!ok) {
          ++p.failed;
          if (failures_printed++ < 3) {
            std::cerr << "FAILED " << r.name << ": " << why << "\n";
          }
        }
        p.latency_ms[i].push_back(o.latency_ms);
        p.open_us.push_back(o.open_us);
        p.plan_us.push_back(o.plan_us);
        p.execute_us.push_back(o.execute_us);
        p.stats.Merge(o.stats);
        p.sorts_elided += o.plan.sorts_elided();
        p.joins_elided += o.plan.joins_elided();
        if (od::common::Tracer::Global().enabled()) {
          WalkPlan(o.plan.root(), &p.self_ns, &p.row_err_pct);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();

  Phase total;
  total.latency_ms.resize(n);
  total.request_s = static_cast<double>(request_ns) / 1e9;
  auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  for (const Phase& p : per_client) {
    for (size_t i = 0; i < n; ++i) {
      append(&total.latency_ms[i], p.latency_ms[i]);
    }
    append(&total.open_us, p.open_us);
    append(&total.plan_us, p.plan_us);
    append(&total.execute_us, p.execute_us);
    total.completed += p.completed;
    total.failed += p.failed;
    total.stats.Merge(p.stats);
    total.sorts_elided += p.sorts_elided;
    total.joins_elided += p.joins_elided;
    for (const auto& [k, v] : p.self_ns) total.self_ns[k] += v;
    append(&total.row_err_pct, p.row_err_pct);
    total.max_queue_depth = std::max(total.max_queue_depth, p.max_queue_depth);
  }
  return total;
}

/// Geometric mean over the reports of one quantile of each report's
/// latency: one per-report figure, so the mix of cheap and heavy reports
/// cannot move it.
double GeoMeanOfQuantile(const Phase& p, double q) {
  std::vector<double> per_report;
  for (const auto& samples : p.latency_ms) {
    if (!samples.empty()) per_report.push_back(Quantile(samples, q));
  }
  return GeoMean(per_report);
}

/// Negative control: the checker must reject a wrong answer. First a
/// synthetic one (a result with one group dropped), then — on the OD-aware
/// tenants — the plan Session::Plan builds when the fact table is left
/// unbound: the tenant's date_dim catalog is then applied to store_sales
/// column ids, the planner "proves" [ss_sold_date_sk] orders
/// [ss_store_sk], and a stream aggregate runs over non-contiguous groups.
/// Returns false when the checker accepted a wrong answer.
bool CheckerSelfTest(ReportState& s,
                     const std::map<std::string, Expected>& expected,
                     bool od_aware) {
  const Report& q01 = s.reports.front();
  Outcome good = RunReport(s, q01);
  std::string why;
  if (!CheckReport(expected.at(q01.name), good.table, &why)) {
    std::cout << "self-test: correct q01 rejected: " << why << "\n";
    return false;
  }
  std::vector<int64_t> keep;
  for (int64_t r = 1; r < good.table.num_rows(); ++r) keep.push_back(r);
  if (CheckReport(expected.at(q01.name), good.table.Gather(keep), &why)) {
    std::cout << "self-test: result with a dropped group accepted\n";
    return false;
  }
  if (!od_aware) return true;
  Report unbound = q01;
  unbound.query.tables[0].ods = nullptr;
  unbound.query.tables[0].prover = nullptr;
  Outcome bad = RunReport(s, unbound);
  if (CheckReport(expected.at(q01.name), bad.table, &why)) {
    std::cout << "self-test: unbound-fact q01 returned the correct "
              << bad.table.num_rows()
              << " rows (the catalog mis-binding is fixed upstream)\n";
    return true;
  }
  std::cout << "self-test: unbound-fact q01 rejected as expected: " << why
            << "\n";
  return true;
}

}  // namespace

WorkloadResult RunReports(const Args& args, bool od_aware) {
  const std::string spill_dir = args.out_dir + "/spill";
  std::filesystem::create_directories(spill_dir);
  std::vector<double> setup_s;
  std::vector<double> index_ms;
  std::unique_ptr<ReportState> state;
  for (int i = 0; i < kSetupRepeats; ++i) {
    state.reset();
    const int64_t start = NowNs();
    state = SetUp(args.seed, od_aware, spill_dir);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    index_ms.push_back(state->index_build_ms);
  }
  ReportState& s = *state;

  std::map<std::string, Expected> expected;
  for (const Report& r : s.reports) {
    expected[r.name] = r.shape == Shape::kTax ? EvaluateTaxReport(r.query)
                                              : EvaluateDateReport(r.query);
  }
  if (!CheckerSelfTest(s, expected, od_aware)) {
    throw std::runtime_error("checker self-test failed");
  }

  WorkloadResult result;
  auto add_e2e = [&](const Phase& p) {
    result.attempted += p.completed;
    result.failed += p.failed;
  };
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  Phase plain = RunPhase(s, expected, od_aware, args.seed, untraced_s);
  add_e2e(plain);
  const double plain_geomean = GeoMeanOfQuantile(plain, 0.5);

  for (size_t i = 0; i < s.reports.size(); ++i) {
    result.class_medians_ms[s.reports[i].name] = Median(plain.latency_ms[i]);
  }
  result.threads = {{"clients", kClients},
                    {"pool_workers", kPoolThreads - 1},
                    {"dop", kDop}};

  MetricTable& e2e = result.end_to_end;
  e2e["setup_s"] = {Median(setup_s), "s"};
  e2e["request_geomean_ms"] = {plain_geomean, "ms"};
  e2e["requests_per_s"] = {
      static_cast<double>(plain.completed) / plain.request_s, "1/s"};
  if (!args.trace) return result;

  od::common::Tracer::Global().Enable();
  RegistryDelta registry;
  Phase traced = RunPhase(s, expected, od_aware, args.seed + 1,
                          args.seconds - untraced_s);
  od::common::Tracer::Global().Disable();
  add_e2e(traced);

  MetricTable& layer = result.per_layer;
  layer["request.p95_geomean_ms"] = {GeoMeanOfQuantile(plain, 0.95), "ms"};
  const double reqs = static_cast<double>(std::max<int64_t>(traced.completed, 1));
  layer["service.open_session_us"] = {Median(traced.open_us), "us"};
  layer["service.plan_us"] = {Median(traced.plan_us), "us"};
  layer["service.execute_us"] = {Median(traced.execute_us), "us"};
  const double searches =
      static_cast<double>(registry.Counter("od_prover_searches_total"));
  const double hits =
      static_cast<double>(registry.Counter("od_prover_memo_hits_total"));
  layer["prover.searches"] = {searches / reqs, "1/req"};
  layer["prover.memo_hits"] = {hits / reqs, "1/req"};
  layer["prover.hit_ratio"] = {
      hits + searches > 0 ? hits / (hits + searches) : 0.0, "ratio"};
  layer["optimizer.plans_enumerated"] = {
      static_cast<double>(
          registry.Counter("od_planner_plans_enumerated_total")) /
          reqs,
      "1/req"};
  layer["optimizer.rows_est_error_pct_p50"] = {Median(traced.row_err_pct),
                                                "%"};
  layer["optimizer.sorts_elided"] = {
      static_cast<double>(traced.sorts_elided) / reqs, "1/req"};
  layer["optimizer.joins_elided"] = {
      static_cast<double>(traced.joins_elided) / reqs, "1/req"};
  for (const auto& [kind, ns] : traced.self_ns) {
    layer["exec.self_ms." + kind] = {ns / 1e6 / reqs, "ms/req"};
  }
  const od::opt::ExecStats& st = traced.stats;
  auto per_req = [&](double v) { return Metric{v / reqs, "1/req"}; };
  layer["exec.rows_scanned"] = per_req(static_cast<double>(st.rows_scanned));
  layer["exec.rows_joined"] = per_req(static_cast<double>(st.rows_joined));
  layer["exec.rows_output"] = per_req(static_cast<double>(st.rows_output));
  layer["exec.rows_scanned_per_output"] = {
      st.rows_output > 0 ? static_cast<double>(st.rows_scanned) /
                               static_cast<double>(st.rows_output)
                         : 0.0,
      "ratio"};
  layer["exec.batches"] = per_req(static_cast<double>(st.batches));
  layer["exec.sorts"] = per_req(st.sorts);
  layer["exec.joins"] = per_req(st.joins);
  layer["exec.fragments"] = per_req(st.fragments);
  layer["exec.spills"] = per_req(st.spills);
  layer["exec.spilled_bytes"] = per_req(static_cast<double>(st.spilled_bytes));
  layer["exec.exchange_peak_rows"] = {
      static_cast<double>(st.exchange_peak_rows), "rows"};
  layer["exec.fragment_drain_us_p50"] = {
      registry.HistogramQuantile("od_exec_fragment_drain_us", 0.5), "us"};
  layer["common.pool_task_us_p50"] = {
      registry.HistogramQuantile("od_threadpool_task_us", 0.5), "us"};
  layer["common.pool_steals"] = per_req(
      static_cast<double>(registry.Counter("od_threadpool_steals_total")));
  layer["common.pool_submits"] = per_req(
      static_cast<double>(registry.Counter("od_threadpool_submits_total")));
  layer["common.pool_queue_depth"] = {
      static_cast<double>(traced.max_queue_depth), "tasks"};
  layer["engine.index_build_ms"] = {Median(index_ms), "ms"};
  layer["bench.trace_overhead_pct"] = {
      (GeoMeanOfQuantile(traced, 0.5) / plain_geomean - 1) * 100, "%"};
  return result;
}

}  // namespace perfbench
