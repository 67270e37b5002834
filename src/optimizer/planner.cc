#include "optimizer/planner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/metrics.h"
#include "common/trace.h"
#include "exec/parallel.h"
#include "optimizer/date_rewrite.h"

namespace od {
namespace opt {

double CostModel::SortCost(double rows) const {
  return rows * std::log2(std::max(rows, 2.0)) * sort_row_log;
}

double CostModel::TopKCost(double rows, double k) const {
  return rows * std::log2(std::max(k, 2.0)) * sort_row_log;
}

namespace {

using engine::ColumnId;
using engine::Predicate;
using engine::SortSpec;
using Kind = PhysicalNode::Kind;

std::string SpecString(const SortSpec& spec) {
  std::string out = "[";
  for (size_t i = 0; i < spec.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(spec[i]);
  }
  return out + "]";
}

std::unique_ptr<PhysicalNode> Clone(const PhysicalNode& n) {
  auto out = std::make_unique<PhysicalNode>();
  out->kind = n.kind;
  out->table_index = n.table_index;
  out->range = n.range;
  out->preds = n.preds;
  out->spec = n.spec;
  out->group_cols = n.group_cols;
  out->aggs = n.aggs;
  out->left_key = n.left_key;
  out->right_key = n.right_key;
  out->limit = n.limit;
  out->est_rows = n.est_rows;
  out->est_cost = n.est_cost;
  out->out_ordering = n.out_ordering;
  out->note = n.note;
  for (const auto& c : n.children) out->children.push_back(Clone(*c));
  return out;
}

/// A partial plan under construction: the node tree plus the planner facts
/// that downstream decisions need — the stream's ordering property both in
/// execution-schema ids and translated back to driving-table ids (they
/// diverge after aggregation renumbers columns), the row estimate, and the
/// enforcer elisions proven so far.
struct Cand {
  std::unique_ptr<PhysicalNode> node;
  SortSpec ordering;       // execution-schema ids
  SortSpec ordering_fact;  // same order stated in driving-table ids
  double rows = 0;
  int sorts_elided = 0;
  int joins_elided = 0;
  std::vector<std::string> proofs;

  Cand CloneCand() const {
    Cand c;
    c.node = Clone(*node);
    c.ordering = ordering;
    c.ordering_fact = ordering_fact;
    c.rows = rows;
    c.sorts_elided = sorts_elided;
    c.joins_elided = joins_elided;
    c.proofs = proofs;
    return c;
  }
};

/// The planning context: the query, reasoners (one per table — ids are
/// table-local), and per-join analysis shared across the enumeration.
class Planner {
 public:
  Planner(const LogicalQuery& q, const CostModel& cm) : q_(q), cm_(cm) {
    if (q_.tables.empty() || q_.tables.size() > 3) {
      throw std::invalid_argument("PlanQuery: 1..3 tables required");
    }
    for (const auto& t : q_.tables) {
      if (t.table == nullptr) {
        throw std::invalid_argument("PlanQuery: null table");
      }
    }
    filters_ = q_.filters;
    filters_.resize(q_.tables.size());
    for (const auto& j : q_.joins) {
      if (j.right_table <= 0 ||
          j.right_table >= static_cast<int>(q_.tables.size())) {
        throw std::invalid_argument("PlanQuery: join right_table out of range");
      }
    }
    if (!q_.order_by.empty() && HasAgg()) {
      for (ColumnId c : q_.order_by) {
        if (std::find(q_.group_cols.begin(), q_.group_cols.end(), c) ==
            q_.group_cols.end()) {
          throw std::invalid_argument(
              "PlanQuery: with aggregation, ORDER BY must be a subset of "
              "GROUP BY");
        }
      }
    }
    for (const auto& t : q_.tables) {
      if (t.prover != nullptr) {
        if (t.ods != nullptr && t.prover->shared_theory() != t.ods) {
          throw std::invalid_argument(
              "PlanQuery: TableRef::prover is attached to a different "
              "theory than TableRef::ods");
        }
        reasoners_.push_back(std::make_unique<OrderReasoner>(t.prover));
      } else if (t.ods != nullptr) {
        reasoners_.push_back(std::make_unique<OrderReasoner>(t.ods));
      } else {
        reasoners_.push_back(
            std::make_unique<OrderReasoner>(DependencySet()));
      }
    }
    AnalyzeJoins();
  }

  Cand Plan() {
    OD_TRACE_SPAN("planner.plan");
    // Enumerate which eligible joins to eliminate (Section 2.3): each
    // eligible join independently kept or replaced by its surrogate range.
    const int n_eligible = static_cast<int>(eligible_.size());
    Cand winner;
    bool have = false;
    int64_t enumerated = 0;
    for (int mask = 0; mask < (1 << n_eligible); ++mask) {
      std::vector<int> elided, kept;
      for (size_t j = 0; j < joins_.size(); ++j) {
        const auto it =
            std::find(eligible_.begin(), eligible_.end(), static_cast<int>(j));
        const bool elide =
            it != eligible_.end() &&
            (mask >> (it - eligible_.begin())) & 1;
        (elide ? elided : kept).push_back(static_cast<int>(j));
      }
      for (Cand& c : PlanCombo(elided, kept)) {
        ++enumerated;
        if (!have || c.node->est_cost < winner.node->est_cost) {
          winner = std::move(c);
          have = true;
        }
      }
    }
    common::MetricRegistry::Global()
        .GetCounter("od_planner_plans_enumerated_total",
                    "Complete physical alternatives costed per PlanQuery")
        .Add(enumerated);
    if (!have) throw std::invalid_argument("PlanQuery: no plan found");
    return winner;
  }

 private:
  struct JoinInfo {
    JoinClause clause;
    bool elidable = false;
    /// exec::HashJoin requires int64 keys; other types merge-join only.
    bool hashable = true;
    std::pair<int64_t, int64_t> sk_range{0, -1};  // lo > hi ⇒ empty
    std::string proof;
    double selectivity = 1.0;  // filtered dim rows / dim rows
  };

  bool HasAgg() const { return !q_.group_cols.empty() || !q_.aggs.empty(); }

  const TableRef& Tab(int i) const { return q_.tables[i]; }

  /// Per-join: exact dim selectivity (dims are small; the paper's rewrite
  /// probes them anyway) and eligibility for surrogate-range elimination.
  void AnalyzeJoins() {
    // Exact filtered-row counts per table, computed once — DimCands and
    // the per-join selectivities reuse them across the whole enumeration.
    filtered_rows_.resize(q_.tables.size());
    for (size_t t = 0; t < q_.tables.size(); ++t) {
      filtered_rows_[t] =
          filters_[t].empty()
              ? static_cast<double>(Tab(t).table->num_rows())
              : static_cast<double>(
                    engine::FilterRowIds(*Tab(t).table, filters_[t]).size());
    }
    for (const auto& j : q_.joins) {
      JoinInfo info;
      info.clause = j;
      const TableRef& dim = Tab(j.right_table);
      const auto& preds = filters_[j.right_table];
      info.hashable =
          Tab(0).table->schema().col(j.left_col).type ==
              engine::DataType::kInt64 &&
          dim.table->schema().col(j.right_col).type ==
              engine::DataType::kInt64;
      if (!preds.empty()) {
        info.selectivity =
            dim.table->num_rows() == 0
                ? 0.0
                : filtered_rows_[j.right_table] /
                      static_cast<double>(dim.table->num_rows());
      }
      // Elimination needs: int64 keys on both sides (the surrogate range
      // becomes a fact-side int64 range), the OD proof that the dim's
      // surrogate key orders like its natural column, predicates to map,
      // a data check that the qualifying rows are contiguous in the
      // surrogate, and an output that does not reference dim columns (we
      // aggregate over driving-table columns only).
      if (info.hashable && HasAgg() && dim.natural_order_col >= 0 &&
          dim.ods != nullptr && !preds.empty() &&
          reasoners_[j.right_table]->Equivalent({j.right_col},
                                                {dim.natural_order_col}) &&
          QualifyingRowsContiguous(*dim.table, j.right_col, preds)) {
        info.elidable = true;
        auto range = SurrogateKeyRange(*dim.table, j.right_col, preds);
        if (range.has_value()) info.sk_range = *range;
        info.proof = "join to " + dim.name + " elided: proven [" +
                     std::to_string(j.right_col) + "] ↔ [" +
                     std::to_string(dim.natural_order_col) +
                     "]; dim predicates map to surrogate range [" +
                     std::to_string(info.sk_range.first) + ", " +
                     std::to_string(info.sk_range.second) + "]";
      }
      joins_.push_back(std::move(info));
    }
    for (size_t j = 0; j < joins_.size(); ++j) {
      if (joins_[j].elidable) eligible_.push_back(static_cast<int>(j));
    }
  }

  double PredSelectivity(const Predicate& p) const {
    return p.op == Predicate::Op::kEq ? cm_.eq_selectivity
                                      : cm_.range_selectivity;
  }

  /// Exact row count of driving-table values in [lo, hi] when an index
  /// over that column exists; a heuristic fraction otherwise.
  double DrivingRangeRows(ColumnId col, int64_t lo, int64_t hi) const {
    const TableRef& t = Tab(0);
    if (lo > hi) return 0;
    if (t.index != nullptr && !t.index->key().empty() &&
        t.index->key().front() == col) {
      return static_cast<double>(t.index->CountRange(lo, hi));
    }
    return static_cast<double>(t.table->num_rows()) * cm_.range_selectivity;
  }

  /// Driving-table access-path alternatives for one elision combo. Every
  /// elided join contributes a surrogate range on a driving column; the
  /// access path may "cover" one of them (index/partition range), the rest
  /// become Filter predicates.
  std::vector<Cand> DrivingCands(const std::vector<int>& elided) {
    struct RangeReq {
      ColumnId col;
      int64_t lo, hi;
      std::string proof;
      int join_idx;
    };
    std::vector<RangeReq> ranges;
    for (int j : elided) {
      ranges.push_back({joins_[j].clause.left_col, joins_[j].sk_range.first,
                        joins_[j].sk_range.second, joins_[j].proof, j});
    }
    const TableRef& t = Tab(0);
    const double n = static_cast<double>(t.table->num_rows());

    std::vector<Cand> out;
    auto finish = [&](std::unique_ptr<PhysicalNode> scan, SortSpec ordering,
                      double rows, int covered_range,
                      std::vector<std::string> proofs) {
      // Residual predicates: the query's own driving filters plus the
      // uncovered elided ranges restated as BETWEEN predicates.
      std::vector<Predicate> residual = filters_[0];
      double est = rows;
      for (const auto& p : filters_[0]) est *= PredSelectivity(p);
      for (size_t i = 0; i < ranges.size(); ++i) {
        if (static_cast<int>(i) == covered_range) continue;
        residual.push_back(Predicate{ranges[i].col, Predicate::Op::kBetween,
                                     Value(ranges[i].lo),
                                     Value(ranges[i].hi)});
        est = std::min(est, DrivingRangeRows(ranges[i].col, ranges[i].lo,
                                             ranges[i].hi));
      }
      Cand c;
      c.node = std::move(scan);
      if (!residual.empty()) {
        auto f = std::make_unique<PhysicalNode>();
        f->kind = Kind::kFilter;
        f->preds = std::move(residual);
        f->est_rows = est;
        f->est_cost = c.node->est_cost +
                      rows * static_cast<double>(f->preds.size()) *
                          cm_.filter_term;
        f->out_ordering = ordering;
        f->children.push_back(std::move(c.node));
        c.node = std::move(f);
      }
      c.ordering = ordering;
      c.ordering_fact = ordering;
      c.rows = est;
      c.joins_elided = static_cast<int>(elided.size());
      c.proofs = std::move(proofs);
      out.push_back(std::move(c));
    };

    std::vector<std::string> elision_proofs;
    for (const auto& r : ranges) elision_proofs.push_back(r.proof);

    // Plain scan: covers nothing.
    {
      auto s = std::make_unique<PhysicalNode>();
      s->kind = Kind::kScan;
      s->table_index = 0;
      s->est_rows = n;
      s->est_cost = n * cm_.scan_row;
      s->out_ordering = t.table->ordering();
      finish(std::move(s), t.table->ordering(), n, -1, elision_proofs);
    }
    // Index scan: ordered; covers a range on the index's leading key.
    if (t.index != nullptr && !t.index->key().empty()) {
      int covered = -1;
      for (size_t i = 0; i < ranges.size(); ++i) {
        if (ranges[i].col == t.index->key().front()) {
          covered = static_cast<int>(i);
          break;
        }
      }
      auto s = std::make_unique<PhysicalNode>();
      s->kind = Kind::kIndexScan;
      s->table_index = 0;
      double rows = n;
      if (covered >= 0) {
        s->range = {ranges[covered].lo, ranges[covered].hi};
        rows = static_cast<double>(
            t.index->CountRange(ranges[covered].lo, ranges[covered].hi));
        s->note = "surrogate range from elided join";
      }
      s->est_rows = rows;
      s->est_cost = rows * cm_.index_row;
      s->out_ordering = t.index->key();
      finish(std::move(s), t.index->key(), rows, covered, elision_proofs);
    }
    // Partitioned scan: covers a range on the partition column by pruning.
    if (t.partitions != nullptr && t.partitions->num_partitions() > 0) {
      int covered = -1;
      for (size_t i = 0; i < ranges.size(); ++i) {
        if (ranges[i].col == t.partitions->partition_column()) {
          covered = static_cast<int>(i);
          break;
        }
      }
      auto s = std::make_unique<PhysicalNode>();
      s->kind = Kind::kPartitionedScan;
      s->table_index = 0;
      double scanned = static_cast<double>(t.partitions->total_rows());
      double rows = scanned;
      if (covered >= 0) {
        s->range = {ranges[covered].lo, ranges[covered].hi};
        scanned = 0;
        for (int p = 0; p < t.partitions->num_partitions(); ++p) {
          if (t.partitions->range(p).first <= ranges[covered].hi &&
              ranges[covered].lo <= t.partitions->range(p).second) {
            scanned += static_cast<double>(t.partitions->partition(p)
                                               .num_rows());
          }
        }
        rows = std::min(scanned, DrivingRangeRows(ranges[covered].col,
                                                  ranges[covered].lo,
                                                  ranges[covered].hi));
      }
      s->est_rows = rows;
      s->est_cost = scanned * cm_.scan_row;
      finish(std::move(s), {}, rows, covered, elision_proofs);
    }
    return out;
  }

  /// Access alternatives for a dimension (join build/merge side).
  std::vector<Cand> DimCands(int table_idx) {
    const TableRef& t = Tab(table_idx);
    const double n = static_cast<double>(t.table->num_rows());
    const auto& preds = filters_[table_idx];
    const double est = filtered_rows_[table_idx];
    std::vector<Cand> out;
    auto add = [&](std::unique_ptr<PhysicalNode> scan, SortSpec ordering) {
      Cand c;
      c.node = std::move(scan);
      if (!preds.empty()) {
        auto f = std::make_unique<PhysicalNode>();
        f->kind = Kind::kFilter;
        f->preds = preds;
        f->est_rows = est;
        f->est_cost = c.node->est_cost +
                      n * static_cast<double>(preds.size()) * cm_.filter_term;
        f->out_ordering = ordering;
        f->children.push_back(std::move(c.node));
        c.node = std::move(f);
      }
      c.ordering = ordering;
      c.rows = est;
      out.push_back(std::move(c));
    };
    {
      auto s = std::make_unique<PhysicalNode>();
      s->kind = Kind::kScan;
      s->table_index = table_idx;
      s->est_rows = n;
      s->est_cost = n * cm_.scan_row;
      s->out_ordering = t.table->ordering();
      add(std::move(s), t.table->ordering());
    }
    if (t.index != nullptr && !t.index->key().empty()) {
      auto s = std::make_unique<PhysicalNode>();
      s->kind = Kind::kIndexScan;
      s->table_index = table_idx;
      s->est_rows = n;
      s->est_cost = n * cm_.index_row;
      s->out_ordering = t.index->key();
      add(std::move(s), t.index->key());
    }
    return out;
  }

  /// Adds a Sort enforcer for `spec` unless the stream's ordering is
  /// proven to provide it (in which case the elision is recorded). `table`
  /// selects the reasoner whose id space `ordering_in_table_ids` lives in.
  void EnforceOrder(Cand* c, const SortSpec& spec_exec,
                    const SortSpec& spec_table_ids, int table,
                    const SortSpec& ordering_table_ids,
                    const char* what) {
    if (!ordering_table_ids.empty() &&
        reasoners_[table]->Provides(ordering_table_ids, spec_table_ids)) {
      ++c->sorts_elided;
      c->proofs.push_back(std::string(what) + " sort elided: proven " +
                          SpecString(ordering_table_ids) + " ↦ " +
                          SpecString(spec_table_ids));
      return;
    }
    auto s = std::make_unique<PhysicalNode>();
    s->kind = Kind::kSort;
    s->spec = spec_exec;
    s->est_rows = c->rows;
    s->est_cost = c->node->est_cost + cm_.SortCost(c->rows);
    s->out_ordering = spec_exec;
    s->children.push_back(std::move(c->node));
    c->node = std::move(s);
    c->ordering = spec_exec;
    c->ordering_fact = spec_table_ids;
  }

  /// Joins `dim` onto `c` with the given algorithm; returns the extended
  /// candidate.
  Cand ApplyJoin(const Cand& c, const JoinInfo& j, const Cand& dim,
                 bool merge) {
    Cand out = c.CloneCand();
    Cand d = dim.CloneCand();
    const double out_rows = c.rows * j.selectivity;
    if (merge) {
      // Both inputs must stream in key order; prove it or enforce it.
      EnforceOrder(&out, {j.clause.left_col}, {j.clause.left_col}, 0,
                   out.ordering_fact, "merge-join left");
      EnforceOrder(&d, {j.clause.right_col}, {j.clause.right_col},
                   j.clause.right_table, d.ordering, "merge-join right");
    }
    out.sorts_elided += d.sorts_elided;
    out.joins_elided += d.joins_elided;
    for (auto& p : d.proofs) out.proofs.push_back(p);
    if (merge) {
      auto n = std::make_unique<PhysicalNode>();
      n->kind = Kind::kMergeJoin;
      n->left_key = j.clause.left_col;
      n->right_key = j.clause.right_col;
      n->est_rows = out_rows;
      n->est_cost = out.node->est_cost + d.node->est_cost +
                    (c.rows + d.rows) * cm_.merge_row +
                    out_rows * cm_.output_row;
      n->out_ordering = out.ordering;
      n->children.push_back(std::move(out.node));
      n->children.push_back(std::move(d.node));
      out.node = std::move(n);
    } else {
      auto n = std::make_unique<PhysicalNode>();
      n->kind = Kind::kHashJoin;
      n->left_key = j.clause.left_col;
      n->right_key = j.clause.right_col;
      n->est_rows = out_rows;
      n->est_cost = out.node->est_cost + d.node->est_cost +
                    d.rows * cm_.hash_build_row + c.rows * cm_.hash_probe_row +
                    out_rows * cm_.output_row;
      n->out_ordering = out.ordering;  // probe preserves left order
      n->children.push_back(std::move(out.node));
      n->children.push_back(std::move(d.node));
      out.node = std::move(n);
    }
    out.rows = out_rows;
    return out;
  }

  /// Aggregation alternatives on top of `c`.
  std::vector<Cand> ApplyAgg(const Cand& c) {
    std::vector<Cand> out;
    const double groups = std::max(1.0, c.rows * 0.05);
    auto agg_node = [&](Kind kind, Cand base, SortSpec out_ordering,
                        double extra_cost, std::string note) {
      auto n = std::make_unique<PhysicalNode>();
      n->kind = kind;
      n->group_cols = q_.group_cols;
      n->aggs = q_.aggs;
      n->est_rows = groups;
      n->est_cost = base.node->est_cost + extra_cost +
                    groups * cm_.output_row;
      n->out_ordering = out_ordering;
      n->note = std::move(note);
      n->children.push_back(std::move(base.node));
      base.node = std::move(n);
      base.ordering = out_ordering;
      // Translate output positions back to driving-table ids.
      base.ordering_fact.clear();
      for (ColumnId pos : out_ordering) {
        base.ordering_fact.push_back(q_.group_cols[pos]);
      }
      base.rows = groups;
      return base;
    };

    // Hash aggregation: always legal, destroys order.
    out.push_back(agg_node(Kind::kHashAgg, c.CloneCand(), {},
                           c.rows * cm_.hash_agg_row, ""));

    // Stream aggregation on the proven-contiguous stream.
    std::vector<ColumnId> groups_vec(q_.group_cols.begin(),
                                     q_.group_cols.end());
    if (!c.ordering_fact.empty() &&
        reasoners_[0]->GroupsContiguousUnder(c.ordering_fact, groups_vec)) {
      Cand base = c.CloneCand();
      ++base.sorts_elided;
      base.proofs.push_back(
          "stream aggregate: groups " + SpecString(q_.group_cols) +
          " proven contiguous under stream order " +
          SpecString(c.ordering_fact) + " — no sort, no hash table");
      // Output order: the prefix of the stream order covered by group
      // columns, as output positions (mirrors exec::StreamAggregate).
      SortSpec out_ordering;
      for (ColumnId col : c.ordering_fact) {
        int pos = -1;
        for (size_t i = 0; i < q_.group_cols.size(); ++i) {
          if (q_.group_cols[i] == col) pos = static_cast<int>(i);
        }
        if (pos < 0) break;
        out_ordering.push_back(pos);
      }
      out.push_back(agg_node(Kind::kStreamAgg, std::move(base), out_ordering,
                             c.rows * cm_.stream_agg_row,
                             "contiguity proven by OD reasoning"));
    } else {
      // Sort-then-stream: the enforcer buys contiguity.
      Cand base = c.CloneCand();
      SortSpec gspec(q_.group_cols.begin(), q_.group_cols.end());
      auto s = std::make_unique<PhysicalNode>();
      s->kind = Kind::kSort;
      s->spec = gspec;
      s->est_rows = base.rows;
      s->est_cost = base.node->est_cost + cm_.SortCost(base.rows);
      s->out_ordering = gspec;
      s->children.push_back(std::move(base.node));
      base.node = std::move(s);
      base.ordering = gspec;
      base.ordering_fact = gspec;
      SortSpec out_ordering;
      for (size_t i = 0; i < q_.group_cols.size(); ++i) {
        out_ordering.push_back(static_cast<ColumnId>(i));
      }
      out.push_back(agg_node(Kind::kStreamAgg, std::move(base), out_ordering,
                             c.rows * cm_.stream_agg_row,
                             "contiguity from sort enforcer"));
    }
    return out;
  }

  /// ORDER BY / LIMIT enforcement on top of `c`; appends finished
  /// candidates to `out`.
  void ApplyOrderAndLimit(Cand c, std::vector<Cand>* out) {
    const bool has_limit = q_.limit >= 0;
    if (q_.order_by.empty()) {
      if (has_limit) AddLimit(&c);
      out->push_back(std::move(c));
      return;
    }
    // Required order in execution-schema ids.
    SortSpec required_exec;
    if (HasAgg()) {
      for (ColumnId col : q_.order_by) {
        for (size_t i = 0; i < q_.group_cols.size(); ++i) {
          if (q_.group_cols[i] == col) {
            required_exec.push_back(static_cast<ColumnId>(i));
          }
        }
      }
    } else {
      required_exec = q_.order_by;
    }
    if (!c.ordering_fact.empty() &&
        reasoners_[0]->Provides(c.ordering_fact, q_.order_by)) {
      ++c.sorts_elided;
      c.proofs.push_back("ORDER BY " + SpecString(q_.order_by) +
                         " sort elided: proven " +
                         SpecString(c.ordering_fact) + " ↦ " +
                         SpecString(q_.order_by));
      if (has_limit) AddLimit(&c);
      out->push_back(std::move(c));
      return;
    }
    if (has_limit) {
      // TopK: selection instead of a full sort.
      Cand topk = c.CloneCand();
      auto n = std::make_unique<PhysicalNode>();
      n->kind = Kind::kTopK;
      n->spec = required_exec;
      n->limit = q_.limit;
      n->est_rows = std::min<double>(c.rows, static_cast<double>(q_.limit));
      n->est_cost = topk.node->est_cost +
                    cm_.TopKCost(c.rows, static_cast<double>(q_.limit));
      n->out_ordering = required_exec;
      n->children.push_back(std::move(topk.node));
      topk.node = std::move(n);
      topk.ordering = required_exec;
      topk.ordering_fact = q_.order_by;
      topk.rows = std::min<double>(c.rows, static_cast<double>(q_.limit));
      out->push_back(std::move(topk));
    }
    // Full sort (+ limit).
    auto s = std::make_unique<PhysicalNode>();
    s->kind = Kind::kSort;
    s->spec = required_exec;
    s->est_rows = c.rows;
    s->est_cost = c.node->est_cost + cm_.SortCost(c.rows);
    s->out_ordering = required_exec;
    s->children.push_back(std::move(c.node));
    c.node = std::move(s);
    c.ordering = required_exec;
    c.ordering_fact = q_.order_by;
    if (has_limit) AddLimit(&c);
    out->push_back(std::move(c));
  }

  void AddLimit(Cand* c) {
    const double est =
        std::min<double>(c->rows, static_cast<double>(q_.limit));
    auto n = std::make_unique<PhysicalNode>();
    n->kind = Kind::kLimit;
    n->limit = q_.limit;
    n->est_rows = est;
    n->est_cost = c->node->est_cost;
    n->out_ordering = c->ordering;
    n->children.push_back(std::move(c->node));
    c->node = std::move(n);
    c->rows = est;
  }

  /// Plans one elide/keep combo end-to-end and returns the finished
  /// candidates.
  std::vector<Cand> PlanCombo(const std::vector<int>& elided,
                              const std::vector<int>& kept) {
    std::vector<Cand> cur = DrivingCands(elided);

    // Left-deep join orders over the kept joins, both algorithms per join.
    std::vector<int> order = kept;
    std::sort(order.begin(), order.end());
    std::vector<Cand> joined;
    if (order.empty()) {
      joined = std::move(cur);
    } else {
      do {
        std::vector<Cand> stage;
        for (const Cand& c : cur) stage.push_back(c.CloneCand());
        for (int j : order) {
          std::vector<Cand> next;
          std::vector<Cand> dims = DimCands(joins_[j].clause.right_table);
          for (const Cand& c : stage) {
            for (const Cand& d : dims) {
              if (joins_[j].hashable) {
                next.push_back(ApplyJoin(c, joins_[j], d, /*merge=*/false));
              }
              next.push_back(ApplyJoin(c, joins_[j], d, /*merge=*/true));
            }
          }
          stage = std::move(next);
        }
        for (Cand& c : stage) joined.push_back(std::move(c));
      } while (std::next_permutation(order.begin(), order.end()));
    }

    std::vector<Cand> aggregated;
    if (HasAgg()) {
      for (const Cand& c : joined) {
        for (Cand& a : ApplyAgg(c)) aggregated.push_back(std::move(a));
      }
    } else {
      aggregated = std::move(joined);
    }

    std::vector<Cand> done;
    for (Cand& c : aggregated) ApplyOrderAndLimit(std::move(c), &done);
    return done;
  }

  const LogicalQuery& q_;
  const CostModel& cm_;
  std::vector<std::vector<Predicate>> filters_;
  std::vector<double> filtered_rows_;  // exact post-filter rows per table
  std::vector<std::unique_ptr<OrderReasoner>> reasoners_;
  std::vector<JoinInfo> joins_;
  std::vector<int> eligible_;
};

// ---------------------------------------------------------------------------
// Parallelization pass (PlanOptions::dop > 1). Runs after the serial
// enumeration picked a winner: every chain-safe region of the tree — the
// driving chain, sort inputs, merge-join right sides, hash-join build
// sides — may be cut into row-range morsels behind its own cost-gated
// exchange, choosing each recombination by what that chain can *prove* —
// an order-preserving merge when it carries an ordering property
// (parallelism must never reintroduce a sort the OD reasoning elided), a
// fragment-ordered union otherwise. Producers are scheduler tasks, so
// multiple exchanges per plan compose without reserving threads per
// region.

/// A chain a worker can run privately over its morsel: scans at the leaf,
/// filters/projections, and hash-join *probes* (the build side is shared
/// read-only). Everything else needs the whole stream.
bool IsChainSafe(const PhysicalNode& n) {
  switch (n.kind) {
    case Kind::kScan:
    case Kind::kIndexScan:
    case Kind::kPartitionedScan:
      return true;
    case Kind::kFilter:
    case Kind::kProject:
    case Kind::kHashJoin:
      return IsChainSafe(*n.children[0]);
    default:
      return false;
  }
}

/// Wraps `chain` in an exchange of `dop` fragments; picks merge vs union
/// from the chain's ordering property and records the proof.
std::unique_ptr<PhysicalNode> MakeExchange(
    std::unique_ptr<PhysicalNode> chain, int dop, const CostModel& cm,
    std::vector<std::string>* proofs) {
  auto x = std::make_unique<PhysicalNode>();
  x->kind = Kind::kExchange;
  x->dop = dop;
  x->ordered_merge = !chain->out_ordering.empty();
  x->spec = chain->out_ordering;
  x->est_rows = chain->est_rows;
  x->est_cost = chain->est_cost / dop + dop * cm.fragment_startup +
                chain->est_rows * cm.exchange_row;
  x->out_ordering = chain->out_ordering;
  if (x->ordered_merge) {
    x->note = "order-preserving merge on " + SpecString(x->spec) +
              " (OD-proven: contiguous morsels inherit the order)";
    proofs->push_back(
        "parallel exchange (dop=" + std::to_string(dop) +
        "): each row-range morsel inherits proven order " +
        SpecString(x->spec) +
        "; k-way merge with fragment tiebreak reproduces the serial "
        "stream — no sort reintroduced");
  } else {
    x->note = "union (no ordering property to preserve)";
  }
  x->children.push_back(std::move(chain));
  return x;
}

bool AggsDecomposable(const std::vector<engine::AggSpec>& aggs) {
  for (const auto& a : aggs) {
    if (a.kind == engine::AggSpec::Kind::kAvg) return false;
  }
  return true;
}

/// Puts the chain in `slot` behind an exchange if the cost gate accepts;
/// restores it (and retracts the pushed proof) otherwise.
bool TryExchangeChain(std::unique_ptr<PhysicalNode>* slot, int dop,
                      const CostModel& cm,
                      std::vector<std::string>* proofs) {
  const double serial = (*slot)->est_cost;
  auto x = MakeExchange(std::move(*slot), dop, cm, proofs);
  if (x->est_cost >= serial) {
    // Not worth the exchange overhead: put the chain back.
    *slot = std::move(x->children[0]);
    if (x->ordered_merge && !proofs->empty()) proofs->pop_back();
    return false;
  }
  *slot = std::move(x);
  return true;
}

/// Walks every node of the tree and applies each profitable parallel
/// rewrite it finds — several exchanges per plan when several regions pay
/// for themselves, each individually cost-gated and each recording its own
/// merge proof. Returns whether the tree changed.
bool ParallelizeNode(std::unique_ptr<PhysicalNode>* slot, int dop,
                     const CostModel& cm, std::vector<std::string>* proofs) {
  PhysicalNode* n = slot->get();
  if (IsChainSafe(*n)) {
    bool changed = TryExchangeChain(slot, dop, cm, proofs);
    // The chain's hash-join build sides run once, on the consumer, before
    // any fragment starts — independent parallel regions of their own.
    // Their exchanges stay deterministic because union emission is
    // fragment-ordered (the build stream, and with it multimap insertion
    // order, is row-identical to the serial plan).
    PhysicalNode* walk = slot->get();
    if (walk->kind == Kind::kExchange) walk = walk->children[0].get();
    for (; !walk->children.empty(); walk = walk->children[0].get()) {
      if (walk->kind == Kind::kHashJoin) {
        changed |= ParallelizeNode(&walk->children[1], dop, cm, proofs);
      }
    }
    return changed;
  }
  switch (n->kind) {
    case Kind::kExchange:
    case Kind::kParallelHashAgg:
    case Kind::kCombinePartials:
      return false;  // already parallel
    case Kind::kHashAgg: {
      if (!IsChainSafe(*n->children[0])) {
        return ParallelizeNode(&n->children[0], dop, cm, proofs);
      }
      const double chain_cost = n->children[0]->est_cost;
      const double agg_work = n->est_cost - chain_cost;
      const double par = chain_cost / dop + agg_work / dop +
                         dop * cm.fragment_startup +
                         n->est_rows * cm.output_row;
      if (par >= n->est_cost) {
        // The parallel aggregate doesn't pay; the chain below might still
        // (a serial hash build over a union-exchanged chain is valid).
        return ParallelizeNode(&n->children[0], dop, cm, proofs);
      }
      n->kind = Kind::kParallelHashAgg;
      n->dop = dop;
      n->est_cost = par;
      n->note = "thread-local accumulator build x" + std::to_string(dop) +
                ", exact merge (avg-safe)";
      return true;
    }
    case Kind::kStreamAgg: {
      PhysicalNode* chain = n->children[0].get();
      if (!IsChainSafe(*chain)) {
        return ParallelizeNode(&n->children[0], dop, cm, proofs);
      }
      if (chain->out_ordering.empty()) {
        // An ordered merge has nothing to merge on, and without the order
        // property a streaming aggregate shouldn't be here at all: stay
        // serial.
        return false;
      }
      const bool covers = n->out_ordering.size() == n->group_cols.size();
      if (AggsDecomposable(n->aggs) && covers) {
        // Per-fragment partial aggregation: exchange the whole StreamAgg
        // subtree (each fragment aggregates its morsel, a group straddling
        // a boundary arrives as adjacent partials), merge ordered on the
        // agg output order, combine partials above.
        const double serial = n->est_cost;
        const double partials =
            n->est_rows + dop;  // + boundary-straddling groups
        auto combine = std::make_unique<PhysicalNode>();
        combine->kind = Kind::kCombinePartials;
        combine->group_cols = n->group_cols;
        combine->aggs = n->aggs;
        combine->est_rows = n->est_rows;
        combine->out_ordering = n->out_ordering;
        combine->note = "folds morsel-boundary partial groups";
        auto x = MakeExchange(std::move(*slot), dop, cm, proofs);
        x->est_rows = partials;
        combine->est_cost =
            x->est_cost + partials * cm.stream_agg_row;
        if (combine->est_cost >= serial) {
          *slot = std::move(x->children[0]);
          if (x->ordered_merge && !proofs->empty()) proofs->pop_back();
          // The partial-agg rewrite doesn't pay; an exchange below the
          // serial aggregate might (its ordered merge restores the exact
          // serial stream, so contiguity holds above it).
          return ParallelizeNode(&slot->get()->children[0], dop, cm, proofs);
        }
        combine->children.push_back(std::move(x));
        *slot = std::move(combine);
        return true;
      }
      // Non-decomposable (avg) or partial group order: parallelize the
      // chain below instead — the ordered merge restores the exact serial
      // stream, so the contiguity proof still holds above it.
      return ParallelizeNode(&n->children[0], dop, cm, proofs);
    }
    default: {
      // Recurse into every child: sort inputs, limit/top-k inputs, and
      // both sides of joins can each host their own exchange.
      bool changed = false;
      for (auto& child : n->children) {
        changed |= ParallelizeNode(&child, dop, cm, proofs);
      }
      return changed;
    }
  }
}

// ---------------------------------------------------------------------------
// Compilation.

/// Counts the rows and inclusive wall-clock each node actually spends into
/// its PhysicalNode, so EXPLAIN (ANALYZE) can show estimated vs actual per
/// operator. Timing brackets the child's Next, so a node's actual_ns
/// includes everything below it — the same cumulative convention as
/// est_cost, which is what makes the share comparison meaningful.
class CountingOp : public exec::Operator {
 public:
  CountingOp(exec::OpPtr child, const PhysicalNode* node)
      : child_(std::move(child)), node_(node) {
    schema_ = child_->schema();
    ordering_ = child_->ordering();
    node_->actual_rows = 0;
    node_->actual_ns = 0;
  }
  bool Next(exec::Batch* out) override {
    const auto t0 = std::chrono::steady_clock::now();
    const bool more = child_->Next(out);
    node_->actual_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (!more) return false;
    node_->actual_rows += out->num_rows();
    return true;
  }

 private:
  exec::OpPtr child_;
  const PhysicalNode* node_;
};

/// What CompileNode needs to compile one exchange fragment instead of the
/// serial plan: the fragment's morsel — slice `index` of `dop` — and the
/// template's hash tables, prebuilt by BuildSharedTables and taken in its
/// pre-order.
struct Fragment {
  int index;
  int dop;
  const std::vector<std::shared_ptr<const exec::SharedHashTable>>* shared;
  size_t next_shared = 0;

  /// Slice `index` of `dop` contiguous near-equal slices of `units`.
  /// Slices past the end come out empty — legal (an empty morsel yields an
  /// empty stream) and deliberately exercised by the differential tests.
  exec::UnitRange Morsel(exec::UnitRange units) const {
    const int64_t total = units.second - units.first;
    const int64_t base = total / dop;
    const int64_t rem = total % dop;
    const int64_t begin =
        units.first + index * base + std::min<int64_t>(index, rem);
    return {begin, begin + base + (index < rem ? 1 : 0)};
  }
};

exec::OpPtr CompileNode(const PhysicalNode& n,
                        const std::vector<TableRef>& tables, ExecStats* stats,
                        const PlanOptions& opts, Fragment* frag = nullptr);

/// The units scan node `n` covers: all of them — rows of a table scan,
/// key-order positions of an index scan's value range, partitions of a
/// partitioned scan — or, inside a fragment, the fragment's morsel.
exec::UnitRange ScanUnits(const PhysicalNode& n,
                          const std::vector<TableRef>& tables,
                          const Fragment* frag) {
  const TableRef& t = tables[n.table_index];
  exec::UnitRange all;
  switch (n.kind) {
    case Kind::kScan:
      all = {0, t.table->num_rows()};
      break;
    case Kind::kIndexScan:
      all = n.range.has_value()
                ? t.index->PositionRange(n.range->first, n.range->second)
                : exec::UnitRange{0, t.index->num_rows()};
      break;
    default:
      all = {0, t.partitions->num_partitions()};
      break;
  }
  return frag == nullptr ? all : frag->Morsel(all);
}

/// Pre-builds the shared hash tables of every kHashJoin on the template's
/// driving chain, in the same pre-order a fragment's CompileNode takes
/// them. Build sides run once, single-threaded, against the main `stats`.
void BuildSharedTables(
    const PhysicalNode& n, const std::vector<TableRef>& tables,
    ExecStats* stats, const PlanOptions& opts,
    std::vector<std::shared_ptr<const exec::SharedHashTable>>* out) {
  if (n.kind == Kind::kHashJoin) {
    out->push_back(exec::BuildSharedHash(
        CompileNode(*n.children[1], tables, stats, opts), n.right_key,
        stats));
  }
  if (!n.children.empty()) {
    BuildSharedTables(*n.children[0], tables, stats, opts, out);
  }
}

/// The factory exchange node `x` builds its fragments with: the template's
/// shared hash tables are built here, and fragment f compiles the template
/// through CompileNode over morsel f.
exec::FragmentFactory FragmentsOf(const PhysicalNode& x,
                                  const std::vector<TableRef>& tables,
                                  ExecStats* stats, const PlanOptions& opts) {
  const PhysicalNode& tmpl = *x.children[0];
  std::vector<std::shared_ptr<const exec::SharedHashTable>> shared;
  BuildSharedTables(tmpl, tables, stats, opts, &shared);
  // Fragments build lazily inside producer tasks, long after this frame is
  // gone: the factory owns the shared-table handles outright, and refers
  // only to plan-owned state (template node, tables, options), which
  // outlives the compiled tree.
  return [&tmpl, &tables, &opts, dop = x.dop,
          shared = std::move(shared)](int f, ExecStats* fs) {
    Fragment frag{f, dop, &shared};
    return CompileNode(tmpl, tables, fs, opts, &frag);
  };
}

/// Compiles `n` and its subtree. In the serial plan every node is wrapped
/// in a CountingOp. With `frag`, `n` is the template of one exchange
/// fragment: the driving scan covers its morsel, hash joins probe the
/// prebuilt shared tables, `stats` is the fragment's private ExecStats, and
/// no node is counted — actual_rows would be written from every worker at
/// once; the exchange node above is counted instead.
exec::OpPtr CompileNode(const PhysicalNode& n,
                        const std::vector<TableRef>& tables, ExecStats* stats,
                        const PlanOptions& opts, Fragment* frag) {
  // The fragment context follows the driving chain (first children) only.
  auto input = [&](size_t i) {
    return CompileNode(*n.children[i], tables, stats, opts,
                       i == 0 ? frag : nullptr);
  };
  exec::OpPtr op;
  switch (n.kind) {
    case Kind::kScan:
      op = exec::Scan(tables[n.table_index].table, stats, opts.batch_rows,
                      ScanUnits(n, tables, frag));
      break;
    case Kind::kIndexScan:
      op = exec::IndexRangeScan(tables[n.table_index].index,
                                ScanUnits(n, tables, frag), stats,
                                opts.batch_rows);
      break;
    case Kind::kPartitionedScan:
      op = exec::PartitionedScan(tables[n.table_index].partitions, n.range,
                                 stats, opts.batch_rows,
                                 ScanUnits(n, tables, frag));
      break;
    case Kind::kFilter:
      op = exec::Filter(input(0), n.preds);
      break;
    case Kind::kProject:
      op = exec::Project(input(0), n.spec);
      break;
    case Kind::kSort:
      op = exec::Sort(input(0), n.spec,
                      {opts.spill_budget_rows, opts.spill_dir, opts.pool},
                      stats, opts.batch_rows);
      break;
    case Kind::kTopK:
      op = exec::TopK(input(0), n.spec, n.limit, stats, opts.batch_rows);
      break;
    case Kind::kLimit:
      op = exec::Limit(input(0), n.limit);
      break;
    case Kind::kStreamAgg:
      op = exec::StreamAggregate(input(0), n.group_cols, n.aggs,
                                 opts.batch_rows);
      break;
    case Kind::kHashAgg:
      op = exec::HashAggregate(input(0), n.group_cols, n.aggs,
                               opts.batch_rows);
      break;
    case Kind::kMergeJoin:
      op = exec::MergeJoin(input(0), n.left_key, input(1), n.right_key, stats,
                           opts.batch_rows);
      break;
    case Kind::kHashJoin:
      if (frag != nullptr) {
        // Taken before the probe side compiles: BuildSharedTables' order.
        auto table = (*frag->shared)[frag->next_shared++];
        op = exec::HashProbe(input(0), n.left_key, std::move(table), stats,
                             opts.batch_rows);
      } else {
        op = exec::HashJoin(input(0), n.left_key, input(1), n.right_key,
                            stats, opts.batch_rows);
      }
      break;
    case Kind::kExchange:
      op = exec::Exchange(n.dop, FragmentsOf(n, tables, stats, opts),
                          n.ordered_merge ? exec::MergeMode::kOrderedMerge
                                          : exec::MergeMode::kUnion,
                          n.spec, opts.pool, stats, opts.batch_rows);
      break;
    case Kind::kParallelHashAgg:
      op = exec::ParallelHashAggregate(n.dop,
                                       FragmentsOf(n, tables, stats, opts),
                                       n.group_cols, n.aggs, opts.pool,
                                       stats, opts.batch_rows);
      break;
    case Kind::kCombinePartials: {
      std::vector<engine::AggSpec::Kind> kinds;
      for (const auto& a : n.aggs) kinds.push_back(a.kind);
      op = exec::CombinePartialAggregates(
          input(0), static_cast<int>(n.group_cols.size()), std::move(kinds));
      break;
    }
  }
  if (frag != nullptr) return op;
  return std::make_unique<CountingOp>(std::move(op), &n);
}

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kScan: return "Scan";
    case Kind::kIndexScan: return "IndexRangeScan";
    case Kind::kPartitionedScan: return "PartitionedScan";
    case Kind::kFilter: return "Filter";
    case Kind::kProject: return "Project";
    case Kind::kSort: return "Sort";
    case Kind::kTopK: return "TopK";
    case Kind::kLimit: return "Limit";
    case Kind::kStreamAgg: return "StreamAggregate";
    case Kind::kHashAgg: return "HashAggregate";
    case Kind::kMergeJoin: return "MergeJoin";
    case Kind::kHashJoin: return "HashJoin";
    case Kind::kExchange: return "Exchange";
    case Kind::kParallelHashAgg: return "ParallelHashAggregate";
    case Kind::kCombinePartials: return "CombinePartialAggregates";
  }
  return "?";
}

/// Extra context ExplainNode renders in ANALYZE mode: the root's cumulative
/// cost and wall-clock (the denominators of the share comparison) and the
/// histogram the per-node row-estimate errors feed.
struct AnalyzeCtx {
  double root_cost = 0;
  double root_ns = 0;
  common::Histogram* rows_err = nullptr;
};

std::string Fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

void ExplainNode(const PhysicalNode& n, int indent, std::string* out,
                 const AnalyzeCtx* ctx = nullptr) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  *out += KindName(n.kind);
  if (n.kind == Kind::kSort || n.kind == Kind::kTopK) {
    *out += " by " + SpecString(n.spec);
  }
  if (n.kind == Kind::kExchange) {
    *out += " dop=" + std::to_string(n.dop);
    *out += n.ordered_merge ? " merge=" + SpecString(n.spec) : " union";
  }
  if (n.kind == Kind::kParallelHashAgg) {
    *out += " dop=" + std::to_string(n.dop);
  }
  if (n.kind == Kind::kTopK || n.kind == Kind::kLimit) {
    *out += " k=" + std::to_string(n.limit);
  }
  if (!n.group_cols.empty() || n.kind == Kind::kStreamAgg ||
      n.kind == Kind::kHashAgg) {
    *out += " groups=" + SpecString(n.group_cols);
  }
  if (n.left_key >= 0) {
    *out += " keys=(" + std::to_string(n.left_key) + ", " +
            std::to_string(n.right_key) + ")";
  }
  if (n.range.has_value()) {
    *out += " range=[" + std::to_string(n.range->first) + ", " +
            std::to_string(n.range->second) + "]";
  }
  if (!n.preds.empty()) {
    *out += " preds=" + std::to_string(n.preds.size());
  }
  if (!n.out_ordering.empty()) {
    *out += " ordering=" + SpecString(n.out_ordering);
  }
  *out += " est_rows=" + std::to_string(static_cast<int64_t>(n.est_rows));
  *out += " est_cost=" + std::to_string(static_cast<int64_t>(n.est_cost));
  if (n.actual_rows >= 0) {
    *out += " actual_rows=" + std::to_string(n.actual_rows);
  }
  if (ctx != nullptr) {
    if (n.actual_ns >= 0) {
      *out += " actual_ms=" + Fixed(n.actual_ns / 1e6, 3);
    }
    if (n.actual_rows >= 0) {
      const double err = 100.0 * (n.est_rows - n.actual_rows) /
                         std::max<double>(1.0, n.actual_rows);
      *out += " rows_err=" + std::string(err >= 0 ? "+" : "") +
              Fixed(err, 0) + "%";
      if (ctx->rows_err != nullptr) {
        ctx->rows_err->Record(static_cast<int64_t>(std::fabs(err)));
      }
    }
    // Cost-model share error: the node's share of total runtime over its
    // share of total estimated cost. 1.00 = the model apportioned this
    // node's weight perfectly; >1 = it under-charged the node.
    if (n.actual_ns > 0 && ctx->root_ns > 0 && n.est_cost > 0 &&
        ctx->root_cost > 0) {
      const double share_actual = n.actual_ns / ctx->root_ns;
      const double share_est = n.est_cost / ctx->root_cost;
      *out += " cost_err=x" + Fixed(share_actual / share_est, 2);
    }
  }
  if (!n.note.empty()) *out += "  -- " + n.note;
  *out += "\n";
  for (const auto& c : n.children) ExplainNode(*c, indent + 1, out, ctx);
}

}  // namespace

exec::OpPtr PhysicalPlan::Compile(ExecStats* stats) const {
  return CompileNode(*root_, tables_, stats, options_);
}

engine::Table PhysicalPlan::Execute(ExecStats* stats) const {
  // Re-enter the planning request's trace when executed from outside it
  // (deferred execution); leave the ambient context alone when we are
  // already inside that trace — e.g. under Session::Execute's root span —
  // so spans keep parenting under the innermost open span.
  const common::TraceContext ambient = common::Tracer::CurrentContext();
  const bool adopt = trace_context_.trace_id != 0 &&
                     ambient.trace_id != trace_context_.trace_id;
  common::TraceContextScope scope(adopt ? trace_context_ : ambient);
  OD_TRACE_SPAN("plan.execute");
  exec::OpPtr op = Compile(stats);
  engine::Table out = exec::Drain(op.get(), stats);
  if (stats != nullptr) {
    stats->sorts_elided += sorts_elided_;
    stats->joins_elided += joins_elided_;
  }
  return out;
}

std::string PhysicalPlan::Explain() const {
  std::string out;
  ExplainNode(*root_, 0, &out);
  if (!proofs_.empty()) {
    out += "enforcers elided by OD reasoning (" +
           std::to_string(sorts_elided_) + " sorts, " +
           std::to_string(joins_elided_) + " joins):\n";
    for (const auto& p : proofs_) out += "  * " + p + "\n";
  }
  return out;
}

std::string PhysicalPlan::ExplainAnalyze() const {
  AnalyzeCtx ctx;
  ctx.root_cost = root_->est_cost;
  ctx.root_ns = root_->actual_ns > 0 ? static_cast<double>(root_->actual_ns)
                                     : 0.0;
  ctx.rows_err = &common::MetricRegistry::Global().GetHistogram(
      "od_planner_rows_est_error_pct",
      "Absolute estimated-vs-actual row error percent per plan node");
  std::string out = "EXPLAIN ANALYZE";
  if (root_->actual_ns >= 0) {
    out += " (total " + Fixed(root_->actual_ns / 1e6, 3) + " ms)";
  } else {
    out += " (plan not executed — estimates only)";
  }
  out += "\n";
  ExplainNode(*root_, 0, &out, &ctx);
  if (!proofs_.empty()) {
    out += "enforcers elided by OD reasoning (" +
           std::to_string(sorts_elided_) + " sorts, " +
           std::to_string(joins_elided_) + " joins):\n";
    for (const auto& p : proofs_) out += "  * " + p + "\n";
  }
  return out;
}

PhysicalPlan PlanQuery(const LogicalQuery& q, const CostModel& cost,
                       const PlanOptions& options) {
  if (options.dop < 1) {
    throw std::invalid_argument("PlanQuery: dop must be >= 1");
  }
  if (options.batch_rows < 1) {
    throw std::invalid_argument("PlanQuery: batch_rows must be >= 1");
  }
  Planner planner(q, cost);
  Cand winner = planner.Plan();
  if (options.dop > 1) {
    ParallelizeNode(&winner.node, options.dop, cost, &winner.proofs);
  }
  PhysicalPlan plan;
  plan.root_ = std::move(winner.node);
  plan.tables_ = q.tables;
  plan.options_ = options;
  plan.sorts_elided_ = winner.sorts_elided;
  plan.joins_elided_ = winner.joins_elided;
  plan.proofs_ = std::move(winner.proofs);
  return plan;
}

std::string ExplainAnalyze(const PhysicalPlan& plan, ExecStats* stats) {
  plan.Execute(stats);  // fills per-node actuals; the table is discarded
  return plan.ExplainAnalyze();
}

}  // namespace opt
}  // namespace od
