#ifndef OD_OPTIMIZER_PLANNER_H_
#define OD_OPTIMIZER_PLANNER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "engine/index.h"
#include "engine/ops.h"
#include "engine/partition.h"
#include "engine/table.h"
#include "exec/operator.h"
#include "optimizer/exec_stats.h"
#include "optimizer/order_property.h"
#include "theory/theory.h"

namespace od {
namespace opt {

/// Cost model of the streaming executor: every constant is "abstract work
/// units per row" for one operator. The absolute scale is meaningless; only
/// ratios matter, and they are calibrated against the engine's measured
/// per-row costs (see docs/exec.md for the calibration procedure —
/// essentially: run bench_exec's single-operator micros and set each
/// constant proportional to its ns/row).
struct CostModel {
  double scan_row = 1.0;        ///< stream a row out of a sequential scan
  double index_row = 2.0;       ///< gather a row through an index permutation
  double filter_term = 0.3;     ///< evaluate one predicate on one row
  double sort_row_log = 0.7;    ///< per row per log2(n) of a sort enforcer
  double stream_agg_row = 1.2;  ///< accumulate one row, groups contiguous
  double hash_agg_row = 3.0;    ///< hash + accumulate one row
  double merge_row = 1.5;       ///< advance one merge-join input row
  double hash_build_row = 3.5;  ///< insert one row into a join hash table
  double hash_probe_row = 1.8;  ///< probe one row against it
  double output_row = 0.5;      ///< emit one join/agg output row
  /// Selectivity guesses when no index can answer exactly.
  double eq_selectivity = 0.1;
  double range_selectivity = 0.3;
  /// Parallel-plan costing: moving one row through an exchange boundary
  /// (fragment materialize + union/merge emit), and the fixed per-fragment
  /// startup tax that keeps the planner from parallelizing tiny inputs.
  double exchange_row = 0.6;
  double fragment_startup = 2000.0;

  double SortCost(double rows) const;
  double TopKCost(double rows, double k) const;
};

/// Execution-strategy knobs of PlanQuery, orthogonal to the logical query:
/// how parallel, how memory-bounded, how batched. The defaults reproduce
/// the serial in-memory executor exactly.
struct PlanOptions {
  /// Degree of parallelism: number of morsel fragments the driving
  /// pipeline is split into. 1 = serial (no exchange anywhere). The plan
  /// records the dop it was built for; Compile/Execute then need `pool`.
  int dop = 1;
  /// Pool the exchanges stream fragments on at execution time (and the
  /// sorts prepare spilled runs on). Exchanges are placed wherever
  /// profitable — several per plan — since producers are work-stealing
  /// scheduler tasks, not reserved threads. Null (or a one-thread pool)
  /// with dop > 1 runs the same producer pumps inline on the consumer
  /// thread: same results, no speedup, and each exchange holds up to
  /// fragments × exec::kExchangeQueueBatches batches — handy in tests.
  common::ThreadPool* pool = nullptr;
  /// Rows each Sort enforcer may hold in memory before it spills a sorted
  /// run to disk; < 0 never spills (the default). Every plan compiles its
  /// sorts to the one exec::Sort, with this budget.
  int64_t spill_budget_rows = -1;
  /// Directory for spilled runs (empty: the system temp dir).
  std::string spill_dir;
  /// Batch granularity of compiled operators.
  int64_t batch_rows = exec::kDefaultBatchRows;
};

/// One table of a logical query plus its physical access paths and its
/// prescribed constraints. The planner consults the theory through an
/// `OrderReasoner` to prove enforcers unnecessary; a null theory means "no
/// ODs declared" (only trivially true order facts hold).
struct TableRef {
  std::string name;
  const engine::Table* table = nullptr;
  const engine::OrderedIndex* index = nullptr;              // optional
  const engine::PartitionedTable* partitions = nullptr;     // optional
  std::shared_ptr<theory::Theory> ods;                      // optional
  /// Optional shared prover over `ods` (must be attached to that same
  /// theory). When set, the planner's OrderReasoner reuses it — and its
  /// memo — instead of constructing a cold private prover, so repeated
  /// planning against one pinned catalog (service sessions, plan caches)
  /// pays for each proof once. When null, a private prover is built.
  std::shared_ptr<prover::Prover> prover;
  /// Column this table's surrogate join key is declared order-equivalent
  /// to (e.g. d_date for d_date_sk) — enables the Section 2.3 join
  /// elimination when the equivalence is *proven* from `ods`.
  engine::ColumnId natural_order_col = -1;
};

/// An equi-join of the driving table (tables[0]) with tables[right_table].
struct JoinClause {
  int right_table = 1;
  engine::ColumnId left_col = 0;   ///< driving-table column
  engine::ColumnId right_col = 0;  ///< right-table column
};

/// A logical query over a small star: SELECT <group cols>, <aggs> FROM
/// tables[0] JOIN ... WHERE <filters> GROUP BY <group_cols> ORDER BY
/// <order_by> LIMIT <limit>. Group, aggregate, and order-by columns are
/// driving-table column ids (they keep their ids through left-deep joins).
/// With aggregation, order_by must be a subset of group_cols.
struct LogicalQuery {
  std::string name;
  std::vector<TableRef> tables;  ///< 1..3 entries; [0] is the driving table
  std::vector<JoinClause> joins;
  std::vector<std::vector<engine::Predicate>> filters;  ///< per table
  std::vector<engine::ColumnId> group_cols;
  std::vector<engine::AggSpec> aggs;
  engine::SortSpec order_by;
  int64_t limit = -1;  ///< -1 = no limit
};

/// A node of the chosen physical plan: operator kind + arguments + planner
/// annotations (estimated rows/cost, proven output ordering, proof notes).
struct PhysicalNode {
  enum class Kind {
    kScan,
    kIndexScan,
    kPartitionedScan,
    kFilter,
    kProject,
    kSort,
    kTopK,
    kLimit,
    kStreamAgg,
    kHashAgg,
    kMergeJoin,
    kHashJoin,
    /// Morsel exchange: children[0] is the *fragment template* — the
    /// driving chain each of `dop` workers runs over its own row-range
    /// morsel. `spec` holds the merge order when `ordered_merge` (the
    /// OD-proven order-preserving k-way merge); union otherwise.
    kExchange,
    /// Partition-parallel GROUP BY: children[0] is the pre-aggregation
    /// fragment template; thread-local accumulator build, merged exact.
    kParallelHashAgg,
    /// Combines adjacent equal-group partial rows after an ordered
    /// exchange of per-fragment stream aggregates (children[0] is the
    /// kExchange node).
    kCombinePartials,
  };

  Kind kind;
  std::vector<std::unique_ptr<PhysicalNode>> children;
  int table_index = -1;  ///< for scans
  std::optional<std::pair<int64_t, int64_t>> range;
  std::vector<engine::Predicate> preds;
  engine::SortSpec spec;  ///< sort spec / projection columns
  std::vector<engine::ColumnId> group_cols;
  std::vector<engine::AggSpec> aggs;
  engine::ColumnId left_key = -1;
  engine::ColumnId right_key = -1;
  int64_t limit = 0;
  int dop = 1;                ///< fragments of a kExchange/kParallelHashAgg
  bool ordered_merge = false; ///< kExchange recombination mode

  double est_rows = 0;
  double est_cost = 0;  ///< cumulative (this node + children)
  engine::SortSpec out_ordering;
  std::string note;  ///< e.g. the OD proof that elided an enforcer

  /// Filled during Execute by per-node counting wrappers; -1 = not run.
  mutable int64_t actual_rows = -1;
  /// Inclusive wall-clock (this node + everything below it) spent inside
  /// Next, in nanoseconds; -1 = not run. Fragment interiors stay -1 — the
  /// exchange node above them is timed instead (hash-join build sides,
  /// which run once outside the fragments, are timed themselves).
  mutable int64_t actual_ns = -1;
};

/// The cheapest physical plan for a logical query. Compile() instantiates
/// a fresh streaming operator tree (operators are single-use); Execute()
/// compiles, drains, and folds the plan-time enforcer elisions into the
/// stats; Explain() renders the EXPLAIN tree with estimated — and, after
/// an Execute, actual — row counts per node. Execute records per-node
/// actuals into this plan, so a plan should not be executed concurrently
/// with itself.
class PhysicalPlan {
 public:
  PhysicalPlan() = default;

  const PhysicalNode& root() const { return *root_; }
  double est_cost() const { return root_ == nullptr ? 0 : root_->est_cost; }
  int sorts_elided() const { return sorts_elided_; }
  int joins_elided() const { return joins_elided_; }
  /// Human-readable OD proofs behind each elided enforcer.
  const std::vector<std::string>& proofs() const { return proofs_; }

  /// The execution options the plan was built for (dop, spill budget,
  /// batch size, pool) — Compile reads them, so a plan carries its own
  /// parallelism.
  const PlanOptions& options() const { return options_; }

  exec::OpPtr Compile(ExecStats* stats) const;
  engine::Table Execute(ExecStats* stats) const;
  std::string Explain() const;

  /// The request the plan was built under (service::Session::Plan stamps
  /// this with its root span's context). Execute re-enters it when run
  /// from a thread that is not already inside the same trace, so deferred
  /// executions — plan now, run later, possibly elsewhere — still parent
  /// their exchange/spill spans under the originating request.
  const common::TraceContext& trace_context() const { return trace_context_; }
  void set_trace_context(common::TraceContext ctx) { trace_context_ = ctx; }

  /// EXPLAIN ANALYZE: the Explain tree annotated per node with actual
  /// wall-clock, actual rows, the estimated-vs-actual row error, and the
  /// cost-model share error (the node's share of total runtime divided by
  /// its share of total estimated cost — 1.0 means the model apportioned
  /// this node perfectly). Requires a prior Execute on this plan (nodes
  /// that never ran render their estimates only). The OD proofs behind
  /// every elided sort/join close the report, exactly as in Explain().
  std::string ExplainAnalyze() const;

 private:
  friend PhysicalPlan PlanQuery(const LogicalQuery&, const CostModel&,
                                const PlanOptions&);

  std::unique_ptr<PhysicalNode> root_;
  std::vector<TableRef> tables_;  // pointers the compiled operators read
  PlanOptions options_;
  common::TraceContext trace_context_;  // {0,0} outside a traced request
  int sorts_elided_ = 0;
  int joins_elided_ = 0;
  std::vector<std::string> proofs_;
};

/// Enumerates physical alternatives for `q` — scan choice per table, join
/// order (left-deep, driving table leftmost), stream-vs-hash aggregation
/// and join, enforcer placement, and the Section 2.3 surrogate-key join
/// elimination — proving enforcers unnecessary via each table's
/// OrderReasoner wherever the declared ODs allow, and returns the cheapest
/// plan under `cost`. Throws std::invalid_argument on malformed queries.
///
/// With `options.dop > 1` a parallelization pass follows the serial
/// enumeration: the winner's driving chain (scan/filter/project/hash-probe)
/// is cut into `dop` row-range morsels behind an exchange — recombined by
/// an OD-proven order-preserving merge when the chain carries an ordering
/// property (so parallelism never reintroduces an elided sort), a plain
/// union otherwise — hash aggregation becomes thread-local build + merge,
/// and stream aggregation becomes per-fragment partials + ordered merge +
/// combine. The parallel plan is adopted only when the cost model says the
/// fan-out pays for the exchange overhead.
PhysicalPlan PlanQuery(const LogicalQuery& q,
                       const CostModel& cost = CostModel(),
                       const PlanOptions& options = PlanOptions());

/// Executes `plan` (merging runtime counters into `stats` when non-null,
/// discarding the result table) and returns the annotated
/// PhysicalPlan::ExplainAnalyze report. The one-call form of
/// "EXPLAIN ANALYZE <query>".
std::string ExplainAnalyze(const PhysicalPlan& plan,
                           ExecStats* stats = nullptr);

}  // namespace opt
}  // namespace od

#endif  // OD_OPTIMIZER_PLANNER_H_
