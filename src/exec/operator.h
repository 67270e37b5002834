#ifndef OD_EXEC_OPERATOR_H_
#define OD_EXEC_OPERATOR_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/index.h"
#include "engine/ops.h"
#include "engine/partition.h"
#include "engine/table.h"
#include "exec/batch.h"
#include "optimizer/exec_stats.h"

namespace od {
namespace common {
class ThreadPool;
}  // namespace common
}  // namespace od

namespace od {
namespace exec {

/// A pull-based streaming operator producing column-chunk batches.
///
/// Contract:
///  * `Next` returns true and fills `out` with ≥ 1 rows matching `schema()`,
///    or returns false when the stream is exhausted (and stays false).
///    Callers own `out` and may reuse it across calls; `Next` clears it.
///  * `ordering()` is the operator's *ordering property*: the column list
///    (ids into `schema()`) the emitted row stream is guaranteed sorted by,
///    empty if unknown. Order-preserving operators carry their input's
///    property through the pipeline, so a downstream consumer (stream
///    aggregate, merge join, ORDER BY) can rely on the order without a
///    materializing sort — the executor-side half of the paper's OD story:
///    the planner *proves* (via `opt::OrderReasoner`) that a property
///    satisfies a requirement, and the property is how the proof's premise
///    travels with the data.
///  * Operators are single-use iterators: build a fresh tree per execution.
///    The contract is *enforced* at the sink: every draining consumer
///    (exec::Drain, the exchange operators' worker drains) claims the
///    operator via `StartConsume`, which throws std::logic_error on a
///    second claim — re-draining an exhausted tree would otherwise return
///    an empty result silently.
class Operator {
 public:
  virtual ~Operator() = default;

  const engine::Schema& schema() const { return schema_; }
  const engine::SortSpec& ordering() const { return ordering_; }

  virtual bool Next(Batch* out) = 0;

  /// Claims this operator for one full consumption. Called by Drain (and
  /// any other sink that pulls to exhaustion); throws std::logic_error if
  /// the operator was already claimed — the single-use contract made loud.
  void StartConsume(const char* who) {
    if (consumed_) {
      throw std::logic_error(std::string(who) +
                             ": operator already consumed (exec operators "
                             "are single-use; build a fresh tree)");
    }
    consumed_ = true;
  }
  bool consumed() const { return consumed_; }

 protected:
  engine::Schema schema_;
  engine::SortSpec ordering_;

 private:
  bool consumed_ = false;
};

using OpPtr = std::unique_ptr<Operator>;

// ---------------------------------------------------------------------------
// Leaf scans. `stats` (nullable) receives rows_scanned / partitions_scanned.

/// A half-open range [first, second) of a scan's units — table rows, index
/// key-order positions or partitions — clamped to the input. A contiguous
/// slice is one morsel of a parallel scan; the default is the whole input.
using UnitRange = std::pair<int64_t, int64_t>;
inline constexpr UnitRange kAllUnits{0, std::numeric_limits<int64_t>::max()};

/// Streams rows `rows` of `table` in physical row order, `batch_rows` rows
/// per batch. Carries the table's ordering property (a contiguous slice
/// inherits it).
OpPtr Scan(const engine::Table* table, opt::ExecStats* stats = nullptr,
           int64_t batch_rows = kDefaultBatchRows, UnitRange rows = kAllUnits);

/// Streams key-order positions `positions` of `index`; a value range of the
/// leading key maps to its positions through OrderedIndex::PositionRange.
/// Ordering property: the index key (every contiguous position slice is
/// sorted by it).
OpPtr IndexRangeScan(const engine::OrderedIndex* index,
                     UnitRange positions = kAllUnits,
                     opt::ExecStats* stats = nullptr,
                     int64_t batch_rows = kDefaultBatchRows);

/// Streams partitions `parts` of a partitioned table partition-by-partition;
/// with a range, non-overlapping partitions are pruned (never touched) and
/// rows of the boundary partitions are filtered to the range.
OpPtr PartitionedScan(const engine::PartitionedTable* table,
                      std::optional<std::pair<int64_t, int64_t>> range =
                          std::nullopt,
                      opt::ExecStats* stats = nullptr,
                      int64_t batch_rows = kDefaultBatchRows,
                      UnitRange parts = kAllUnits);

// ---------------------------------------------------------------------------
// Order-preserving streaming operators.

/// Keeps rows satisfying every predicate; preserves the child's ordering.
OpPtr Filter(OpPtr child, std::vector<engine::Predicate> preds);

/// Keeps only `cols`, in the given order; the child's ordering property is
/// remapped onto the surviving columns (cut at the first dropped one).
OpPtr Project(OpPtr child, std::vector<engine::ColumnId> cols);

/// Streaming GROUP BY. Precondition: rows with equal group keys are
/// contiguous in the child's stream (the planner proves this via
/// OrderReasoner::GroupsContiguousUnder). On a non-contiguous input the
/// operator — like engine::StreamGroupBy — emits one row per maximal run of
/// equal keys, i.e. a group reappearing later produces a duplicate output
/// row. Output schema: group columns, then one column per aggregate; output
/// ordering: the prefix of the child's ordering covered by group columns.
/// Each output batch fills to `batch_rows` groups; only the last is short.
/// With no aggregates it is a streaming DISTINCT.
OpPtr StreamAggregate(OpPtr child, std::vector<engine::ColumnId> group_cols,
                      std::vector<engine::AggSpec> aggs,
                      int64_t batch_rows = kDefaultBatchRows);

/// Streaming merge join on single-column equi-keys of any type (key
/// comparison goes through engine::Column::Compare, so double keys order by
/// od::CompareDoubles — all NaNs equal, after every ordered value).
/// Precondition: both children's streams are sorted by their key; the
/// planner either proves this from ordering properties or places Sort
/// enforcers. Output: left columns then right columns (colliding right
/// names prefixed by `right_prefix`); preserves the left child's ordering.
/// Emits at most `batch_rows` rows per batch, pausing inside an equal-key
/// run when the batch fills.
OpPtr MergeJoin(OpPtr left, engine::ColumnId left_key, OpPtr right,
                engine::ColumnId right_key, opt::ExecStats* stats = nullptr,
                int64_t batch_rows = kDefaultBatchRows,
                const std::string& right_prefix = "r_");

/// Emits the first `n` rows, then stops pulling from the child (early
/// exit: upstream batches past the limit are never produced).
OpPtr Limit(OpPtr child, int64_t n);

// ---------------------------------------------------------------------------
// Pipeline breakers (consume the whole child before emitting). Each
// enforcer has one operator class at every dop: the serial factories below
// and the exchange-side ones in parallel.h build the same operators.

/// Knobs of the sort enforcer. The default never spills.
struct SortOptions {
  /// Rows the sort may hold in memory before a run is cut and spilled to
  /// disk; < 0 never spills (the input sorts as one in-memory run).
  int64_t memory_budget_rows = -1;
  /// Directory for spilled runs; empty = the system temp directory. Runs
  /// are removed when the operator is destroyed — on success, on a
  /// mid-pipeline exception, and on early exit alike.
  std::string temp_dir;
  /// Scheduler for run preparation. When set (and multi-threaded), each
  /// full run's sort + disk write becomes a task — the consumer thread
  /// keeps draining the child while earlier runs spill in the background.
  /// The runs then merge in one pass on the consumer, row-identical to the
  /// serial spill: runs are cut in input order and heap ties break on run
  /// index. Null: everything on the caller.
  common::ThreadPool* pool = nullptr;
};

/// ORDER BY enforcer: accumulates input into memory-bounded runs, spills
/// sorted runs to disk past the budget, and streams a k-way merge of the
/// runs (a single in-memory run is emitted directly). Order reasoning shows
/// up twice:
///  * full elision — if the child's declared ordering property literally
///    covers `spec` (spec is a prefix of it), the input is streamed through
///    untouched: no buffering, no runs, no spill (stats->sorts_elided);
///  * run elision — a run that arrives physically sorted (IsSortedBy —
///    e.g. morsels of an OD-proven ordered scan) skips its sort; the merge
///    still runs. stats->sorts counts 1 iff any run was actually sorted,
///    stats->sorts_elided 1 otherwise.
/// stats->spills / spilled_rows count runs written to disk.
OpPtr Sort(OpPtr child, engine::SortSpec spec, SortOptions options = {},
           opt::ExecStats* stats = nullptr,
           int64_t batch_rows = kDefaultBatchRows);

/// ORDER BY + LIMIT k enforcer: keeps only the k smallest rows under
/// `spec` (O(n log k) selection instead of a full sort, holding at most
/// 2k rows plus one batch), emits them sorted. Ties keep input order, so
/// the rows are those of a stable sort (engine::SortBy) plus LIMIT k.
OpPtr TopK(OpPtr child, engine::SortSpec spec, int64_t k,
           opt::ExecStats* stats = nullptr,
           int64_t batch_rows = kDefaultBatchRows);

/// Hash GROUP BY: streams the child into a hash of raw accumulators
/// (count/sum/min/max), emits the groups in first-seen order. No ordering
/// requirement, no output ordering. The one-fragment form of
/// ParallelHashAggregate, run on the caller's thread.
OpPtr HashAggregate(OpPtr child, std::vector<engine::ColumnId> group_cols,
                    std::vector<engine::AggSpec> aggs,
                    int64_t batch_rows = kDefaultBatchRows);

/// Hash join: on the first Next, drains the right (build) child into a
/// hash table, then streams the left (probe) child — only the build side
/// breaks the pipeline. Int64 keys (the star-schema surrogate keys).
/// Preserves the left child's ordering. Emits at most `batch_rows` rows per
/// batch, pausing inside a probe row's matches when the batch fills. The
/// serial form of HashProbe: the same operator, with the table built by the
/// join itself rather than shared by exchange fragments.
OpPtr HashJoin(OpPtr left, engine::ColumnId left_key, OpPtr right,
               engine::ColumnId right_key, opt::ExecStats* stats = nullptr,
               int64_t batch_rows = kDefaultBatchRows,
               const std::string& right_prefix = "r_");

// ---------------------------------------------------------------------------
// Verification.

/// Forwards the child's stream unchanged while asserting its *claimed*
/// ordering property actually holds: every adjacent row pair (including
/// across batch boundaries) must be non-decreasing under
/// `child->ordering()` per Column::Compare (doubles through
/// od::CompareDoubles, so NaNs tie). Throws std::logic_error on the first
/// violation, naming the offending row. A child claiming no ordering passes
/// through with zero checking. Test harnesses wrap plan roots with this so
/// "the plan claims sorted output" is a *checked* proof obligation, not an
/// annotation.
OpPtr CheckOrder(OpPtr child);

// ---------------------------------------------------------------------------
// Sink.

/// Pulls `op` to exhaustion into a materialized table (whose ordering
/// property is `op->ordering()`). Fills stats->rows_output / stats->batches
/// with what the root emitted. Claims the operator (StartConsume): draining
/// the same tree twice throws instead of silently returning empty.
engine::Table Drain(Operator* op, opt::ExecStats* stats = nullptr);

}  // namespace exec
}  // namespace od

#endif  // OD_EXEC_OPERATOR_H_
