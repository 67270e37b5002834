#ifndef OD_EXEC_PARALLEL_H_
#define OD_EXEC_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "engine/ops.h"
#include "engine/table.h"
#include "exec/operator.h"

namespace od {
namespace exec {

/// Builds the pipeline fragment a worker runs over morsel `fragment` of
/// [0, num_fragments) — e.g. a Scan over that fragment's row range, with
/// the same Filter/Project/probe chain stacked on each. `stats` is a
/// *private* per-fragment ExecStats owned by the exchange: workers never
/// share a counter, the exchange merges them single-threaded after the
/// fragments join (what keeps the whole layer clean under TSan).
///
/// The exchange copies the factory and invokes it *from producer tasks*
/// (fragment 0 is built eagerly for the schema; the rest lazily, inside
/// their tasks): calls for distinct fragments run concurrently, so the
/// factory must be safe to invoke in parallel (building independent trees
/// over shared read-only inputs is), and anything it captures must stay
/// valid until the exchange is drained or destroyed.
using FragmentFactory =
    std::function<OpPtr(int fragment, opt::ExecStats* stats)>;

/// Per-fragment capacity (in batches) of a streaming exchange's bounded
/// queues — with per-batch rows capped at the plan's batch_rows, the
/// exchange's resident footprint is O(fragments × kExchangeQueueBatches ×
/// batch_rows) regardless of input size. Exposed so tests can assert the
/// bound against ExecStats::exchange_peak_rows.
inline constexpr int kExchangeQueueBatches = 4;

/// How an exchange recombines its fragments' streams.
enum class MergeMode {
  /// Concatenates fragment outputs in fragment order. No ordering claim
  /// (except trivially at one fragment).
  kUnion,
  /// OD-proven order-preserving k-way merge: every fragment must *claim*
  /// `merge_spec` (as a prefix of its ordering property) — the planner
  /// proves the claim via OrderReasoner before choosing this mode, and the
  /// exchange throws std::logic_error at build time if a fragment shows up
  /// without the proof. Heap ties break on fragment index, so with
  /// row-range morsels the merged stream is row-identical to the serial
  /// plan, and the exchange claims `merge_spec` as its own ordering.
  kOrderedMerge,
};

/// The streaming exchange operator: on the first Next it spawns one
/// producer task per fragment on `pool`; each task builds its fragment,
/// checks the merge proof, and pushes batches through a bounded
/// per-fragment queue — no fragment is ever materialized. Union mode
/// emits queues in fragment order (production interleaves; emission is
/// deterministic, so for row-range morsels the stream is row-identical
/// to the serial plan even under a Sort or hash build); ordered-merge
/// mode runs the OD-proven k-way merge over the per-fragment queue
/// heads. An early-exiting consumer (Limit) or a
/// failing fragment cancels the queues, which unblocks and winds down
/// every producer (temp spill files clean up via their destructors); the
/// first producer exception is rethrown on the consumer.
///
/// Producers never block: a pump whose queue is full parks (returns its
/// thread to the scheduler) and resumes when the consumer frees space, so
/// any fragment/worker ratio is safe. `pool` may be null (or
/// single-threaded): TaskGroup then runs the same pumps inline, each
/// filling its queue before it parks and resuming inside the consumer's
/// Pop, so the exchange still holds up to fragments ×
/// kExchangeQueueBatches batches and returns the same rows. Fragments may
/// themselves contain exchanges: producers are stealable tasks and the
/// consumer helps run queued tasks while it waits, so nested parallel
/// regions cannot deadlock.
OpPtr Exchange(int num_fragments, FragmentFactory factory, MergeMode mode,
               engine::SortSpec merge_spec, common::ThreadPool* pool,
               opt::ExecStats* stats = nullptr,
               int64_t batch_rows = kDefaultBatchRows);

/// Partition-parallel GROUP BY: each worker drains its fragment into a
/// thread-local hash of *raw accumulators* (count/sum/min/max), which are
/// merged accumulator-wise after the join — so non-decomposable results
/// like kAvg still come out exact (avg is finished only after the merge).
/// Output schema: group columns then one column per aggregate; no output
/// ordering. The same operator as HashAggregate, whose one fragment is its
/// child.
OpPtr ParallelHashAggregate(int num_fragments, FragmentFactory factory,
                            std::vector<engine::ColumnId> group_cols,
                            std::vector<engine::AggSpec> aggs,
                            common::ThreadPool* pool,
                            opt::ExecStats* stats = nullptr,
                            int64_t batch_rows = kDefaultBatchRows);

/// Combines adjacent partial-aggregate rows with equal group keys into one
/// final row — the "merge" stage after an ordered exchange of per-fragment
/// StreamAggregate outputs (a group straddling a morsel boundary arrives as
/// two adjacent rows). Child schema: `num_group_cols` group columns then
/// one column per entry of `kinds`, holding that aggregate's finished
/// value. Only decomposable kinds (count/sum/min/max) are accepted — a
/// finished avg cannot be re-combined; the planner routes avg queries
/// through ParallelHashAggregate instead. Precondition (checked): the
/// child's ordering covers all group columns in its first `num_group_cols`
/// entries, so equal groups are contiguous. Preserves the child's ordering.
OpPtr CombinePartialAggregates(OpPtr child, int num_group_cols,
                               std::vector<engine::AggSpec::Kind> kinds);

/// The immutable build side of a partition-parallel hash join: built once,
/// shared read-only by every probe fragment (no per-fragment rebuild).
struct SharedHashTable {
  engine::Table rows;
  std::unordered_multimap<int64_t, int64_t> index;  // key value -> build row
};

/// Drains `build` and hashes it on int64 column `key`. Counts stats->joins
/// once (the logical join, however many fragments probe it).
std::shared_ptr<const SharedHashTable> BuildSharedHash(
    OpPtr build, engine::ColumnId key, opt::ExecStats* stats = nullptr);

/// Streams `probe`, emitting probe columns then build columns (colliding
/// names prefixed) for every match in `table` — the per-fragment probe half
/// of a parallel hash join; the same operator as HashJoin, given its table.
/// Preserves the probe child's ordering; emits at most `batch_rows` rows
/// per batch.
OpPtr HashProbe(OpPtr probe, engine::ColumnId probe_key,
                std::shared_ptr<const SharedHashTable> table,
                opt::ExecStats* stats = nullptr,
                int64_t batch_rows = kDefaultBatchRows,
                const std::string& right_prefix = "r_");

}  // namespace exec
}  // namespace od

#endif  // OD_EXEC_PARALLEL_H_
