#ifndef OD_OPTIMIZER_EXEC_STATS_H_
#define OD_OPTIMIZER_EXEC_STATS_H_

#include <cstdint>
#include <string>

namespace od {
namespace opt {

/// Counters the benches and tests assert on: plan-shape differences (sorts
/// avoided, joins removed, partitions pruned) show up here independently of
/// wall-clock noise. The streaming executor (`src/exec`) fills them as a
/// plan runs; `PhysicalPlan::Execute` adds the plan-time elisions.
struct ExecStats {
  int64_t rows_scanned = 0;
  int64_t rows_joined = 0;
  /// Rows emitted by the root of the pipeline (filled by exec::Drain, which
  /// PhysicalPlan::Execute calls).
  int64_t rows_output = 0;
  /// Batches emitted by the root of the pipeline.
  int64_t batches = 0;
  int sorts = 0;
  /// Sort enforcers that were *not* paid: either proven unnecessary by OD
  /// reasoning at plan time, or short-circuited at runtime because the
  /// input was already physically sorted (IsSortedBy).
  int sorts_elided = 0;
  int joins = 0;
  /// Joins removed entirely, e.g. by the surrogate-key date rewrite.
  int joins_elided = 0;
  int partitions_scanned = 0;
  /// Exchange fragments drained by parallel plans (0 for serial plans).
  int fragments = 0;
  /// Sorted runs written to disk by the external sort, plus the rows and
  /// on-disk bytes in them.
  int spills = 0;
  int64_t spilled_rows = 0;
  int64_t spilled_bytes = 0;
  /// High-watermark of rows resident in any one streaming exchange's
  /// bounded queues — the streaming-memory bound the exchange lives by
  /// (a materializing exchange would peak at the full input). Merged by
  /// max, not sum: it is a watermark, not a volume.
  int64_t exchange_peak_rows = 0;

  /// Adds `other`'s counters into this one (watermarks merge by max). The
  /// exchange operators give each worker a private ExecStats and merge
  /// after the fragments join, so no counter is ever written from two
  /// threads.
  void Merge(const ExecStats& other);

  /// One-line rendering used by benches and EXPLAIN output.
  std::string ToString() const;
};

}  // namespace opt
}  // namespace od

#endif  // OD_OPTIMIZER_EXEC_STATS_H_
