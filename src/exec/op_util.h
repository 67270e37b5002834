#ifndef OD_EXEC_OP_UTIL_H_
#define OD_EXEC_OP_UTIL_H_

// Helpers shared by the exec operator implementations (operators.cc,
// parallel.cc, sort.cc); not part of the exec API. engine/ops.cc
// keeps its own copies on purpose: the tests use engine:: as an
// independent reference for exec::.

#include <cstdint>
#include <string>
#include <vector>

#include "core/value.h"
#include "engine/ops.h"
#include "engine/table.h"
#include "exec/batch.h"

namespace od {
namespace exec {

/// Aggregate accumulator over raw moments only (count/sum/min/max), so
/// partials from different fragments merge exactly: avg = sum/count is
/// finished after the merge, never merged itself.
struct Acc {
  int64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  bool has = false;

  void Add(double v) {
    ++count;
    sum += v;
    // CompareDoubles, not raw `<`: NaN must order totally (ties with NaN,
    // after every value) or min/max stop being associative, and the
    // fragment merge relies on associativity to reproduce the serial
    // answer.
    if (!has || CompareDoubles(v, min) < 0) min = v;
    if (!has || CompareDoubles(v, max) > 0) max = v;
    has = true;
  }
  void AddCountOnly() { ++count; }
  void Merge(const Acc& o) {
    count += o.count;
    sum += o.sum;
    if (o.has && (!has || CompareDoubles(o.min, min) < 0)) min = o.min;
    if (o.has && (!has || CompareDoubles(o.max, max) > 0)) max = o.max;
    has |= o.has;
  }
  double Result(engine::AggSpec::Kind kind) const {
    switch (kind) {
      case engine::AggSpec::Kind::kCount: return static_cast<double>(count);
      case engine::AggSpec::Kind::kSum: return sum;
      case engine::AggSpec::Kind::kMin: return min;
      case engine::AggSpec::Kind::kMax: return max;
      case engine::AggSpec::Kind::kAvg: return count == 0 ? 0 : sum / count;
    }
    return 0;
  }
};

/// Same contract as the engine operators: ColumnId arguments are validated
/// once at operator construction (catching Schema::Find's -1), per-row
/// accessors stay unchecked. Throws std::out_of_range naming `op`.
void CheckColumn(const engine::Schema& s, engine::ColumnId c, const char* op);
void CheckColumns(const engine::Schema& s,
                  const std::vector<engine::ColumnId>& cols, const char* op);

/// Rejects a batch size below 1: at 0 a scan emits empty batches forever
/// (Next true, no rows), and a negative one breaks row arithmetic. Throws
/// std::invalid_argument naming `op`.
void CheckBatchRows(int64_t batch_rows, const char* op);

/// Renders a sort spec or column list as "[a, b, c]" (error messages).
std::string SpecString(const engine::SortSpec& spec);

/// Whether `spec` is a literal prefix of `ordering`: rows sorted by
/// `ordering` are then sorted by `spec` too.
bool IsPrefixOf(const engine::SortSpec& spec,
                const engine::SortSpec& ordering);

/// Output schema of a GROUP BY: the group columns, then one column per
/// aggregate (int64 for counts, double otherwise).
engine::Schema AggOutputSchema(const engine::Schema& in,
                               const std::vector<engine::ColumnId>& groups,
                               const std::vector<engine::AggSpec>& aggs);

/// Output schema of a join: left columns, then right columns with
/// colliding names prefixed (mirrors engine::HashJoin/SortMergeJoin).
engine::Schema JoinSchema(const engine::Schema& left,
                          const engine::Schema& right,
                          const std::string& right_prefix);

/// Appends rows [*pos, *pos + batch_rows) of `t` to `out` and advances
/// *pos; false once *pos reached the end of `t`. The emit phase of every
/// operator that streams out a materialized table.
bool EmitTableSlice(const engine::Table& t, int64_t* pos, int64_t batch_rows,
                    Batch* out);

}  // namespace exec
}  // namespace od

#endif  // OD_EXEC_OP_UTIL_H_
