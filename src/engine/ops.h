#ifndef OD_ENGINE_OPS_H_
#define OD_ENGINE_OPS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/table.h"

namespace od {
namespace engine {

/// Relational operators over `Table`. Each materializes its result — the
/// engine exists to compare *plan shapes* (with/without sorts, joins,
/// partition scans), not to compete on raw execution speed.
///
/// Every operator validates its ColumnId arguments once at entry and throws
/// std::out_of_range for an invalid id — in particular the -1 that
/// `Schema::Find` returns for an unknown column name. Per-row accessors
/// stay unchecked.

// ---------------------------------------------------------------------------
// Sorting.

/// A sort specification: the column list of an ORDER BY, all ascending
/// (the paper's setting).
using SortSpec = std::vector<ColumnId>;

/// Stable-sorts `t` by `spec`; the result's ordering property is `spec`.
/// Short-circuits via IsSortedBy: an already-sorted input is returned as a
/// copy with its ordering property set, without paying the sort.
/// `was_sorted` (optional) reports whether the short-circuit fired, so a
/// caller classifying the sort as paid vs avoided does not re-scan.
Table SortBy(const Table& t, const SortSpec& spec,
             bool* was_sorted = nullptr);

/// Whether `t`'s rows are physically sorted by `spec`.
bool IsSortedBy(const Table& t, const SortSpec& spec);

// ---------------------------------------------------------------------------
// Filtering.

struct Predicate {
  enum class Op { kEq, kLt, kLe, kGt, kGe, kBetween };
  ColumnId col;
  Op op;
  Value lo;          // the operand; for kBetween the lower bound (inclusive)
  Value hi = Value();  // for kBetween the upper bound (inclusive)

  bool Matches(const Table& t, int64_t row) const;
};

/// Row ids of `t` satisfying every predicate (a conjunction), in row order.
std::vector<int64_t> FilterRowIds(const Table& t,
                                  const std::vector<Predicate>& preds);

/// Materialized filter; preserves the input's ordering property.
Table Filter(const Table& t, const std::vector<Predicate>& preds);

// ---------------------------------------------------------------------------
// Aggregation.

struct AggSpec {
  enum class Kind { kCount, kSum, kMin, kMax, kAvg };
  Kind kind;
  ColumnId col;          // ignored for kCount
  std::string out_name;
};

/// Hash-based GROUP BY: no ordering requirement, unordered output (the
/// result rows appear in first-seen order). Rows share a group iff their
/// group columns compare equal (Column::AppendKey), exactly as in
/// StreamGroupBy. Output schema: the group columns, then one column per
/// aggregate.
Table HashGroupBy(const Table& t, const std::vector<ColumnId>& group_cols,
                  const std::vector<AggSpec>& aggs);

/// Stream (sort-based) GROUP BY: requires rows with equal group keys to be
/// contiguous — e.g. input sorted by any list that orders the group columns.
/// Output preserves the input's group order, so its ordering property is the
/// prefix of the input ordering that the group columns cover.
Table StreamGroupBy(const Table& t, const std::vector<ColumnId>& group_cols,
                    const std::vector<AggSpec>& aggs);

/// DISTINCT via hashing / via an ordered stream (requires contiguity, as
/// StreamGroupBy).
Table HashDistinct(const Table& t, const std::vector<ColumnId>& cols);
Table StreamDistinct(const Table& t, const std::vector<ColumnId>& cols);

// ---------------------------------------------------------------------------
// Joins (single-column int64 equi-joins — the star-schema surrogate keys).

/// Output schema: all left columns, then all right columns (right column
/// names prefixed with `right_prefix` if a name collides).
Table HashJoin(const Table& left, ColumnId left_key, const Table& right,
               ColumnId right_key, const std::string& right_prefix = "r_");

/// Sort-merge join. If `assume_sorted` is false the inputs are sorted on
/// their keys first (the cost the paper's order reasoning avoids) — but a
/// side that IsSortedBy its key is merged in place without re-sorting.
/// `input_sorts_paid` (optional) reports how many input sorts actually ran
/// (0–2; always 0 under assume_sorted), for paid-vs-avoided accounting.
Table SortMergeJoin(const Table& left, ColumnId left_key, const Table& right,
                    ColumnId right_key, bool assume_sorted,
                    const std::string& right_prefix = "r_",
                    int* input_sorts_paid = nullptr);

// ---------------------------------------------------------------------------
// Misc.

/// Keeps only `cols`, in the given order.
Table Project(const Table& t, const std::vector<ColumnId>& cols);

/// Concatenates tables with identical schemas.
Table Concat(const std::vector<const Table*>& tables);

/// True if both tables contain the same multiset of rows (schema-compatible
/// by position). Used by tests and benches to assert plan equivalence.
bool SameRowMultiset(const Table& a, const Table& b);

}  // namespace engine
}  // namespace od

#endif  // OD_ENGINE_OPS_H_
