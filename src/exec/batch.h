#ifndef OD_EXEC_BATCH_H_
#define OD_EXEC_BATCH_H_

#include <cstdint>
#include <vector>

#include "engine/table.h"

namespace od {
namespace exec {

/// Target batch granularity of the streaming executor: large enough to
/// amortize virtual dispatch and keep column slices vectorizable, small
/// enough that a pipeline's working set stays cache-resident. Every exec
/// factory taking a `batch_rows` throws std::invalid_argument below 1.
inline constexpr int64_t kDefaultBatchRows = 4096;

/// A column-chunk batch: the unit of data flow between streaming operators.
/// Storage reuses `engine::Column`, so batches interoperate with the
/// materializing engine (a batch is a short typed table without a schema of
/// its own — operators carry the schema, every batch they emit matches it).
class Batch {
 public:
  Batch() = default;
  explicit Batch(const engine::Schema& schema) { Reset(schema); }

  /// (Re)initializes the column chunks to match `schema`, dropping rows.
  void Reset(const engine::Schema& schema);

  int num_columns() const { return static_cast<int>(cols_.size()); }
  int64_t num_rows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  engine::Column& col(int i) { return cols_[i]; }
  const engine::Column& col(int i) const { return cols_[i]; }

  /// Bumps the row count after appending directly into every column.
  void FinishRow() { ++num_rows_; }
  void SetRowCount(int64_t n) { num_rows_ = n; }

  /// Drops all rows but keeps the column types (reuse across Next calls).
  void Clear();

  /// Readies the batch for rows of `schema`: clears it, re-typing the
  /// columns only when their count differs. A batch is meant to be reused
  /// against one operator; the guard re-types it when a caller switches
  /// operators. Operators call it at the top of Next.
  void Prepare(const engine::Schema& schema);

  /// Appends `src`'s rows [begin, end) column-wise (types must match).
  void AppendRows(const Batch& src, int64_t begin, int64_t end);

  /// Three-way lexicographic comparison of rows (possibly across batches).
  static int CompareRows(const Batch& a, int64_t ra, const Batch& b,
                         int64_t rb, const std::vector<engine::ColumnId>& key);

 private:
  std::vector<engine::Column> cols_;
  int64_t num_rows_ = 0;
};

}  // namespace exec
}  // namespace od

#endif  // OD_EXEC_BATCH_H_
