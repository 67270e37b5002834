#ifndef OD_ENGINE_TABLE_H_
#define OD_ENGINE_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/value.h"

namespace od {
namespace engine {

/// Column index within a table's schema. The optimizer identifies a table's
/// columns with theory attributes one-to-one, so a ColumnId doubles as an
/// AttributeId when reasoning about the table's dependencies.
using ColumnId = int32_t;

enum class DataType { kInt64, kDouble, kString };

struct ColumnDef {
  std::string name;
  DataType type;
};

/// A named, typed column list.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnDef> cols) : cols_(std::move(cols)) {}

  int num_columns() const { return static_cast<int>(cols_.size()); }
  const ColumnDef& col(ColumnId i) const { return cols_[i]; }
  /// Returns the column id for `name`, or -1.
  ColumnId Find(const std::string& name) const;
  void Add(const std::string& name, DataType type) {
    cols_.push_back({name, type});
  }

 private:
  std::vector<ColumnDef> cols_;
};

/// Typed columnar storage. Only the vector matching the declared type is
/// populated; accessors are unchecked for speed in benchmarks.
class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  int64_t size() const;

  void AppendInt(int64_t v) { ints_.push_back(v); }
  void AppendDouble(double v) { doubles_.push_back(v); }
  void AppendString(std::string v) { strings_.push_back(std::move(v)); }
  void Append(const Value& v);
  /// Appends `src`'s single row `row` (types must match).
  void AppendFrom(const Column& src, int64_t row);
  /// Bulk-appends `src`'s rows [begin, end) — the batch-slicing fast path
  /// of the streaming executor (one memcpy-ish insert, no per-row switch).
  void AppendRange(const Column& src, int64_t begin, int64_t end);
  /// Drops all values but keeps the declared type (batch reuse).
  void Clear();

  int64_t Int(int64_t row) const { return ints_[row]; }
  double Double(int64_t row) const { return doubles_[row]; }
  const std::string& Str(int64_t row) const { return strings_[row]; }
  Value Get(int64_t row) const;
  /// As a double regardless of numeric type (for aggregates).
  double Numeric(int64_t row) const;

  /// Three-way comparison of this column's `row` against `other`'s `row2`.
  int Compare(int64_t row, const Column& other, int64_t row2) const;

  /// Appends `row`'s grouping key to `key`: two rows of columns of one type
  /// append the same bytes iff Compare calls them equal. Int64 appends its
  /// 8 bytes, a double its DoubleKey (one key for every NaN, -0.0 as
  /// +0.0), a string its length then its bytes, so keys of several columns
  /// concatenate without ambiguity. The one key encoding of every hash
  /// GROUP BY.
  void AppendKey(int64_t row, std::string* key) const;

  void Reserve(int64_t n);

 private:
  DataType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

/// A columnar table with an optional known ordering property (the list of
/// columns the rows are known to be sorted by — the engine-side analogue of
/// an ORDER BY specification, maintained by scans/sorts and consumed by the
/// optimizer's order reasoning).
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  int num_columns() const { return schema_.num_columns(); }
  int64_t num_rows() const { return num_rows_; }

  Column& col(ColumnId i) { return cols_[i]; }
  const Column& col(ColumnId i) const { return cols_[i]; }
  ColumnId Find(const std::string& name) const { return schema_.Find(name); }

  /// Appends one row given as values (must match schema arity and types).
  void AppendRow(const std::vector<Value>& row);
  /// Bumps the row count after appending directly into columns.
  void FinishRow() { ++num_rows_; }
  void SetRowCount(int64_t n) { num_rows_ = n; }

  /// Gathers the given rows (in order) into a new table; the ordering
  /// property is cleared unless set by the caller.
  Table Gather(const std::vector<int64_t>& row_ids) const;

  /// The columns this table is known to be sorted by (lexicographically,
  /// ascending), empty if unknown.
  const std::vector<ColumnId>& ordering() const { return ordering_; }
  void SetOrdering(std::vector<ColumnId> cols) { ordering_ = std::move(cols); }

  /// Three-way lexicographic comparison of two rows on `key`.
  int CompareRows(int64_t r1, int64_t r2,
                  const std::vector<ColumnId>& key) const;

  std::string ToString(int64_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Column> cols_;
  int64_t num_rows_ = 0;
  std::vector<ColumnId> ordering_;
};

}  // namespace engine
}  // namespace od

#endif  // OD_ENGINE_TABLE_H_
