#include "exec/batch.h"

namespace od {
namespace exec {

void Batch::Reset(const engine::Schema& schema) {
  cols_.clear();
  cols_.reserve(schema.num_columns());
  for (int i = 0; i < schema.num_columns(); ++i) {
    cols_.emplace_back(schema.col(i).type);
  }
  num_rows_ = 0;
}

void Batch::Clear() {
  for (auto& c : cols_) c.Clear();
  num_rows_ = 0;
}

void Batch::Prepare(const engine::Schema& schema) {
  if (num_columns() == schema.num_columns()) {
    Clear();
  } else {
    Reset(schema);
  }
}

void Batch::AppendRows(const Batch& src, int64_t begin, int64_t end) {
  for (int c = 0; c < num_columns(); ++c) {
    cols_[c].AppendRange(src.cols_[c], begin, end);
  }
  num_rows_ += end - begin;
}

int Batch::CompareRows(const Batch& a, int64_t ra, const Batch& b, int64_t rb,
                       const std::vector<engine::ColumnId>& key) {
  for (engine::ColumnId c : key) {
    const int cmp = a.cols_[c].Compare(ra, b.cols_[c], rb);
    if (cmp != 0) return cmp;
  }
  return 0;
}

}  // namespace exec
}  // namespace od
