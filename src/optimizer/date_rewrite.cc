#include "optimizer/date_rewrite.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace od {
namespace opt {

namespace {

/// Both probes read the key through the unchecked Column::Int.
void CheckIntKey(const engine::Table& dim, engine::ColumnId key,
                 const char* fn) {
  if (key < 0 || key >= dim.num_columns() ||
      dim.schema().col(key).type != engine::DataType::kInt64) {
    throw std::invalid_argument(std::string(fn) + ": surrogate key column " +
                                std::to_string(key) +
                                " is not an int64 column");
  }
}

}  // namespace

std::optional<std::pair<int64_t, int64_t>> SurrogateKeyRange(
    const engine::Table& dim, engine::ColumnId dim_date_sk,
    const std::vector<engine::Predicate>& preds) {
  CheckIntKey(dim, dim_date_sk, "SurrogateKeyRange");
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  bool any = false;
  for (int64_t row : engine::FilterRowIds(dim, preds)) {
    const int64_t sk = dim.col(dim_date_sk).Int(row);
    lo = std::min(lo, sk);
    hi = std::max(hi, sk);
    any = true;
  }
  if (!any) return std::nullopt;
  return std::make_pair(lo, hi);
}

bool QualifyingRowsContiguous(const engine::Table& dim,
                              engine::ColumnId dim_date_sk,
                              const std::vector<engine::Predicate>& preds) {
  auto range = SurrogateKeyRange(dim, dim_date_sk, preds);  // checks the key
  if (!range.has_value()) return true;  // vacuously
  // Every dimension row inside the surrogate range must qualify.
  for (int64_t row = 0; row < dim.num_rows(); ++row) {
    const int64_t sk = dim.col(dim_date_sk).Int(row);
    if (sk < range->first || sk > range->second) continue;
    for (const auto& p : preds) {
      if (!p.Matches(dim, row)) return false;
    }
  }
  return true;
}

}  // namespace opt
}  // namespace od
