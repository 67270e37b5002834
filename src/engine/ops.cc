#include "engine/ops.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace od {
namespace engine {

namespace {

/// Rejects out-of-range column ids at operator entry. Callers routinely
/// feed `Schema::Find` results straight into an operator, and Find returns
/// -1 for an unknown name — without this check that -1 indexes the column
/// vector out of bounds. Validated once per call, so the per-row hot loops
/// stay unchecked.
void CheckColumn(const Table& t, ColumnId c, const char* op) {
  if (c < 0 || c >= t.num_columns()) {
    throw std::out_of_range(
        std::string(op) + ": column id " + std::to_string(c) +
        " out of range [0, " + std::to_string(t.num_columns()) +
        ") — note Schema::Find returns -1 for unknown column names");
  }
}

void CheckColumns(const Table& t, const std::vector<ColumnId>& cols,
                  const char* op) {
  for (ColumnId c : cols) CheckColumn(t, c, op);
}

}  // namespace

namespace {

/// The unconditional permutation sort behind SortBy, for callers that have
/// already established the input is NOT sorted (no second IsSortedBy scan).
Table SortedGather(const Table& t, const SortSpec& spec) {
  std::vector<int64_t> perm(t.num_rows());
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(), [&](int64_t a, int64_t b) {
    return t.CompareRows(a, b, spec) < 0;
  });
  Table out = t.Gather(perm);
  out.SetOrdering(spec);
  return out;
}

}  // namespace

Table SortBy(const Table& t, const SortSpec& spec, bool* was_sorted) {
  CheckColumns(t, spec, "SortBy");
  // Already physically sorted: skip the O(n log n) permutation sort and the
  // gather entirely — an O(n) verification pass is all the order costs.
  const bool sorted = IsSortedBy(t, spec);
  if (was_sorted != nullptr) *was_sorted = sorted;
  if (sorted) {
    Table out = t;
    out.SetOrdering(spec);
    return out;
  }
  return SortedGather(t, spec);
}

bool IsSortedBy(const Table& t, const SortSpec& spec) {
  CheckColumns(t, spec, "IsSortedBy");
  for (int64_t i = 1; i < t.num_rows(); ++i) {
    if (t.CompareRows(i - 1, i, spec) > 0) return false;
  }
  return true;
}

bool Predicate::Matches(const Table& t, int64_t row) const {
  const Value v = t.col(col).Get(row);
  switch (op) {
    case Op::kEq: return v == lo;
    case Op::kLt: return v < lo;
    case Op::kLe: return v <= lo;
    case Op::kGt: return v > lo;
    case Op::kGe: return v >= lo;
    case Op::kBetween: return lo <= v && v <= hi;
  }
  return false;
}

std::vector<int64_t> FilterRowIds(const Table& t,
                                  const std::vector<Predicate>& preds) {
  for (const auto& p : preds) CheckColumn(t, p.col, "Filter");
  std::vector<int64_t> out;
  for (int64_t i = 0; i < t.num_rows(); ++i) {
    bool ok = true;
    for (const auto& p : preds) {
      if (!p.Matches(t, i)) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(i);
  }
  return out;
}

Table Filter(const Table& t, const std::vector<Predicate>& preds) {
  Table out = t.Gather(FilterRowIds(t, preds));
  out.SetOrdering(t.ordering());  // row order is preserved
  return out;
}

namespace {

/// Aggregate accumulator.
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
    // after every value) or min/max stop being associative — the streaming
    // executor and the parallel accumulator merge restate this rule.
    if (!has || CompareDoubles(v, min) < 0) min = v;
    if (!has || CompareDoubles(v, max) > 0) max = v;
    has = true;
  }
  void AddCountOnly() { ++count; }

  double Result(AggSpec::Kind kind) const {
    switch (kind) {
      case AggSpec::Kind::kCount: return static_cast<double>(count);
      case AggSpec::Kind::kSum: return sum;
      case AggSpec::Kind::kMin: return min;
      case AggSpec::Kind::kMax: return max;
      case AggSpec::Kind::kAvg: return count == 0 ? 0 : sum / count;
    }
    return 0;
  }
};

Schema AggOutputSchema(const Table& t, const std::vector<ColumnId>& group_cols,
                       const std::vector<AggSpec>& aggs) {
  Schema out;
  for (ColumnId c : group_cols) {
    out.Add(t.schema().col(c).name, t.schema().col(c).type);
  }
  for (const auto& a : aggs) {
    out.Add(a.out_name, a.kind == AggSpec::Kind::kCount ? DataType::kInt64
                                                        : DataType::kDouble);
  }
  return out;
}

void EmitGroup(const Table& t, int64_t representative_row,
               const std::vector<ColumnId>& group_cols,
               const std::vector<AggSpec>& aggs, const std::vector<Acc>& accs,
               Table* out) {
  int c = 0;
  for (ColumnId g : group_cols) {
    out->col(c++).Append(t.col(g).Get(representative_row));
  }
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (aggs[i].kind == AggSpec::Kind::kCount) {
      out->col(c++).AppendInt(accs[i].count);
    } else {
      out->col(c++).AppendDouble(accs[i].Result(aggs[i].kind));
    }
  }
  out->FinishRow();
}

}  // namespace

namespace {

void CheckGroupByArgs(const Table& t, const std::vector<ColumnId>& group_cols,
                      const std::vector<AggSpec>& aggs, const char* op) {
  CheckColumns(t, group_cols, op);
  for (const auto& a : aggs) {
    if (a.kind != AggSpec::Kind::kCount) CheckColumn(t, a.col, op);
  }
}

}  // namespace

Table HashGroupBy(const Table& t, const std::vector<ColumnId>& group_cols,
                  const std::vector<AggSpec>& aggs) {
  CheckGroupByArgs(t, group_cols, aggs, "HashGroupBy");
  Table out(AggOutputSchema(t, group_cols, aggs));
  std::unordered_map<std::string, int64_t> groups;  // key -> group index
  std::vector<int64_t> representative;
  std::vector<std::vector<Acc>> accs;
  std::string key;
  for (int64_t row = 0; row < t.num_rows(); ++row) {
    key.clear();
    for (ColumnId c : group_cols) t.col(c).AppendKey(row, &key);
    auto [it, inserted] =
        groups.try_emplace(key, static_cast<int64_t>(accs.size()));
    if (inserted) {
      representative.push_back(row);
      accs.emplace_back(aggs.size());
    }
    std::vector<Acc>& group_accs = accs[it->second];
    for (size_t i = 0; i < aggs.size(); ++i) {
      if (aggs[i].kind == AggSpec::Kind::kCount) {
        group_accs[i].AddCountOnly();
      } else {
        group_accs[i].Add(t.col(aggs[i].col).Numeric(row));
      }
    }
  }
  for (size_t g = 0; g < accs.size(); ++g) {
    EmitGroup(t, representative[g], group_cols, aggs, accs[g], &out);
  }
  return out;
}

Table StreamGroupBy(const Table& t, const std::vector<ColumnId>& group_cols,
                    const std::vector<AggSpec>& aggs) {
  CheckGroupByArgs(t, group_cols, aggs, "StreamGroupBy");
  Table out(AggOutputSchema(t, group_cols, aggs));
  std::vector<Acc> accs(aggs.size());
  int64_t group_start = 0;
  for (int64_t row = 0; row < t.num_rows(); ++row) {
    if (row > 0 && t.CompareRows(row - 1, row, group_cols) != 0) {
      EmitGroup(t, group_start, group_cols, aggs, accs, &out);
      accs.assign(aggs.size(), Acc());
      group_start = row;
    }
    for (size_t i = 0; i < aggs.size(); ++i) {
      if (aggs[i].kind == AggSpec::Kind::kCount) {
        accs[i].AddCountOnly();
      } else {
        accs[i].Add(t.col(aggs[i].col).Numeric(row));
      }
    }
  }
  if (t.num_rows() > 0) {
    EmitGroup(t, group_start, group_cols, aggs, accs, &out);
  }
  // Group boundaries followed the input order: the result stays sorted by
  // whatever prefix of the input ordering consists of group columns.
  std::vector<ColumnId> out_order;
  for (ColumnId c : t.ordering()) {
    int pos = -1;
    for (size_t i = 0; i < group_cols.size(); ++i) {
      if (group_cols[i] == c) pos = static_cast<int>(i);
    }
    if (pos < 0) break;
    out_order.push_back(pos);
  }
  out.SetOrdering(out_order);
  return out;
}

Table HashDistinct(const Table& t, const std::vector<ColumnId>& cols) {
  return HashGroupBy(t, cols, {});
}

Table StreamDistinct(const Table& t, const std::vector<ColumnId>& cols) {
  return StreamGroupBy(t, cols, {});
}

namespace {

Schema JoinSchema(const Table& left, const Table& right,
                  const std::string& right_prefix) {
  Schema out;
  for (int c = 0; c < left.num_columns(); ++c) {
    out.Add(left.schema().col(c).name, left.schema().col(c).type);
  }
  for (int c = 0; c < right.num_columns(); ++c) {
    std::string name = right.schema().col(c).name;
    if (out.Find(name) >= 0) name = right_prefix + name;
    out.Add(name, right.schema().col(c).type);
  }
  return out;
}

void EmitJoinRow(const Table& left, int64_t lrow, const Table& right,
                 int64_t rrow, Table* out) {
  int c = 0;
  for (int i = 0; i < left.num_columns(); ++i) {
    out->col(c++).Append(left.col(i).Get(lrow));
  }
  for (int i = 0; i < right.num_columns(); ++i) {
    out->col(c++).Append(right.col(i).Get(rrow));
  }
  out->FinishRow();
}

}  // namespace

Table HashJoin(const Table& left, ColumnId left_key, const Table& right,
               ColumnId right_key, const std::string& right_prefix) {
  CheckColumn(left, left_key, "HashJoin (left key)");
  CheckColumn(right, right_key, "HashJoin (right key)");
  Table out(JoinSchema(left, right, right_prefix));
  // Build on the smaller input by convention: the dimension (right).
  std::unordered_multimap<int64_t, int64_t> build;
  build.reserve(right.num_rows());
  for (int64_t r = 0; r < right.num_rows(); ++r) {
    build.emplace(right.col(right_key).Int(r), r);
  }
  for (int64_t l = 0; l < left.num_rows(); ++l) {
    auto [begin, end] = build.equal_range(left.col(left_key).Int(l));
    for (auto it = begin; it != end; ++it) {
      EmitJoinRow(left, l, right, it->second, &out);
    }
  }
  return out;
}

Table SortMergeJoin(const Table& left, ColumnId left_key, const Table& right,
                    ColumnId right_key, bool assume_sorted,
                    const std::string& right_prefix,
                    int* input_sorts_paid) {
  CheckColumn(left, left_key, "SortMergeJoin (left key)");
  CheckColumn(right, right_key, "SortMergeJoin (right key)");
  if (input_sorts_paid != nullptr) *input_sorts_paid = 0;
  const Table* lp = &left;
  const Table* rp = &right;
  Table lsorted, rsorted;
  if (!assume_sorted) {
    // Sort only the sides that need it: a pre-sorted input (e.g. a stream
    // an index delivered) is merged in place without paying the sort (or
    // the copy).
    if (!IsSortedBy(left, {left_key})) {
      lsorted = SortedGather(left, {left_key});
      lp = &lsorted;
      if (input_sorts_paid != nullptr) ++*input_sorts_paid;
    }
    if (!IsSortedBy(right, {right_key})) {
      rsorted = SortedGather(right, {right_key});
      rp = &rsorted;
      if (input_sorts_paid != nullptr) ++*input_sorts_paid;
    }
  }
  Table out(JoinSchema(*lp, *rp, right_prefix));
  int64_t l = 0, r = 0;
  while (l < lp->num_rows() && r < rp->num_rows()) {
    const int64_t lv = lp->col(left_key).Int(l);
    const int64_t rv = rp->col(right_key).Int(r);
    if (lv < rv) {
      ++l;
    } else if (lv > rv) {
      ++r;
    } else {
      // Emit the cross product of the equal-key runs.
      int64_t r_end = r;
      while (r_end < rp->num_rows() && rp->col(right_key).Int(r_end) == rv) {
        ++r_end;
      }
      while (l < lp->num_rows() && lp->col(left_key).Int(l) == lv) {
        for (int64_t rr = r; rr < r_end; ++rr) {
          EmitJoinRow(*lp, l, *rp, rr, &out);
        }
        ++l;
      }
      r = r_end;
    }
  }
  out.SetOrdering({left_key});
  return out;
}

Table Project(const Table& t, const std::vector<ColumnId>& cols) {
  CheckColumns(t, cols, "Project");
  Schema schema;
  for (ColumnId c : cols) {
    schema.Add(t.schema().col(c).name, t.schema().col(c).type);
  }
  Table out(schema);
  for (int64_t row = 0; row < t.num_rows(); ++row) {
    for (size_t i = 0; i < cols.size(); ++i) {
      out.col(static_cast<ColumnId>(i)).Append(t.col(cols[i]).Get(row));
    }
    out.FinishRow();
  }
  return out;
}

Table Concat(const std::vector<const Table*>& tables) {
  assert(!tables.empty());
  Table out(tables[0]->schema());
  for (const Table* t : tables) {
    for (int64_t row = 0; row < t->num_rows(); ++row) {
      for (int c = 0; c < t->num_columns(); ++c) {
        out.col(c).Append(t->col(c).Get(row));
      }
      out.FinishRow();
    }
  }
  return out;
}

bool SameRowMultiset(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  auto rows_of = [](const Table& t) {
    std::vector<std::string> rows;
    rows.reserve(t.num_rows());
    for (int64_t i = 0; i < t.num_rows(); ++i) {
      std::string row;
      for (int c = 0; c < t.num_columns(); ++c) {
        row += t.col(c).Get(i).ToString();
        row += '\x01';
      }
      rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  return rows_of(a) == rows_of(b);
}

}  // namespace engine
}  // namespace od
