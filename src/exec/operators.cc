#include "exec/operator.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "exec/op_util.h"

namespace od {
namespace exec {

namespace {

using engine::AggSpec;
using engine::ColumnId;
using engine::DataType;
using engine::Predicate;
using engine::Schema;
using engine::SortSpec;
using engine::Table;

bool MatchesBatch(const Predicate& p, const Batch& b, int64_t row) {
  const Value v = b.col(p.col).Get(row);
  switch (p.op) {
    case Predicate::Op::kEq: return v == p.lo;
    case Predicate::Op::kLt: return v < p.lo;
    case Predicate::Op::kLe: return v <= p.lo;
    case Predicate::Op::kGt: return v > p.lo;
    case Predicate::Op::kGe: return v >= p.lo;
    case Predicate::Op::kBetween: return p.lo <= v && v <= p.hi;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Scans.

class ScanOp : public Operator {
 public:
  ScanOp(const Table* table, UnitRange rows, opt::ExecStats* stats,
         int64_t batch_rows)
      : table_(table),
        stats_(stats),
        batch_rows_(batch_rows),
        pos_(std::max<int64_t>(0, rows.first)),
        end_(std::min(table->num_rows(), rows.second)) {
    CheckBatchRows(batch_rows_, "exec::Scan");
    schema_ = table->schema();
    ordering_ = table->ordering();
  }

  bool Next(Batch* out) override {
    out->Prepare(schema_);
    if (pos_ >= end_) return false;
    const int64_t stop = std::min(end_, pos_ + batch_rows_);
    for (int c = 0; c < table_->num_columns(); ++c) {
      out->col(c).AppendRange(table_->col(c), pos_, stop);
    }
    out->SetRowCount(stop - pos_);
    pos_ = stop;
    if (stats_ != nullptr) stats_->rows_scanned += out->num_rows();
    return true;
  }

 private:
  const Table* table_;
  opt::ExecStats* stats_;
  int64_t batch_rows_;
  int64_t pos_ = 0;
  int64_t end_ = 0;
};

class IndexRangeScanOp : public Operator {
 public:
  IndexRangeScanOp(const engine::OrderedIndex* index, UnitRange positions,
                   opt::ExecStats* stats, int64_t batch_rows)
      : index_(index),
        stats_(stats),
        batch_rows_(batch_rows),
        pos_(std::max<int64_t>(0, positions.first)),
        end_(std::min(index->num_rows(), positions.second)) {
    CheckBatchRows(batch_rows_, "exec::IndexRangeScan");
    schema_ = index->table().schema();
    ordering_ = index->key();
  }

  bool Next(Batch* out) override {
    out->Prepare(schema_);
    if (pos_ >= end_) return false;
    const int64_t stop = std::min(end_, pos_ + batch_rows_);
    const Table& t = index_->table();
    for (int c = 0; c < t.num_columns(); ++c) {
      for (int64_t p = pos_; p < stop; ++p) {
        out->col(c).AppendFrom(t.col(c), index_->RowAt(p));
      }
    }
    out->SetRowCount(stop - pos_);
    pos_ = stop;
    if (stats_ != nullptr) stats_->rows_scanned += out->num_rows();
    return true;
  }

 private:
  const engine::OrderedIndex* index_;
  opt::ExecStats* stats_;
  int64_t batch_rows_;
  int64_t pos_ = 0;
  int64_t end_ = 0;
};

class PartitionedScanOp : public Operator {
 public:
  PartitionedScanOp(const engine::PartitionedTable* table,
                    std::optional<std::pair<int64_t, int64_t>> range,
                    opt::ExecStats* stats, int64_t batch_rows, UnitRange parts)
      : table_(table),
        range_(range),
        stats_(stats),
        batch_rows_(batch_rows),
        part_(std::max<int64_t>(0, parts.first)),
        part_end_(std::min<int64_t>(table->num_partitions(), parts.second)) {
    CheckBatchRows(batch_rows_, "exec::PartitionedScan");
    schema_ = table->num_partitions() > 0 ? table->partition(0).schema()
                                          : Schema();
  }

  bool Next(Batch* out) override {
    out->Prepare(schema_);
    while (part_ < part_end_) {
      if (range_.has_value() &&
          (table_->range(part_).second < range_->first ||
           range_->second < table_->range(part_).first)) {
        ++part_;  // pruned: never touched
        row_ = 0;
        continue;
      }
      const Table& p = table_->partition(part_);
      if (row_ == 0 && p.num_rows() > 0 && stats_ != nullptr) {
        ++stats_->partitions_scanned;
      }
      if (!range_.has_value()) {
        if (EmitTableSlice(p, &row_, batch_rows_, out)) {
          if (stats_ != nullptr) stats_->rows_scanned += out->num_rows();
          return true;
        }
      } else {
        // Boundary partitions: stream rows, filtering to the value range.
        const engine::Column& key = p.col(table_->partition_column());
        while (row_ < p.num_rows() && out->num_rows() < batch_rows_) {
          const int64_t v = key.Int(row_);
          if (stats_ != nullptr) ++stats_->rows_scanned;
          if (range_->first <= v && v <= range_->second) {
            for (int c = 0; c < p.num_columns(); ++c) {
              out->col(c).AppendFrom(p.col(c), row_);
            }
            out->FinishRow();
          }
          ++row_;
        }
        if (out->num_rows() >= batch_rows_) return true;
        if (row_ < p.num_rows()) continue;  // batch full mid-partition
      }
      ++part_;
      row_ = 0;
    }
    return out->num_rows() > 0;
  }

 private:
  const engine::PartitionedTable* table_;
  std::optional<std::pair<int64_t, int64_t>> range_;
  opt::ExecStats* stats_;
  int64_t batch_rows_;
  int64_t part_ = 0;
  int64_t part_end_ = 0;
  int64_t row_ = 0;
};

// ---------------------------------------------------------------------------
// Order-preserving streaming operators.

class FilterOp : public Operator {
 public:
  FilterOp(OpPtr child, std::vector<Predicate> preds)
      : child_(std::move(child)), preds_(std::move(preds)) {
    schema_ = child_->schema();
    ordering_ = child_->ordering();
    for (const auto& p : preds_) CheckColumn(schema_, p.col, "exec::Filter");
  }

  bool Next(Batch* out) override {
    out->Prepare(schema_);
    while (out->empty()) {
      if (!child_->Next(&scratch_)) return false;
      for (int64_t r = 0; r < scratch_.num_rows(); ++r) {
        bool ok = true;
        for (const auto& p : preds_) {
          if (!MatchesBatch(p, scratch_, r)) {
            ok = false;
            break;
          }
        }
        if (ok) out->AppendRows(scratch_, r, r + 1);
      }
    }
    return true;
  }

 private:
  OpPtr child_;
  std::vector<Predicate> preds_;
  Batch scratch_;
};

class ProjectOp : public Operator {
 public:
  ProjectOp(OpPtr child, std::vector<ColumnId> cols)
      : child_(std::move(child)), cols_(std::move(cols)) {
    CheckColumns(child_->schema(), cols_, "exec::Project");
    for (ColumnId c : cols_) {
      schema_.Add(child_->schema().col(c).name, child_->schema().col(c).type);
    }
    // The child's ordering survives as far as its columns survive, remapped
    // to output positions; cut at the first projected-away column.
    for (ColumnId c : child_->ordering()) {
      int pos = -1;
      for (size_t i = 0; i < cols_.size(); ++i) {
        if (cols_[i] == c) pos = static_cast<int>(i);
      }
      if (pos < 0) break;
      ordering_.push_back(pos);
    }
  }

  bool Next(Batch* out) override {
    out->Prepare(schema_);
    if (!child_->Next(&scratch_)) return false;
    for (size_t i = 0; i < cols_.size(); ++i) {
      out->col(static_cast<int>(i))
          .AppendRange(scratch_.col(cols_[i]), 0, scratch_.num_rows());
    }
    out->SetRowCount(scratch_.num_rows());
    return true;
  }

 private:
  OpPtr child_;
  std::vector<ColumnId> cols_;
  Batch scratch_;
};

class StreamAggregateOp : public Operator {
 public:
  StreamAggregateOp(OpPtr child, std::vector<ColumnId> group_cols,
                    std::vector<AggSpec> aggs, int64_t batch_rows)
      : child_(std::move(child)),
        group_cols_(std::move(group_cols)),
        aggs_(std::move(aggs)),
        batch_rows_(batch_rows),
        accs_(aggs_.size()) {
    CheckBatchRows(batch_rows_, "exec::StreamAggregate");
    CheckColumns(child_->schema(), group_cols_, "exec::StreamAggregate");
    for (const auto& a : aggs_) {
      if (a.kind != AggSpec::Kind::kCount) {
        CheckColumn(child_->schema(), a.col, "exec::StreamAggregate");
      }
    }
    schema_ = AggOutputSchema(child_->schema(), group_cols_, aggs_);
    rep_.Reset(child_->schema());
    // Output stays sorted by whatever prefix of the child's ordering the
    // group columns cover (mirrors engine::StreamGroupBy).
    for (ColumnId c : child_->ordering()) {
      int pos = -1;
      for (size_t i = 0; i < group_cols_.size(); ++i) {
        if (group_cols_[i] == c) pos = static_cast<int>(i);
      }
      if (pos < 0) break;
      ordering_.push_back(pos);
    }
  }

  /// Fills `out` to batch_rows groups. A full batch returns mid-input:
  /// pos_ keeps the row that opens the next group.
  bool Next(Batch* out) override {
    out->Prepare(schema_);
    if (done_) return false;
    while (out->num_rows() < batch_rows_) {
      if (pos_ == scratch_.num_rows()) {
        pos_ = 0;
        if (!child_->Next(&scratch_)) {
          done_ = true;
          if (has_group_) EmitGroup(out);
          break;
        }
      }
      for (; pos_ < scratch_.num_rows(); ++pos_) {
        if (has_group_ &&
            Batch::CompareRows(rep_, 0, scratch_, pos_, group_cols_) != 0) {
          EmitGroup(out);
          if (out->num_rows() >= batch_rows_) break;
        }
        if (!has_group_) {
          rep_.Clear();
          rep_.AppendRows(scratch_, pos_, pos_ + 1);
          has_group_ = true;
        }
        for (size_t i = 0; i < aggs_.size(); ++i) {
          if (aggs_[i].kind == AggSpec::Kind::kCount) {
            accs_[i].AddCountOnly();
          } else {
            accs_[i].Add(scratch_.col(aggs_[i].col).Numeric(pos_));
          }
        }
      }
    }
    return !out->empty();
  }

 private:
  void EmitGroup(Batch* out) {
    int c = 0;
    for (ColumnId g : group_cols_) {
      out->col(c++).AppendFrom(rep_.col(g), 0);
    }
    for (size_t i = 0; i < aggs_.size(); ++i) {
      if (aggs_[i].kind == AggSpec::Kind::kCount) {
        out->col(c++).AppendInt(accs_[i].count);
      } else {
        out->col(c++).AppendDouble(accs_[i].Result(aggs_[i].kind));
      }
    }
    out->FinishRow();
    accs_.assign(aggs_.size(), Acc());
    has_group_ = false;
  }

  OpPtr child_;
  std::vector<ColumnId> group_cols_;
  std::vector<AggSpec> aggs_;
  int64_t batch_rows_;
  std::vector<Acc> accs_;
  Batch scratch_;
  int64_t pos_ = 0;  // next unconsumed row of scratch_
  Batch rep_;  // one row: the current group's representative
  bool has_group_ = false;
  bool done_ = false;
};

/// Cursor over a child's batch stream: current row addressing + refill.
struct Cursor {
  Operator* op = nullptr;
  Batch batch;
  int64_t pos = 0;
  bool done = false;

  /// Positions the cursor on a valid row, refilling from the child as
  /// needed. False once the stream is exhausted.
  bool Ensure() {
    while (!done && pos >= batch.num_rows()) {
      pos = 0;
      if (!op->Next(&batch)) done = true;
    }
    return !done;
  }
  void Advance() { ++pos; }
};

class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(OpPtr left, ColumnId left_key, OpPtr right, ColumnId right_key,
              opt::ExecStats* stats, int64_t batch_rows,
              const std::string& right_prefix)
      : left_hold_(std::move(left)),
        right_hold_(std::move(right)),
        left_key_(left_key),
        right_key_(right_key),
        stats_(stats),
        batch_rows_(batch_rows) {
    CheckBatchRows(batch_rows_, "exec::MergeJoin");
    CheckColumn(left_hold_->schema(), left_key_, "exec::MergeJoin (left key)");
    CheckColumn(right_hold_->schema(), right_key_,
                "exec::MergeJoin (right key)");
    schema_ =
        JoinSchema(left_hold_->schema(), right_hold_->schema(), right_prefix);
    // Rows stream out in left order; the precondition guarantees that order
    // includes the key even when the left carries no declared property.
    ordering_ = left_hold_->ordering().empty() ? SortSpec{left_key_}
                                               : left_hold_->ordering();
    left_.op = left_hold_.get();
    right_.op = right_hold_.get();
    run_.Reset(right_hold_->schema());
    left_cols_ = left_hold_->schema().num_columns();
    if (stats_ != nullptr) ++stats_->joins;
  }

  bool Next(Batch* out) override {
    out->Prepare(schema_);
    while (out->num_rows() < batch_rows_) {
      if (run_active_) {
        EmitRun(out);
        continue;
      }
      if (!left_.Ensure() || !right_.Ensure()) break;
      const int cmp = left_.batch.col(left_key_)
                          .Compare(left_.pos, right_.batch.col(right_key_),
                                   right_.pos);
      if (cmp < 0) {
        left_.Advance();
      } else if (cmp > 0) {
        right_.Advance();
      } else {
        StartRun();
      }
    }
    return out->num_rows() > 0;
  }

 private:
  /// Buffers the right side's maximal equal-key run (it may straddle batch
  /// boundaries) so it can be replayed against every matching left row.
  void StartRun() {
    run_.Clear();
    run_.AppendRows(right_.batch, right_.pos, right_.pos + 1);
    right_.Advance();
    while (right_.Ensure() &&
           right_.batch.col(right_key_)
                   .Compare(right_.pos, run_.col(right_key_), 0) == 0) {
      run_.AppendRows(right_.batch, right_.pos, right_.pos + 1);
      right_.Advance();
    }
    run_active_ = true;
  }

  /// Emits (left row × buffered run) for every left row still equal to the
  /// run key, pausing when the output batch fills: run_pos_ keeps the next
  /// run row to pair with the current left row, and the run stays active.
  void EmitRun(Batch* out) {
    while (left_.Ensure() &&
           left_.batch.col(left_key_).Compare(left_.pos, run_.col(right_key_),
                                              0) == 0) {
      for (; run_pos_ < run_.num_rows(); ++run_pos_) {
        if (out->num_rows() >= batch_rows_) return;
        for (int c = 0; c < left_cols_; ++c) {
          out->col(c).AppendFrom(left_.batch.col(c), left_.pos);
        }
        for (int c = 0; c < run_.num_columns(); ++c) {
          out->col(left_cols_ + c).AppendFrom(run_.col(c), run_pos_);
        }
        out->FinishRow();
        if (stats_ != nullptr) ++stats_->rows_joined;
      }
      run_pos_ = 0;
      left_.Advance();
    }
    run_active_ = false;
  }

  OpPtr left_hold_;
  OpPtr right_hold_;
  ColumnId left_key_;
  ColumnId right_key_;
  opt::ExecStats* stats_;
  int64_t batch_rows_;
  Cursor left_;
  Cursor right_;
  Batch run_;  // buffered right-side equal-key run
  int64_t run_pos_ = 0;  // next run row for the current left row
  bool run_active_ = false;
  int left_cols_ = 0;
};

class LimitOp : public Operator {
 public:
  LimitOp(OpPtr child, int64_t n)
      : child_(std::move(child)), remaining_(n) {
    schema_ = child_->schema();
    ordering_ = child_->ordering();
  }

  bool Next(Batch* out) override {
    out->Prepare(schema_);
    if (remaining_ <= 0) return false;  // never pulls the child again
    if (!child_->Next(&scratch_)) {
      remaining_ = 0;
      return false;
    }
    const int64_t take = std::min(remaining_, scratch_.num_rows());
    out->AppendRows(scratch_, 0, take);
    remaining_ -= take;
    return true;
  }

 private:
  OpPtr child_;
  int64_t remaining_;
  Batch scratch_;
};

// ---------------------------------------------------------------------------
// Pipeline breakers: TopK here; the sort in sort.cc, the hash aggregate and
// hash join in parallel.cc. Each consumes its child without output-side
// stats (rows_output/batches describe the pipeline root).

class TopKOp : public Operator {
 public:
  TopKOp(OpPtr child, SortSpec spec, int64_t k, opt::ExecStats* stats,
         int64_t batch_rows)
      : child_(std::move(child)), spec_(std::move(spec)),
        k_(std::max<int64_t>(0, k)), stats_(stats), batch_rows_(batch_rows) {
    CheckBatchRows(batch_rows_, "exec::TopK");
    CheckColumns(child_->schema(), spec_, "exec::TopK");
    schema_ = child_->schema();
    ordering_ = spec_;
  }

  bool Next(Batch* out) override {
    out->Prepare(schema_);
    if (!ready_) {
      child_->StartConsume("exec::TopK");
      top_ = Table(schema_);
      Batch batch;
      while (child_->Next(&batch)) {
        for (int c = 0; c < top_.num_columns(); ++c) {
          top_.col(c).AppendRange(batch.col(c), 0, batch.num_rows());
        }
        top_.SetRowCount(top_.num_rows() + batch.num_rows());
        // Past 2k rows (written so a huge k cannot overflow), cut back to
        // the k smallest: at most 2k + one batch is ever held, and the
        // cuts cost O(n log k) over the whole input.
        if (top_.num_rows() - k_ > k_) top_ = Smallest(top_);
      }
      top_ = Smallest(top_);
      top_.SetOrdering(spec_);
      if (stats_ != nullptr) ++stats_->sorts;  // the enforcer was paid
      ready_ = true;
    }
    return EmitTableSlice(top_, &pos_, batch_rows_, out);
  }

 private:
  /// The min(k, n) smallest rows of `t` under spec_, sorted, ties broken
  /// by row position. That is arrival order, as in a stable sort: each cut
  /// keeps its survivors in that order, and later rows append after them.
  Table Smallest(const Table& t) const {
    std::vector<int64_t> perm(t.num_rows());
    std::iota(perm.begin(), perm.end(), 0);
    const int64_t k = std::min<int64_t>(k_, t.num_rows());
    std::partial_sort(perm.begin(), perm.begin() + k, perm.end(),
                      [&](int64_t a, int64_t b) {
                        const int c = t.CompareRows(a, b, spec_);
                        return c != 0 ? c < 0 : a < b;
                      });
    perm.resize(k);
    return t.Gather(perm);
  }

  OpPtr child_;
  SortSpec spec_;
  int64_t k_;
  opt::ExecStats* stats_;
  int64_t batch_rows_;
  Table top_;
  bool ready_ = false;
  int64_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Verification.

class CheckOrderOp : public Operator {
 public:
  explicit CheckOrderOp(OpPtr child) : child_(std::move(child)) {
    schema_ = child_->schema();
    ordering_ = child_->ordering();
    prev_.Reset(schema_);
  }

  bool Next(Batch* out) override {
    if (!child_->Next(out)) return false;
    if (ordering_.empty()) return true;
    for (int64_t r = 0; r < out->num_rows(); ++r) {
      if (have_prev_ &&
          Batch::CompareRows(prev_, 0, *out, r, ordering_) > 0) {
        throw std::logic_error(
            "exec::CheckOrder: stream claims ordering " +
            SpecString(ordering_) + " but row " + std::to_string(row_index_) +
            " decreases — the ordering property is a false claim");
      }
      prev_.Clear();
      prev_.AppendRows(*out, r, r + 1);
      have_prev_ = true;
      ++row_index_;
    }
    return true;
  }

 private:
  OpPtr child_;
  Batch prev_;  // one row: the last row seen (straddles batch boundaries)
  bool have_prev_ = false;
  int64_t row_index_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Helpers shared with parallel.cc and sort.cc (op_util.h).

void CheckColumn(const Schema& s, ColumnId c, const char* op) {
  if (c < 0 || c >= s.num_columns()) {
    throw std::out_of_range(std::string(op) + ": column id " +
                            std::to_string(c) + " out of range [0, " +
                            std::to_string(s.num_columns()) + ")");
  }
}

void CheckColumns(const Schema& s, const std::vector<ColumnId>& cols,
                  const char* op) {
  for (ColumnId c : cols) CheckColumn(s, c, op);
}

void CheckBatchRows(int64_t batch_rows, const char* op) {
  if (batch_rows < 1) {
    throw std::invalid_argument(std::string(op) +
                                ": batch_rows must be >= 1, got " +
                                std::to_string(batch_rows));
  }
}

std::string SpecString(const SortSpec& spec) {
  std::string out = "[";
  for (size_t i = 0; i < spec.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(spec[i]);
  }
  return out + "]";
}

bool IsPrefixOf(const SortSpec& spec, const SortSpec& ordering) {
  if (spec.size() > ordering.size()) return false;
  return std::equal(spec.begin(), spec.end(), ordering.begin());
}

Schema AggOutputSchema(const Schema& in, const std::vector<ColumnId>& groups,
                       const std::vector<AggSpec>& aggs) {
  Schema out;
  for (ColumnId c : groups) out.Add(in.col(c).name, in.col(c).type);
  for (const auto& a : aggs) {
    out.Add(a.out_name, a.kind == AggSpec::Kind::kCount ? DataType::kInt64
                                                        : DataType::kDouble);
  }
  return out;
}

Schema JoinSchema(const Schema& left, const Schema& right,
                  const std::string& right_prefix) {
  Schema out;
  for (int c = 0; c < left.num_columns(); ++c) {
    out.Add(left.col(c).name, left.col(c).type);
  }
  for (int c = 0; c < right.num_columns(); ++c) {
    std::string name = right.col(c).name;
    if (out.Find(name) >= 0) name = right_prefix + name;
    out.Add(name, right.col(c).type);
  }
  return out;
}

bool EmitTableSlice(const Table& t, int64_t* pos, int64_t batch_rows,
                    Batch* out) {
  if (*pos >= t.num_rows()) return false;
  const int64_t end = std::min(t.num_rows(), *pos + batch_rows);
  for (int c = 0; c < t.num_columns(); ++c) {
    out->col(c).AppendRange(t.col(c), *pos, end);
  }
  out->SetRowCount(end - *pos);
  *pos = end;
  return true;
}

// ---------------------------------------------------------------------------
// Factories.

OpPtr Scan(const Table* table, opt::ExecStats* stats, int64_t batch_rows,
           UnitRange rows) {
  return std::make_unique<ScanOp>(table, rows, stats, batch_rows);
}

OpPtr IndexRangeScan(const engine::OrderedIndex* index, UnitRange positions,
                     opt::ExecStats* stats, int64_t batch_rows) {
  return std::make_unique<IndexRangeScanOp>(index, positions, stats,
                                            batch_rows);
}

OpPtr PartitionedScan(const engine::PartitionedTable* table,
                      std::optional<std::pair<int64_t, int64_t>> range,
                      opt::ExecStats* stats, int64_t batch_rows,
                      UnitRange parts) {
  return std::make_unique<PartitionedScanOp>(table, range, stats, batch_rows,
                                             parts);
}

OpPtr Filter(OpPtr child, std::vector<Predicate> preds) {
  return std::make_unique<FilterOp>(std::move(child), std::move(preds));
}

OpPtr Project(OpPtr child, std::vector<ColumnId> cols) {
  return std::make_unique<ProjectOp>(std::move(child), std::move(cols));
}

OpPtr StreamAggregate(OpPtr child, std::vector<ColumnId> group_cols,
                      std::vector<AggSpec> aggs, int64_t batch_rows) {
  return std::make_unique<StreamAggregateOp>(
      std::move(child), std::move(group_cols), std::move(aggs), batch_rows);
}

OpPtr MergeJoin(OpPtr left, ColumnId left_key, OpPtr right,
                ColumnId right_key, opt::ExecStats* stats, int64_t batch_rows,
                const std::string& right_prefix) {
  return std::make_unique<MergeJoinOp>(std::move(left), left_key,
                                       std::move(right), right_key, stats,
                                       batch_rows, right_prefix);
}

OpPtr Limit(OpPtr child, int64_t n) {
  return std::make_unique<LimitOp>(std::move(child), n);
}

OpPtr TopK(OpPtr child, SortSpec spec, int64_t k, opt::ExecStats* stats,
           int64_t batch_rows) {
  return std::make_unique<TopKOp>(std::move(child), std::move(spec), k,
                                  stats, batch_rows);
}

OpPtr CheckOrder(OpPtr child) {
  return std::make_unique<CheckOrderOp>(std::move(child));
}

engine::Table Drain(Operator* op, opt::ExecStats* stats) {
  op->StartConsume("exec::Drain");
  Table out(op->schema());
  Batch batch;
  while (op->Next(&batch)) {
    for (int c = 0; c < out.num_columns(); ++c) {
      out.col(c).AppendRange(batch.col(c), 0, batch.num_rows());
    }
    out.SetRowCount(out.num_rows() + batch.num_rows());
    if (stats != nullptr) {
      ++stats->batches;
      stats->rows_output += batch.num_rows();
    }
  }
  out.SetOrdering(op->ordering());
  return out;
}

}  // namespace exec
}  // namespace od
