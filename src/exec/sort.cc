#include <algorithm>
#include <deque>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "engine/ops.h"
#include "exec/op_util.h"
#include "exec/operator.h"
#include "exec/spill.h"

namespace od {
namespace exec {

namespace {

using engine::Schema;
using engine::SortSpec;
using engine::Table;

common::Counter& SpilledBytesCounter() {
  static common::Counter* c = &common::MetricRegistry::Global().GetCounter(
      "od_exec_spilled_bytes_total",
      "Bytes of sorted runs written to disk by the external sort");
  return *c;
}

/// One participant of the k-way merge: either a spilled run streamed back
/// chunk-at-a-time, or the final in-memory run sliced lazily. Holds exactly
/// one chunk at a time, so the merge's footprint is O(runs · chunk).
struct RunCursor {
  std::unique_ptr<RunReader> reader;  // spilled run
  const Table* mem = nullptr;         // in-memory run
  int64_t mem_pos = 0;
  int64_t chunk_rows = 0;
  Batch cur;
  int64_t row = 0;

  bool Refill() {
    row = 0;
    if (reader != nullptr) return reader->NextChunk(&cur);
    if (mem == nullptr) return false;
    cur.Prepare(mem->schema());
    return EmitTableSlice(*mem, &mem_pos, chunk_rows, &cur);
  }

  /// Moves to the next row; false when the run is exhausted.
  bool Advance() {
    if (++row < cur.num_rows()) return true;
    return Refill();
  }
};

class SortOp : public Operator {
 public:
  SortOp(OpPtr child, SortSpec spec, SortOptions options,
         opt::ExecStats* stats, int64_t batch_rows)
      : child_(std::move(child)),
        spec_(std::move(spec)),
        options_(std::move(options)),
        stats_(stats),
        batch_rows_(batch_rows) {
    CheckBatchRows(batch_rows_, "exec::Sort");
    CheckColumns(child_->schema(), spec_, "exec::Sort");
    schema_ = child_->schema();
    ordering_ = spec_;
    // Full elision: the child's proven ordering property already covers
    // the requirement — stream through, no buffering, no runs, no spill.
    passthrough_ = IsPrefixOf(spec_, child_->ordering());
  }

  bool Next(Batch* out) override {
    out->Prepare(schema_);
    if (passthrough_) {
      if (!claimed_) {
        child_->StartConsume("exec::Sort");
        claimed_ = true;
        if (stats_ != nullptr) ++stats_->sorts_elided;
      }
      return child_->Next(out);
    }
    if (!ready_) BuildRuns();
    // Single in-memory run: emit it directly, no merge machinery.
    if (cursors_.empty()) {
      return EmitTableSlice(final_run_, &pos_, batch_rows_, out);
    }
    return NextMerged(out);
  }

 private:
  /// What one spilled run's preparation task reports back; accounted into
  /// ExecStats on the consumer thread, in run order, after the tasks join.
  /// (spills/spilled_rows are counted at run-cut time instead, so a
  /// mid-drain exception still reports the runs it cut.)
  struct RunResult {
    int64_t bytes = 0;
    bool sorted = false;  // true iff the run actually needed its sort
  };

  void BuildRuns() {
    child_->StartConsume("exec::Sort");
    claimed_ = true;
    // Budget 0 would make zero-row runs; one row per run is the floor that
    // still guarantees progress (and maximal spill pressure in tests).
    const int64_t budget = options_.memory_budget_rows < 0
                               ? -1
                               : std::max<int64_t>(1,
                                                   options_.memory_budget_rows);
    Table run(schema_);
    bool any_sorted = false;
    std::deque<RunResult> results;
    {
      // Each full run's sort + disk write runs as a task (inline when the
      // pool is null or single-threaded), so the consumer keeps draining
      // the child while earlier runs spill. Scoped: the group's destructor
      // joins stragglers even if the child throws mid-drain.
      common::TaskGroup group(options_.pool);
      Batch batch;
      while (child_->Next(&batch)) {
        int64_t taken = 0;
        while (taken < batch.num_rows()) {
          int64_t take = batch.num_rows() - taken;
          if (budget >= 0) {
            take = std::min(take, budget - run.num_rows());
          }
          for (int c = 0; c < run.num_columns(); ++c) {
            run.col(c).AppendRange(batch.col(c), taken, taken + take);
          }
          run.SetRowCount(run.num_rows() + take);
          taken += take;
          if (budget >= 0 && run.num_rows() >= budget &&
              taken < batch.num_rows()) {
            SpillRun(&run, &group, &results);
          }
        }
        if (budget >= 0 && run.num_rows() >= budget) {
          SpillRun(&run, &group, &results);
        }
      }
      group.Wait();
    }
    // The final run stays in memory — sorted like the spilled ones. Run
    // elision: a run arriving physically sorted (e.g. morsels of an
    // OD-proven ordered scan) skips its sort inside SortBy.
    bool was_sorted = false;
    final_run_ = engine::SortBy(run, spec_, &was_sorted);
    any_sorted |= !was_sorted;
    // Deterministic accounting: the tasks only filled their private
    // RunResult slots; counters move in run order on this thread.
    for (const RunResult& r : results) {
      any_sorted |= r.sorted;
      SpilledBytesCounter().Add(r.bytes);
      if (stats_ != nullptr) stats_->spilled_bytes += r.bytes;
    }
    if (stats_ != nullptr) {
      if (any_sorted) {
        ++stats_->sorts;
      } else {
        ++stats_->sorts_elided;
      }
    }
    if (!files_.empty()) {
      cursors_.resize(files_.size() + 1);
      for (size_t i = 0; i < files_.size(); ++i) {
        cursors_[i].reader = std::make_unique<RunReader>(files_[i]);
      }
      RunCursor& last = cursors_.back();
      last.mem = &final_run_;
      last.chunk_rows = batch_rows_;
      for (size_t i = 0; i < cursors_.size(); ++i) {
        if (cursors_[i].Refill()) heap_.push(static_cast<int>(i));
      }
    }
    ready_ = true;
  }

  void SpillRun(Table* run, common::TaskGroup* group,
                std::deque<RunResult>* results) {
    if (run->num_rows() == 0) return;
    // The file and result slot are created here, on the consumer thread, so
    // run order (and with it the merge's run-index tiebreak) stays exactly
    // the serial cut order no matter how the tasks interleave. Deques keep
    // both pointers stable while later runs append behind them.
    files_.emplace_back(options_.temp_dir);
    const SpillFile* file = &files_.back();
    results->emplace_back();
    RunResult* res = &results->back();
    if (stats_ != nullptr) {
      ++stats_->spills;
      stats_->spilled_rows += run->num_rows();
    }
    auto data = std::make_shared<Table>(std::move(*run));
    group->Submit([this, data, file, res] {
      OD_TRACE_SPAN("sort.spill_run");
      bool was_sorted = false;
      Table sorted = engine::SortBy(*data, spec_, &was_sorted);
      res->sorted = !was_sorted;
      res->bytes = WriteRun(sorted, *file, batch_rows_);
    });
    *run = Table(schema_);
  }

  bool NextMerged(Batch* out) {
    if (heap_.empty()) return false;
    while (out->num_rows() < batch_rows_ && !heap_.empty()) {
      const int i = heap_.top();
      heap_.pop();
      RunCursor& c = cursors_[i];
      out->AppendRows(c.cur, c.row, c.row + 1);
      if (c.Advance()) heap_.push(i);
    }
    return out->num_rows() > 0;
  }

  // Heap comparator: smallest row first; ties broken by run index, which —
  // with stable per-run sorts and runs cut in input order — reproduces the
  // exact row order of a single stable in-memory sort.
  struct HeapCmp {
    const SortOp* op;
    bool operator()(int a, int b) const {
      const RunCursor& ca = op->cursors_[a];
      const RunCursor& cb = op->cursors_[b];
      const int cmp =
          Batch::CompareRows(ca.cur, ca.row, cb.cur, cb.row, op->spec_);
      if (cmp != 0) return cmp > 0;  // min-heap via "greater"
      return a > b;
    }
  };

  OpPtr child_;
  SortSpec spec_;
  SortOptions options_;
  opt::ExecStats* stats_;
  int64_t batch_rows_;
  bool passthrough_ = false;
  bool claimed_ = false;
  bool ready_ = false;
  std::deque<SpillFile> files_;  // deque: stable refs for in-flight writers
  Table final_run_;
  int64_t pos_ = 0;
  std::vector<RunCursor> cursors_;
  std::priority_queue<int, std::vector<int>, HeapCmp> heap_{HeapCmp{this}};
};

}  // namespace

OpPtr Sort(OpPtr child, engine::SortSpec spec, SortOptions options,
           opt::ExecStats* stats, int64_t batch_rows) {
  return std::make_unique<SortOp>(std::move(child), std::move(spec),
                                  std::move(options), stats, batch_rows);
}

}  // namespace exec
}  // namespace od
