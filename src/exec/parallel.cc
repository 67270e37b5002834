#include "exec/parallel.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/value.h"
#include "exec/op_util.h"

namespace od {
namespace exec {

namespace {

using engine::AggSpec;
using engine::ColumnId;
using engine::DataType;
using engine::Schema;
using engine::SortSpec;
using engine::Table;

/// Per-fragment drain wall-clock, for spotting skewed morsels in a scrape.
common::Histogram& FragmentDrainHistogram() {
  static common::Histogram* h =
      &common::MetricRegistry::Global().GetHistogram(
          "od_exec_fragment_drain_us",
          "Wall-clock microseconds each exchange fragment took to drain");
  return *h;
}

/// The bounded batch queue between one exchange producer pump and the
/// consumer (one queue per fragment, single-producer single-consumer).
/// Capacity bounds the exchange's resident footprint.
///
/// The producer NEVER blocks: a pump that finds the queue full *parks* —
/// it returns its thread to the scheduler, and the next Pop that frees
/// space fires `on_space` (which resubmits the pump). This is what makes
/// the exchange safe at any fragment/worker ratio: a blocking producer
/// would pin its worker while unscheduled siblings starve the consumer
/// (classic work-stealing wedge); a parked one costs nothing.
class BatchQueue {
 public:
  enum class Reserve { kReady, kParked, kCancelled };

  /// `resident`/`peak` are the owning exchange's cross-queue row
  /// accounting (ExecStats::exchange_peak_rows); `on_space` reschedules
  /// the parked producer (invoked on the consumer thread, outside the
  /// queue lock).
  BatchQueue(int capacity, int producers, common::ThreadPool* pool,
             std::atomic<int64_t>* resident, std::atomic<int64_t>* peak,
             std::function<void()> on_space)
      : capacity_(capacity),
        open_producers_(producers),
        pool_(pool),
        resident_(resident),
        peak_(peak),
        on_space_(std::move(on_space)) {}

  /// The producer's admission check, made atomically with parking so a
  /// concurrent Pop can't miss the parked flag: kReady guarantees the next
  /// Push fits (only the consumer shrinks the queue, so the headroom can't
  /// vanish), kParked means the pump must return (Pop will resubmit it),
  /// kCancelled means stop draining the fragment.
  Reserve ReserveOrPark() {
    std::lock_guard<std::mutex> lock(mu_);
    if (cancelled_) return Reserve::kCancelled;
    if (static_cast<int>(q_.size()) >= capacity_) {
      parked_ = true;
      return Reserve::kParked;
    }
    return Reserve::kReady;
  }

  /// Never blocks (capacity was reserved); false once cancelled — the
  /// producer's signal to stop draining its fragment.
  bool Push(Batch&& b) {
    const int64_t rows = b.num_rows();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (cancelled_) return false;
      q_.push_back(std::move(b));
    }
    const int64_t now =
        resident_->fetch_add(rows, std::memory_order_relaxed) + rows;
    int64_t prev = peak_->load(std::memory_order_relaxed);
    while (now > prev && !peak_->compare_exchange_weak(
                             prev, now, std::memory_order_relaxed)) {
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty and producers remain; false once the queue is
  /// drained-and-closed or cancelled. Freeing space resumes a parked
  /// producer. While waiting, *helps*: runs queued scheduler tasks — the
  /// producers this pop is waiting on may themselves be tasks nobody has
  /// picked up (every worker can sit inside an outer fragment's consumer
  /// when exchanges nest), so blocking without helping could deadlock.
  /// Helping is safe precisely because pumps park instead of blocking:
  /// a stolen task always returns.
  bool Pop(Batch* out) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (!q_.empty()) {
          *out = std::move(q_.front());
          q_.pop_front();
          const bool resume = parked_;
          parked_ = false;
          lock.unlock();
          resident_->fetch_sub(out->num_rows(), std::memory_order_relaxed);
          if (resume) on_space_();
          return true;
        }
        if (cancelled_ || open_producers_ == 0) return false;
      }
      if (pool_ != nullptr && pool_->RunOneTask()) continue;
      std::unique_lock<std::mutex> lock(mu_);
      if (!q_.empty() || cancelled_ || open_producers_ == 0) continue;
      // Nothing runnable and nothing queued: the producers are
      // mid-execution on other threads. The bounded wait re-polls the
      // scheduler in case a task is submitted while we sleep (the queue cv
      // cannot observe pool submissions).
      not_empty_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }

  /// Each producer calls exactly once when done (including on error);
  /// after the last close a drained queue pops false instead of blocking.
  void CloseProducer() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--open_producers_ == 0) not_empty_.notify_all();
  }

  void Cancel() {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = true;
    not_empty_.notify_all();
  }

 private:
  const int capacity_;
  int open_producers_;  // guarded by mu_
  common::ThreadPool* const pool_;
  std::atomic<int64_t>* const resident_;
  std::atomic<int64_t>* const peak_;
  const std::function<void()> on_space_;
  std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<Batch> q_;
  bool cancelled_ = false;  // guarded by mu_
  bool parked_ = false;     // guarded by mu_: producer awaits on_space_
};

class ExchangeOp : public Operator {
 public:
  ExchangeOp(int num_fragments, FragmentFactory factory, MergeMode mode,
             SortSpec merge_spec, common::ThreadPool* pool,
             opt::ExecStats* stats, int64_t batch_rows)
      : mode_(mode),
        merge_spec_(std::move(merge_spec)),
        pool_(pool),
        stats_(stats),
        batch_rows_(batch_rows),
        num_fragments_(num_fragments),
        factory_(std::move(factory)) {
    CheckBatchRows(batch_rows_, "exec::Exchange");
    if (num_fragments_ < 1) {
      throw std::invalid_argument("exec::Exchange: need >= 1 fragment");
    }
    frag_stats_.resize(num_fragments_);
    // Fragment 0 is built eagerly: the Operator contract wants schema()
    // and ordering() at construction. The rest are built lazily, inside
    // their producer tasks, where ValidateFragment re-runs the same checks
    // (surfaced through the task group at drain time).
    frag0_ = factory_(0, &frag_stats_[0]);
    ValidateFragment(0, frag0_.get());
    schema_ = frag0_->schema();
    if (mode_ == MergeMode::kOrderedMerge) {
      ordering_ = merge_spec_;
    } else if (num_fragments_ == 1) {
      ordering_ = frag0_->ordering();
    }
  }

  ~ExchangeOp() override {
    if (group_ != nullptr) {
      // Early exit (e.g. a Limit upstream stopped pulling): skip unstarted
      // producers, unblock running ones mid-Push, and join. Each producer
      // destroys its fragment inside its task, so spill temp files and
      // other RAII state unwind there.
      group_->Cancel();
      for (auto& q : queues_) q->Cancel();
      group_.reset();  // joins producers; their errors are already recorded
    }
    if (started_) MergeStats();  // partial counts are still true counts
  }

  bool Next(Batch* out) override {
    out->Prepare(schema_);
    if (finished_) return false;
    if (!started_) Start();
    const bool more =
        mode_ == MergeMode::kUnion ? NextUnion(out) : NextMerge(out);
    if (!more) Finish();  // rethrows the first producer error, if any
    return more;
  }

 private:
  struct Cursor {
    Batch batch;
    int64_t pos = 0;
  };

  /// Per-fragment pump state, persisted across parks. `op == nullptr`
  /// before the first pump invocation and again after the fragment closes.
  struct Producer {
    OpPtr op;
    std::chrono::steady_clock::time_point start;
  };

  struct HeapCmp {
    const ExchangeOp* op;
    bool operator()(int a, int b) const {
      const Cursor& ca = op->cursors_[a];
      const Cursor& cb = op->cursors_[b];
      const int cmp = Batch::CompareRows(ca.batch, ca.pos, cb.batch, cb.pos,
                                         op->merge_spec_);
      if (cmp != 0) return cmp > 0;  // min-heap
      return a > b;  // fragment-index tiebreak: stability
    }
  };

  void ValidateFragment(int i, const Operator* frag) const {
    if (frag == nullptr) {
      throw std::invalid_argument("exec::Exchange: null fragment");
    }
    if (i > 0 && frag->schema().num_columns() != schema_.num_columns()) {
      throw std::logic_error("exec::Exchange: fragments disagree on schema");
    }
    if (mode_ == MergeMode::kOrderedMerge &&
        !IsPrefixOf(merge_spec_, frag->ordering())) {
      // The proof obligation of the order-preserving merge: a fragment
      // that cannot *claim* the merge order (planner-proven via
      // OrderReasoner) must not be merged order-preservingly.
      throw std::logic_error(
          "exec::Exchange: ordered merge on " + SpecString(merge_spec_) +
          " but fragment " + std::to_string(i) + " only claims " +
          SpecString(frag->ordering()) + " — no OD proof, use kUnion + Sort");
    }
  }

  OpPtr TakeFragment(int i) {
    OpPtr frag = i == 0 ? std::move(frag0_) : factory_(i, &frag_stats_[i]);
    ValidateFragment(i, frag.get());
    return frag;
  }

  /// Submits one pump per fragment. On a null or one-thread pool the
  /// TaskGroup runs each pump inline: it fills its queue and parks, and
  /// the Pop that frees space resumes it on the consumer thread.
  void Start() {
    started_ = true;
    const int n = num_fragments_;
    producers_.resize(n);
    for (int i = 0; i < n; ++i) {
      queues_.push_back(std::make_unique<BatchQueue>(
          kExchangeQueueBatches, 1, pool_, &resident_rows_, &peak_rows_,
          [this, i] { group_->Submit([this, i] { RunProducer(i); }); }));
    }
    group_ = std::make_unique<common::TaskGroup>(pool_);
    for (int i = 0; i < n; ++i) {
      group_->Submit([this, i] { RunProducer(i); });
    }
    if (mode_ == MergeMode::kOrderedMerge) {
      cursors_.resize(n);
      for (int i = 0; i < n; ++i) {
        if (Refill(i)) heap_.push(i);
      }
    }
  }

  /// One fragment's producer pump: builds the fragment on first entry,
  /// then produces batch-by-batch until the queue is full (park: return
  /// the thread to the scheduler; Pop resubmits this pump when space
  /// frees), the fragment is exhausted, or the exchange is cancelled. The
  /// fragment operator is destroyed inside the task on the happy and error
  /// paths alike, so its RAII state (spill temp files etc.) unwinds where
  /// it was built.
  void RunProducer(int i) {
    BatchQueue& q = *queues_[i];
    Producer& p = producers_[i];
    try {
      OD_TRACE_SPAN("exchange.fragment");
      if (p.op == nullptr) {
        p.start = std::chrono::steady_clock::now();
        p.op = TakeFragment(i);
        p.op->StartConsume("exec::Exchange");
      }
      for (;;) {
        const auto r = q.ReserveOrPark();
        if (r == BatchQueue::Reserve::kParked) return;
        if (r == BatchQueue::Reserve::kCancelled) break;
        Batch b;
        if (!p.op->Next(&b)) break;
        if (!q.Push(std::move(b))) break;  // cancelled mid-produce
      }
      p.op.reset();
      FragmentDrainHistogram().Record(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - p.start)
              .count());
    } catch (...) {
      // Wake the consumer and cancel sibling pumps, then let the task
      // group record the exception; Finish rethrows it on the consumer.
      p.op.reset();
      for (auto& queue : queues_) queue->Cancel();
      q.CloseProducer();
      throw;
    }
    q.CloseProducer();
  }

  /// Pulls the next batch of fragment `i` into its cursor (merge mode).
  bool Refill(int i) {
    Cursor& cur = cursors_[i];
    cur.pos = 0;
    return queues_[i]->Pop(&cur.batch);
  }

  bool NextUnion(Batch* out) {
    // Fragments are emitted in fragment order — for row-range morsels the
    // concatenation IS the serial stream, so even an order-oblivious
    // consumer (a Sort above, a hash build) sees deterministic input.
    // Production still interleaves freely: later producers fill their
    // bounded queues and park, which is what bounds memory.
    while (union_cur_ < num_fragments_) {
      if (queues_[union_cur_]->Pop(out)) return true;
      ++union_cur_;
    }
    return false;
  }

  bool NextMerge(Batch* out) {
    // Ordered k-way merge over the fragment heads; ties break on fragment
    // index, which for row-range morsels reproduces the serial plan's row
    // order exactly.
    while (out->num_rows() < batch_rows_ && !heap_.empty()) {
      const int i = heap_.top();
      heap_.pop();
      Cursor& cur = cursors_[i];
      for (int c = 0; c < out->num_columns(); ++c) {
        out->col(c).AppendFrom(cur.batch.col(c), cur.pos);
      }
      out->FinishRow();
      if (++cur.pos < cur.batch.num_rows()) {
        heap_.push(i);
      } else if (Refill(i)) {
        heap_.push(i);
      }
    }
    return out->num_rows() > 0;
  }

  void Finish() {
    finished_ = true;
    if (group_ != nullptr) {
      auto group = std::move(group_);
      group->Wait();  // rethrows the first producer exception
    }
    MergeStats();
  }

  void MergeStats() {
    if (merged_ || stats_ == nullptr) return;
    merged_ = true;
    stats_->fragments += num_fragments_;
    for (const opt::ExecStats& fs : frag_stats_) {
      opt::ExecStats partial = fs;
      // A fragment's rows_output/batches describe the fragment's stream,
      // not the pipeline root's; the root sink re-counts its own output.
      partial.rows_output = 0;
      partial.batches = 0;
      stats_->Merge(partial);
    }
    const int64_t peak = peak_rows_.load(std::memory_order_relaxed);
    if (peak > stats_->exchange_peak_rows) stats_->exchange_peak_rows = peak;
  }

  MergeMode mode_;
  SortSpec merge_spec_;
  common::ThreadPool* pool_;
  opt::ExecStats* stats_;
  int64_t batch_rows_;
  int num_fragments_;
  FragmentFactory factory_;
  std::vector<opt::ExecStats> frag_stats_;
  OpPtr frag0_;

  bool started_ = false;
  bool finished_ = false;
  bool merged_ = false;

  std::atomic<int64_t> resident_rows_{0};
  std::atomic<int64_t> peak_rows_{0};
  std::vector<std::unique_ptr<BatchQueue>> queues_;
  std::vector<Producer> producers_;  // pump state, parked fragments included
  int union_cur_ = 0;                // union: queue being drained
  std::vector<Cursor> cursors_;      // merge: one head per fragment queue
  std::priority_queue<int, std::vector<int>, HeapCmp> heap_{HeapCmp{this}};
  // Declared last: producer tasks reference the members above, and the
  // destructor resets this (joining them) before anything else dies.
  std::unique_ptr<common::TaskGroup> group_;
};

// ---------------------------------------------------------------------------
// Hash aggregation: exec::HashAggregate (one fragment, the caller's thread)
// and exec::ParallelHashAggregate (one task per fragment).

/// One fragment's aggregation state: group key (Column::AppendKey) -> slot,
/// each slot's key in first-seen order (the map's keys, which stay put
/// when it rehashes), the group's key values (for emitting) and one Acc
/// per aggregate.
struct LocalAgg {
  std::unordered_map<std::string, int64_t> slots;
  std::vector<const std::string*> keys;
  std::vector<std::vector<Value>> group_vals;
  std::vector<std::vector<Acc>> accs;
};

class HashAggregateOp : public Operator {
 public:
  /// With a `factory`, fragment i is factory(i, private stats) and each
  /// fragment drains as its own task; without one, `child` is the single
  /// fragment, drained inline: no exchange.fragment span and no
  /// ExecStats::fragments.
  HashAggregateOp(OpPtr child, int num_fragments, FragmentFactory factory,
                  std::vector<ColumnId> group_cols, std::vector<AggSpec> aggs,
                  common::ThreadPool* pool, opt::ExecStats* stats,
                  int64_t batch_rows)
      : group_cols_(std::move(group_cols)),
        aggs_(std::move(aggs)),
        pool_(pool),
        stats_(stats),
        batch_rows_(batch_rows),
        num_fragments_(num_fragments),
        factory_(std::move(factory)),
        frag0_(std::move(child)) {
    CheckBatchRows(batch_rows_, "exec::HashAggregate");
    if (num_fragments_ < 1) {
      throw std::invalid_argument("exec::HashAggregate: need >= 1 fragment");
    }
    if (factory_) {
      // Fragment 0 eagerly for the schema; the rest inside their tasks.
      frag_stats_.resize(num_fragments_);
      frag0_ = factory_(0, &frag_stats_[0]);
    }
    if (frag0_ == nullptr) {
      throw std::invalid_argument("exec::HashAggregate: null fragment");
    }
    const Schema& in = frag0_->schema();
    CheckColumns(in, group_cols_, "exec::HashAggregate");
    for (const auto& a : aggs_) {
      if (a.kind != AggSpec::Kind::kCount) {
        CheckColumn(in, a.col, "exec::HashAggregate");
      }
    }
    schema_ = AggOutputSchema(in, group_cols_, aggs_);
    // ordering_ stays empty: hash aggregation has no output order.
  }

  bool Next(Batch* out) override {
    out->Prepare(schema_);
    if (!ready_) BuildAndMerge();
    return EmitTableSlice(result_, &pos_, batch_rows_, out);
  }

 private:
  /// Drains `frag` into `local`.
  void Accumulate(Operator* frag, LocalAgg* local) const {
    frag->StartConsume("exec::HashAggregate");
    Batch batch;
    std::string key;
    while (frag->Next(&batch)) {
      for (int64_t r = 0; r < batch.num_rows(); ++r) {
        key.clear();
        for (ColumnId c : group_cols_) batch.col(c).AppendKey(r, &key);
        auto [it, inserted] = local->slots.try_emplace(
            key, static_cast<int64_t>(local->accs.size()));
        if (inserted) {
          local->keys.push_back(&it->first);
          std::vector<Value> vals;
          vals.reserve(group_cols_.size());
          for (ColumnId c : group_cols_) vals.push_back(batch.col(c).Get(r));
          local->group_vals.push_back(std::move(vals));
          local->accs.emplace_back(aggs_.size());
        }
        std::vector<Acc>& accs = local->accs[it->second];
        for (size_t a = 0; a < aggs_.size(); ++a) {
          if (aggs_[a].kind == AggSpec::Kind::kCount) {
            accs[a].AddCountOnly();
          } else {
            accs[a].Add(batch.col(aggs_[a].col).Numeric(r));
          }
        }
      }
    }
  }

  void BuildAndMerge() {
    const int n = num_fragments_;
    std::vector<LocalAgg> locals(n);
    if (!factory_) {
      Accumulate(frag0_.get(), &locals[0]);
    } else {
      // Fragments are built *inside* their tasks (fragment 0 was pre-built
      // for the schema); with a null or single-threaded pool
      // TaskGroup::Submit runs them inline.
      common::TaskGroup group(pool_);
      for (int i = 0; i < n; ++i) {
        group.Submit([this, &locals, i] {
          OD_TRACE_SPAN("exchange.fragment");
          OpPtr frag =
              i == 0 ? std::move(frag0_) : factory_(i, &frag_stats_[i]);
          if (frag == nullptr) {
            throw std::invalid_argument("exec::HashAggregate: null fragment");
          }
          Accumulate(frag.get(), &locals[i]);
        });
      }
      group.Wait();  // rethrows the first fragment failure
    }
    // Several fragments merge single-threaded into a fresh map, in
    // fragment order, each fragment's groups in first-seen order: the
    // serial first-seen group order.
    LocalAgg merged;
    if (n == 1) {
      merged = std::move(locals[0]);
    } else {
      for (LocalAgg& local : locals) {
        for (size_t slot = 0; slot < local.keys.size(); ++slot) {
          auto [it, inserted] = merged.slots.try_emplace(
              *local.keys[slot], static_cast<int64_t>(merged.accs.size()));
          if (inserted) {
            merged.group_vals.push_back(std::move(local.group_vals[slot]));
            merged.accs.push_back(std::move(local.accs[slot]));
          } else {
            std::vector<Acc>& into = merged.accs[it->second];
            for (size_t a = 0; a < aggs_.size(); ++a) {
              into[a].Merge(local.accs[slot][a]);
            }
          }
        }
      }
    }
    result_ = Table(schema_);
    for (size_t g = 0; g < merged.accs.size(); ++g) {
      int c = 0;
      for (const Value& v : merged.group_vals[g]) {
        result_.col(c++).Append(v);
      }
      for (size_t a = 0; a < aggs_.size(); ++a) {
        if (aggs_[a].kind == AggSpec::Kind::kCount) {
          result_.col(c++).AppendInt(merged.accs[g][a].count);
        } else {
          result_.col(c++).AppendDouble(
              merged.accs[g][a].Result(aggs_[a].kind));
        }
      }
      result_.FinishRow();
    }
    if (factory_ && stats_ != nullptr) {
      stats_->fragments += n;
      for (const opt::ExecStats& fs : frag_stats_) {
        opt::ExecStats partial = fs;
        partial.rows_output = 0;
        partial.batches = 0;
        stats_->Merge(partial);
      }
    }
    ready_ = true;
  }

  std::vector<ColumnId> group_cols_;
  std::vector<AggSpec> aggs_;
  common::ThreadPool* pool_;
  opt::ExecStats* stats_;
  int64_t batch_rows_;
  int num_fragments_;
  FragmentFactory factory_;
  std::vector<opt::ExecStats> frag_stats_;
  OpPtr frag0_;
  Table result_;
  bool ready_ = false;
  int64_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Partial-aggregate combine (the merge stage after an ordered exchange).

class CombinePartialAggregatesOp : public Operator {
 public:
  CombinePartialAggregatesOp(OpPtr child, int num_group_cols,
                             std::vector<AggSpec::Kind> kinds)
      : child_(std::move(child)),
        num_groups_(num_group_cols),
        kinds_(std::move(kinds)) {
    const Schema& in = child_->schema();
    if (num_groups_ < 0 ||
        in.num_columns() !=
            num_groups_ + static_cast<int>(kinds_.size())) {
      throw std::invalid_argument(
          "exec::CombinePartialAggregates: schema must be group columns "
          "then one column per aggregate");
    }
    for (AggSpec::Kind k : kinds_) {
      if (k == AggSpec::Kind::kAvg) {
        throw std::invalid_argument(
            "exec::CombinePartialAggregates: avg is not decomposable — a "
            "finished average cannot be re-combined (use "
            "ParallelHashAggregate)");
      }
    }
    // Contiguity precondition: the child's ordering must order *all* group
    // columns before anything else, otherwise a group could reappear and
    // the combine would emit it twice.
    group_ids_.resize(num_groups_);
    const SortSpec& ord = child_->ordering();
    std::vector<bool> seen(num_groups_, false);
    int covered = 0;
    for (size_t i = 0; i < ord.size() && covered < num_groups_; ++i) {
      if (ord[i] < 0 || ord[i] >= num_groups_ || seen[ord[i]]) break;
      seen[ord[i]] = true;
      ++covered;
    }
    if (covered < num_groups_) {
      throw std::logic_error(
          "exec::CombinePartialAggregates: child ordering " +
          SpecString(ord) + " does not make the " +
          std::to_string(num_groups_) +
          " group columns contiguous — partial groups could reappear");
    }
    for (int i = 0; i < num_groups_; ++i) group_ids_[i] = i;
    schema_ = in;
    ordering_ = child_->ordering();
  }

  bool Next(Batch* out) override {
    out->Prepare(schema_);
    while (out->empty()) {
      if (!child_->Next(&scratch_)) {
        if (have_pending_) {
          EmitPending(out);
          have_pending_ = false;
          return true;
        }
        return false;
      }
      for (int64_t r = 0; r < scratch_.num_rows(); ++r) {
        if (have_pending_ &&
            Batch::CompareRows(pending_, 0, scratch_, r, group_ids_) == 0) {
          Fold(scratch_, r);
        } else {
          if (have_pending_) EmitPending(out);
          LoadPending(scratch_, r);
        }
      }
    }
    return true;
  }

 private:
  void LoadPending(const Batch& b, int64_t r) {
    pending_.Prepare(schema_);
    pending_.AppendRows(b, r, r + 1);
    accs_.assign(kinds_.size(), Acc());
    Fold(b, r);
    have_pending_ = true;
  }

  void Fold(const Batch& b, int64_t r) {
    for (size_t a = 0; a < kinds_.size(); ++a) {
      const int col = num_groups_ + static_cast<int>(a);
      Acc& acc = accs_[a];
      switch (kinds_[a]) {
        case AggSpec::Kind::kCount:
          acc.count += b.col(col).Int(r);
          break;
        case AggSpec::Kind::kSum:
          acc.sum += b.col(col).Double(r);
          break;
        case AggSpec::Kind::kMin:
          acc.Add(b.col(col).Double(r));
          break;
        case AggSpec::Kind::kMax:
          acc.Add(b.col(col).Double(r));
          break;
        case AggSpec::Kind::kAvg:
          break;  // rejected in the constructor
      }
    }
  }

  void EmitPending(Batch* out) {
    for (int c = 0; c < num_groups_; ++c) {
      out->col(c).AppendFrom(pending_.col(c), 0);
    }
    for (size_t a = 0; a < kinds_.size(); ++a) {
      const int c = num_groups_ + static_cast<int>(a);
      switch (kinds_[a]) {
        case AggSpec::Kind::kCount:
          out->col(c).AppendInt(accs_[a].count);
          break;
        case AggSpec::Kind::kSum:
          out->col(c).AppendDouble(accs_[a].sum);
          break;
        case AggSpec::Kind::kMin:
          out->col(c).AppendDouble(accs_[a].min);
          break;
        case AggSpec::Kind::kMax:
          out->col(c).AppendDouble(accs_[a].max);
          break;
        case AggSpec::Kind::kAvg:
          break;
      }
    }
    out->FinishRow();
  }

  OpPtr child_;
  int num_groups_;
  std::vector<AggSpec::Kind> kinds_;
  std::vector<ColumnId> group_ids_;
  Batch scratch_;
  Batch pending_;  // one row: the group being accumulated
  std::vector<Acc> accs_;
  bool have_pending_ = false;
};

// ---------------------------------------------------------------------------
// Hash join: exec::HashJoin builds its table on the first Next; exchange
// fragments (exec::HashProbe) probe one table built before they start.

/// Validates a hash-join key: in range, and int64 (the table and the probe
/// loop read keys through the unchecked int64 accessor).
void CheckHashKey(const Schema& s, ColumnId key, const char* op) {
  CheckColumn(s, key, op);
  if (s.col(key).type != DataType::kInt64) {
    throw std::invalid_argument(std::string(op) +
                                ": join keys must be int64 columns (use "
                                "MergeJoin for other key types)");
  }
}

class HashJoinOp : public Operator {
 public:
  /// Probes `table`, or — when `table` is null — the table it builds from
  /// `build` on its first Next, so the build's time lands in this
  /// operator's Next (EXPLAIN ANALYZE charges it to the join node).
  HashJoinOp(OpPtr probe, ColumnId probe_key,
             std::shared_ptr<const SharedHashTable> table, OpPtr build,
             ColumnId build_key, opt::ExecStats* stats, int64_t batch_rows,
             const std::string& right_prefix)
      : probe_(std::move(probe)),
        probe_key_(probe_key),
        table_(std::move(table)),
        build_(std::move(build)),
        build_key_(build_key),
        stats_(stats),
        batch_rows_(batch_rows) {
    CheckBatchRows(batch_rows_, "exec::HashJoin");
    if (table_ == nullptr && build_ == nullptr) {
      throw std::invalid_argument("exec::HashJoin: null build table");
    }
    CheckHashKey(probe_->schema(), probe_key_, "exec::HashJoin");
    if (build_ != nullptr) {
      CheckHashKey(build_->schema(), build_key_, "exec::HashJoin");
      if (stats_ != nullptr) ++stats_->joins;
    }
    schema_ = JoinSchema(probe_->schema(),
                         build_ != nullptr ? build_->schema()
                                           : table_->rows.schema(),
                         right_prefix);
    ordering_ = probe_->ordering();  // probing preserves probe row order
    probe_cols_ = probe_->schema().num_columns();
  }

  /// Fills `out` to batch_rows matches. A full batch returns mid-row:
  /// [match_, match_end_) keeps the build rows still owed to probe row
  /// row_ - 1 of scratch_.
  bool Next(Batch* out) override {
    out->Prepare(schema_);
    if (table_ == nullptr) {
      table_ = BuildSharedHash(std::move(build_), build_key_, nullptr);
    }
    while (!done_ && out->num_rows() < batch_rows_) {
      if (match_ != match_end_) {
        for (int c = 0; c < probe_cols_; ++c) {
          out->col(c).AppendFrom(scratch_.col(c), row_ - 1);
        }
        for (int c = 0; c < table_->rows.num_columns(); ++c) {
          out->col(probe_cols_ + c).AppendFrom(table_->rows.col(c),
                                               match_->second);
        }
        out->FinishRow();
        ++match_;
        if (stats_ != nullptr) ++stats_->rows_joined;
      } else if (row_ < scratch_.num_rows()) {
        std::tie(match_, match_end_) =
            table_->index.equal_range(scratch_.col(probe_key_).Int(row_++));
      } else {
        row_ = 0;
        done_ = !probe_->Next(&scratch_);
      }
    }
    return !out->empty();
  }

 private:
  using Match = decltype(SharedHashTable::index)::const_iterator;

  OpPtr probe_;
  ColumnId probe_key_;
  std::shared_ptr<const SharedHashTable> table_;
  OpPtr build_;  // serial form, until the first Next builds table_
  ColumnId build_key_;
  opt::ExecStats* stats_;
  int64_t batch_rows_;
  int probe_cols_ = 0;
  Batch scratch_;    // the current probe batch
  int64_t row_ = 0;  // next probe row of scratch_ to look up
  Match match_{};    // build rows still owed to probe row row_ - 1
  Match match_end_{};
  bool done_ = false;
};

}  // namespace

OpPtr Exchange(int num_fragments, FragmentFactory factory, MergeMode mode,
               engine::SortSpec merge_spec, common::ThreadPool* pool,
               opt::ExecStats* stats, int64_t batch_rows) {
  return std::make_unique<ExchangeOp>(num_fragments, std::move(factory),
                                      mode, std::move(merge_spec), pool,
                                      stats, batch_rows);
}

OpPtr ParallelHashAggregate(int num_fragments, FragmentFactory factory,
                            std::vector<engine::ColumnId> group_cols,
                            std::vector<engine::AggSpec> aggs,
                            common::ThreadPool* pool, opt::ExecStats* stats,
                            int64_t batch_rows) {
  return std::make_unique<HashAggregateOp>(
      nullptr, num_fragments, std::move(factory), std::move(group_cols),
      std::move(aggs), pool, stats, batch_rows);
}

OpPtr HashAggregate(OpPtr child, std::vector<engine::ColumnId> group_cols,
                    std::vector<engine::AggSpec> aggs, int64_t batch_rows) {
  return std::make_unique<HashAggregateOp>(
      std::move(child), 1, nullptr, std::move(group_cols), std::move(aggs),
      nullptr, nullptr, batch_rows);
}

OpPtr CombinePartialAggregates(OpPtr child, int num_group_cols,
                               std::vector<engine::AggSpec::Kind> kinds) {
  return std::make_unique<CombinePartialAggregatesOp>(
      std::move(child), num_group_cols, std::move(kinds));
}

std::shared_ptr<const SharedHashTable> BuildSharedHash(
    OpPtr build, engine::ColumnId key, opt::ExecStats* stats) {
  CheckHashKey(build->schema(), key, "exec::BuildSharedHash");
  auto table = std::make_shared<SharedHashTable>();
  table->rows = Drain(build.get(), nullptr);
  table->index.reserve(table->rows.num_rows());
  for (int64_t r = 0; r < table->rows.num_rows(); ++r) {
    table->index.emplace(table->rows.col(key).Int(r), r);
  }
  if (stats != nullptr) ++stats->joins;  // one logical join, many probes
  return table;
}

OpPtr HashProbe(OpPtr probe, engine::ColumnId probe_key,
                std::shared_ptr<const SharedHashTable> table,
                opt::ExecStats* stats, int64_t batch_rows,
                const std::string& right_prefix) {
  return std::make_unique<HashJoinOp>(std::move(probe), probe_key,
                                      std::move(table), nullptr, -1, stats,
                                      batch_rows, right_prefix);
}

OpPtr HashJoin(OpPtr left, engine::ColumnId left_key, OpPtr right,
               engine::ColumnId right_key, opt::ExecStats* stats,
               int64_t batch_rows, const std::string& right_prefix) {
  return std::make_unique<HashJoinOp>(std::move(left), left_key, nullptr,
                                      std::move(right), right_key, stats,
                                      batch_rows, right_prefix);
}

}  // namespace exec
}  // namespace od
