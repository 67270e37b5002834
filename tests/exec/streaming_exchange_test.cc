// Exec-level tests of the streaming exchange: bounded queue residency on
// inputs far larger than the queues, deterministic fragment-ordered union,
// the ordered merge's proof obligation, failure propagation out of producer
// tasks (with spill temp-file cleanup), early-exit cancellation, and
// exchanges nested inside exchange fragments on one shared pool.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "engine/index.h"
#include "engine/ops.h"
#include "exec/operator.h"
#include "exec/parallel.h"
#include "optimizer/exec_stats.h"

namespace od {
namespace exec {
namespace {

namespace fs = std::filesystem;

using engine::DataType;
using engine::Schema;
using engine::SortSpec;
using engine::Table;

// A single int64 column holding scrambled values: v = (i * 7919) % n, so
// physical order is not sorted but is deterministic per row index.
Table MakeScrambled(int64_t rows) {
  Schema s;
  s.Add("v", DataType::kInt64);
  Table t(s);
  for (int64_t i = 0; i < rows; ++i) {
    t.AppendRow({Value((i * 7919) % rows)});
  }
  return t;
}

std::vector<std::pair<int64_t, int64_t>> SplitRows(int64_t n, int frags) {
  std::vector<std::pair<int64_t, int64_t>> out;
  const int64_t per = (n + frags - 1) / frags;
  for (int f = 0; f < frags; ++f) {
    const int64_t b = std::min<int64_t>(n, f * per);
    out.emplace_back(b, std::min<int64_t>(n, b + per));
  }
  return out;
}

bool SameRows(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    if (a.col(0).Int(r) != b.col(0).Int(r)) return false;
  }
  return true;
}

// Passes `batches_before_throw` child batches through, then throws — the
// injected mid-pipeline failure, planted inside a producer fragment.
class ThrowAfter : public Operator {
 public:
  ThrowAfter(OpPtr child, int batches_before_throw)
      : child_(std::move(child)), remaining_(batches_before_throw) {
    schema_ = child_->schema();
  }
  bool Next(Batch* out) override {
    if (remaining_-- <= 0) throw std::runtime_error("injected failure");
    return child_->Next(out);
  }

 private:
  OpPtr child_;
  int remaining_;
};

class StreamingExchangeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pool_ = std::make_unique<common::ThreadPool>(4);
    dir_ = fs::path(::testing::TempDir()) /
           ("od_xchg_" + std::string(::testing::UnitTest::GetInstance()
                                         ->current_test_info()
                                         ->name()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  int64_t FilesInDir() const {
    int64_t n = 0;
    for (const auto& e : fs::directory_iterator(dir_)) {
      (void)e;
      ++n;
    }
    return n;
  }

  std::unique_ptr<common::ThreadPool> pool_;
  fs::path dir_;
};

TEST_F(StreamingExchangeTest, UnionEmitsFragmentsInOrder) {
  // Union emission is fragment-ordered, so with row-range morsels the
  // stream is row-identical to the serial scan — however production
  // interleaves.
  const Table t = MakeScrambled(10001);
  OpPtr serial = Scan(&t);
  const Table expect = Drain(serial.get());
  const auto ranges = SplitRows(t.num_rows(), 4);
  OpPtr op = Exchange(
      4,
      [&](int f, opt::ExecStats* fs) {
        return Scan(&t, fs, /*batch_rows=*/7, ranges[f]);
      },
      MergeMode::kUnion, SortSpec{}, pool_.get(), nullptr, /*batch_rows=*/7);
  const Table got = Drain(op.get());
  EXPECT_TRUE(SameRows(expect, got));
}

TEST_F(StreamingExchangeTest, PeakResidencyStaysBoundedOnLargeInput) {
  // The point of streaming: 300k rows flow through, but at most
  // fragments × kExchangeQueueBatches batches (+1 being pushed) are ever
  // resident — the queues, not the input, bound the footprint.
  constexpr int64_t kRows = 300000;
  constexpr int kFrags = 4;
  constexpr int64_t kBatch = 1024;
  const Table t = MakeScrambled(kRows);
  const auto ranges = SplitRows(kRows, kFrags);
  opt::ExecStats stats;
  OpPtr op = Exchange(
      kFrags,
      [&](int f, opt::ExecStats* fs) {
        return Scan(&t, fs, kBatch, ranges[f]);
      },
      MergeMode::kUnion, SortSpec{}, pool_.get(), &stats, kBatch);
  const Table got = Drain(op.get(), &stats);
  op.reset();
  EXPECT_EQ(got.num_rows(), kRows);
  EXPECT_GT(stats.exchange_peak_rows, 0);
  EXPECT_LE(stats.exchange_peak_rows,
            kFrags * (kExchangeQueueBatches + 1) * kBatch);
}

TEST_F(StreamingExchangeTest, OrderedMergeBitIdenticalToSerialIndexScan) {
  const Table t = MakeScrambled(20000);
  const engine::OrderedIndex index(&t, SortSpec{0});
  OpPtr serial = IndexRangeScan(&index);
  const Table expect = Drain(serial.get());
  const auto ranges = SplitRows(t.num_rows(), 4);
  OpPtr op = Exchange(
      4,
      [&](int f, opt::ExecStats* fs) {
        return IndexRangeScan(&index, ranges[f], fs, /*batch_rows=*/64);
      },
      MergeMode::kOrderedMerge, SortSpec{0}, pool_.get(), nullptr,
      /*batch_rows=*/64);
  EXPECT_EQ(op->ordering(), SortSpec{0});
  const Table got = Drain(op.get());
  EXPECT_TRUE(SameRows(expect, got));
}

TEST_F(StreamingExchangeTest, OrderedMergeWithoutProofThrows) {
  // The runtime proof obligation: a fragment that cannot claim the merge
  // order is rejected at build time, not silently mis-merged.
  const Table t = MakeScrambled(100);
  EXPECT_THROW(
      Exchange(
          2,
          [&](int f, opt::ExecStats* fs) {
            const auto ranges = SplitRows(t.num_rows(), 2);
            // A Scan of an unsorted table claims no ordering.
            return Scan(&t, fs, kDefaultBatchRows, ranges[f]);
          },
          MergeMode::kOrderedMerge, SortSpec{0}, pool_.get()),
      std::logic_error);
}

TEST_F(StreamingExchangeTest, ProducerFailureCancelsAndCleansSpills) {
  // Fragment 1 throws mid-drain, under an external sort that has already
  // spilled runs. The failure must surface on the consumer, wind down the
  // other producers, and leave zero temp files behind.
  const Table t = MakeScrambled(4000);
  const auto ranges = SplitRows(t.num_rows(), 4);
  opt::ExecStats stats;
  {
    OpPtr op = Exchange(
        4,
        [&](int f, opt::ExecStats* fs) {
          OpPtr scan = Scan(&t, fs, /*batch_rows=*/8, ranges[f]);
          if (f == 1) scan = std::make_unique<ThrowAfter>(std::move(scan), 4);
          SortOptions so;
          so.memory_budget_rows = 16;
          so.temp_dir = dir_.string();
          return Sort(std::move(scan), SortSpec{0}, so, fs,
                      /*batch_rows=*/8);
        },
        MergeMode::kUnion, SortSpec{}, pool_.get(), &stats, /*batch_rows=*/8);
    EXPECT_THROW(Drain(op.get(), &stats), std::runtime_error);
  }
  // Every producer destroyed its fragment inside its task; the sorts'
  // RAII cleanup ran there.
  EXPECT_EQ(FilesInDir(), 0);
}

TEST_F(StreamingExchangeTest, EarlyExitStopsProducersEarly) {
  // A consumer that stops pulling (Limit) cancels the queues; producers
  // wind down without draining their morsels. The bounded queues cap how
  // far ahead they can have scanned.
  constexpr int64_t kRows = 200000;
  const Table t = MakeScrambled(kRows);
  const auto ranges = SplitRows(kRows, 4);
  opt::ExecStats stats;
  {
    OpPtr op = Exchange(
        4,
        [&](int f, opt::ExecStats* fs) {
          return Scan(&t, fs, /*batch_rows=*/512, ranges[f]);
        },
        MergeMode::kUnion, SortSpec{}, pool_.get(), &stats,
        /*batch_rows=*/512);
    Batch b;
    ASSERT_TRUE(op->Next(&b));
    ASSERT_TRUE(op->Next(&b));
    // Abandon the stream: the destructor cancels, joins, merges stats.
  }
  EXPECT_GT(stats.rows_scanned, 0);
  EXPECT_LT(stats.rows_scanned, kRows / 2)
      << "producers ran ahead of the cancelled consumer";
}

TEST_F(StreamingExchangeTest, NestedExchangesMatchSerial) {
  // An exchange whose fragments are themselves exchanges, all on one
  // pool: inner producers are stealable tasks and outer producers help
  // while blocked, so the nest drains. Emission stays fragment-ordered at
  // both levels — the stream equals the serial scan row for row.
  const Table t = MakeScrambled(50000);
  OpPtr serial = Scan(&t);
  const Table expect = Drain(serial.get());
  const auto outer = SplitRows(t.num_rows(), 2);
  for (common::ThreadPool* pool : {pool_.get(), (common::ThreadPool*)nullptr}) {
    opt::ExecStats stats;
    OpPtr op = Exchange(
        2,
        [&, pool](int f, opt::ExecStats* fs) {
          const auto inner = SplitRows(outer[f].second - outer[f].first, 2);
          return Exchange(
              2,
              [&, f, base = outer[f].first, inner](int g,
                                                   opt::ExecStats* gs) {
                return Scan(&t, gs, /*batch_rows=*/128,
                            {base + inner[g].first, base + inner[g].second});
              },
              MergeMode::kUnion, SortSpec{}, pool, fs, /*batch_rows=*/128);
        },
        MergeMode::kUnion, SortSpec{}, pool, &stats, /*batch_rows=*/128);
    const Table got = Drain(op.get(), &stats);
    op.reset();
    EXPECT_TRUE(SameRows(expect, got));
    EXPECT_EQ(stats.rows_scanned, t.num_rows());
  }
}

}  // namespace
}  // namespace exec
}  // namespace od
