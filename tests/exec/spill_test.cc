// The sort enforcer out of core: a tiny memory budget must force run
// spilling without changing a single row (spilled result bit-identical to
// engine::SortBy), run elision must fire on pre-sorted inputs, and —
// the part a happy-path test can't see — every temp file must be gone
// after the operator dies, whether the pipeline succeeded, threw
// mid-stream, or was abandoned early by a Limit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "engine/index.h"
#include "engine/ops.h"
#include "exec/operator.h"
#include "exec/spill.h"
#include "optimizer/planner.h"
#include "warehouse/queries.h"
#include "warehouse/tax_schedule.h"

namespace od {
namespace exec {
namespace {

namespace fs = std::filesystem;

using engine::DataType;
using engine::Schema;
using engine::SortSpec;
using engine::Table;

Table MakeMessy(int64_t rows) {
  Schema s;
  s.Add("k", DataType::kInt64);
  s.Add("x", DataType::kDouble);
  Table t(s);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t k = (i * 7919) % 13;  // duplicate-heavy, scrambled
    const double x = (i % 11 == 0) ? nan : static_cast<double>((i * 31) % 97);
    t.AppendRow({Value(k), Value(x)});
  }
  return t;
}

// Bit-exact row equality (NaN == NaN): spilled rows are copied, never
// recomputed, so the spilled sort owes the in-memory sort every bit.
bool TablesBitIdentical(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_columns(); ++c) {
      switch (a.col(c).type()) {
        case DataType::kInt64:
          if (a.col(c).Int(r) != b.col(c).Int(r)) return false;
          break;
        case DataType::kDouble: {
          const double x = a.col(c).Double(r), y = b.col(c).Double(r);
          if (!(x == y || (std::isnan(x) && std::isnan(y)))) return false;
          break;
        }
        case DataType::kString:
          if (a.col(c).Str(r) != b.col(c).Str(r)) return false;
          break;
      }
    }
  }
  return true;
}

// Emits the child's stream until `batches_before_throw` batches have
// passed, then throws — a mid-pipeline failure injected below the sort.
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

class SpillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("od_spill_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
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

  fs::path dir_;
};

TEST_F(SpillTest, SpilledSortBitIdenticalToInMemory) {
  Table t = MakeMessy(10000);
  const SortSpec spec{0, 1};

  const Table expect = engine::SortBy(t, spec);

  opt::ExecStats stats;
  {
    SortOptions so;
    so.memory_budget_rows = 64;
    so.temp_dir = dir_.string();
    OpPtr op = Sort(Scan(&t), spec, so, &stats);
    Table got = Drain(op.get(), &stats);
    EXPECT_TRUE(TablesBitIdentical(expect, got));
    EXPECT_TRUE(engine::IsSortedBy(got, spec));
  }
  EXPECT_GT(stats.spills, 0);
  EXPECT_GT(stats.spilled_rows, 0);
  EXPECT_EQ(stats.sorts, 1);
  // RAII: every spilled run removed once the operator is gone.
  EXPECT_EQ(FilesInDir(), 0);
}

TEST_F(SpillTest, LargeBudgetNeverTouchesDisk) {
  Table t = MakeMessy(500);
  opt::ExecStats stats;
  SortOptions so;
  so.memory_budget_rows = 1 << 20;
  so.temp_dir = dir_.string();
  OpPtr op = Sort(Scan(&t), SortSpec{0}, so, &stats);
  Table got = Drain(op.get(), &stats);
  EXPECT_TRUE(engine::IsSortedBy(got, SortSpec{0}));
  EXPECT_EQ(stats.spills, 0);
  EXPECT_EQ(FilesInDir(), 0);
}

TEST_F(SpillTest, OrderedInputElidesTheSortEntirely) {
  // An index scan *claims* its key order, so the external sort streams it
  // through: no buffering, no runs, no spill — the OD-aware run elision.
  Table t = MakeMessy(2000);
  engine::OrderedIndex index(&t, SortSpec{0});
  opt::ExecStats stats;
  SortOptions so;
  so.memory_budget_rows = 8;  // would spill ~250 runs if it buffered
  so.temp_dir = dir_.string();
  OpPtr op = Sort(IndexRangeScan(&index), SortSpec{0}, so, &stats);
  Table got = Drain(op.get(), &stats);
  EXPECT_TRUE(engine::IsSortedBy(got, SortSpec{0}));
  EXPECT_EQ(stats.sorts, 0);
  EXPECT_GE(stats.sorts_elided, 1);
  EXPECT_EQ(stats.spills, 0);
  EXPECT_EQ(FilesInDir(), 0);
}

TEST_F(SpillTest, TempFilesCleanedOnMidPipelineException) {
  Table t = MakeMessy(4000);
  opt::ExecStats stats;
  {
    SortOptions so;
    so.memory_budget_rows = 64;
    so.temp_dir = dir_.string();
    // 16-row child batches, 64-row budget: runs spill every 4 batches;
    // the child then dies on batch 40, well after the first spills.
    OpPtr op = Sort(
        std::make_unique<ThrowAfter>(Scan(&t, nullptr, /*batch_rows=*/16),
                                     /*batches_before_throw=*/40),
        SortSpec{0}, so, &stats);
    Batch b;
    EXPECT_THROW(op->Next(&b), std::runtime_error);
  }
  EXPECT_GT(stats.spills, 0) << "test never reached the spill path";
  EXPECT_EQ(FilesInDir(), 0);
}

TEST_F(SpillTest, TempFilesCleanedOnEarlyLimitExit) {
  Table t = MakeMessy(4000);
  opt::ExecStats stats;
  {
    SortOptions so;
    so.memory_budget_rows = 64;
    so.temp_dir = dir_.string();
    OpPtr op = Limit(Sort(Scan(&t), SortSpec{0}, so, &stats), /*n=*/5);
    Table got = Drain(op.get(), &stats);
    EXPECT_EQ(got.num_rows(), 5);
    // The limit stopped pulling long before the merge finished.
  }
  EXPECT_GT(stats.spills, 0);
  EXPECT_EQ(FilesInDir(), 0);
}

TEST_F(SpillTest, ParallelRunPrepBitIdenticalToSerial) {
  // With a pool, run sorting/writing happens on scheduler tasks, and the
  // hundreds of runs they leave merge in one pass on the consumer —
  // neither may move a single row: the tiebreak hierarchy (in-run order,
  // then run index) is the same one the serial merge uses.
  Table t = MakeMessy(20000);
  const SortSpec spec{0, 1};

  const Table expect = engine::SortBy(t, spec);

  common::ThreadPool pool(4);
  opt::ExecStats stats;
  {
    SortOptions so;
    so.memory_budget_rows = 64;  // ~313 runs
    so.temp_dir = dir_.string();
    so.pool = &pool;
    OpPtr op = Sort(Scan(&t), spec, so, &stats);
    Table got = Drain(op.get(), &stats);
    EXPECT_TRUE(TablesBitIdentical(expect, got));
  }
  EXPECT_GT(stats.spills, 8);
  EXPECT_EQ(FilesInDir(), 0);
}

TEST_F(SpillTest, PlannerSpillKnobMatchesInMemoryPlan) {
  // SELECT * FROM taxes ORDER BY bracket, tax with no index and no ODs:
  // the planner must place a Sort; with a spill budget that Sort spills
  // runs, and the result is still bit-identical.
  Table taxes = warehouse::GenerateTaxTable(/*num_rows=*/6000,
                                            /*max_income=*/250000, /*seed=*/3);
  opt::LogicalQuery q = warehouse::TaxOrderByQuery(&taxes, /*index=*/nullptr,
                                                   /*tax_ods=*/nullptr);

  opt::ExecStats mem_stats;
  opt::PhysicalPlan mem_plan = PlanQuery(q);
  Table expect = mem_plan.Execute(&mem_stats);

  opt::ExecStats stats;
  opt::PlanOptions opts;
  opts.spill_budget_rows = 128;
  opts.spill_dir = dir_.string();
  opt::PhysicalPlan plan = PlanQuery(q, opt::CostModel(), opts);
  Table got = plan.Execute(&stats);

  EXPECT_TRUE(TablesBitIdentical(expect, got));
  EXPECT_GT(stats.spills, 0);
  EXPECT_EQ(FilesInDir(), 0);
}

// Low-level spill format round trip: writer and reader agree chunk by
// chunk, including NaNs and empty chunks at the tail.
TEST_F(SpillTest, RunFileRoundTrip) {
  Table t = MakeMessy(1000);
  SpillFile file(dir_.string());
  WriteRun(t, file, /*chunk_rows=*/64);
  RunReader reader(file);
  ASSERT_EQ(reader.schema().num_columns(), t.num_columns());
  Table back(reader.schema());
  Batch b;
  while (reader.NextChunk(&b)) {
    for (int64_t r = 0; r < b.num_rows(); ++r) {
      back.AppendRow({b.col(0).Get(r), b.col(1).Get(r)});
    }
  }
  EXPECT_TRUE(TablesBitIdentical(t, back));
}

TEST(SpillFileTest, RemovedOnDestruction) {
  std::string path;
  {
    SpillFile f;
    path = f.path();
    EXPECT_TRUE(fs::exists(path));
  }
  EXPECT_FALSE(fs::exists(path));
}

}  // namespace
}  // namespace exec
}  // namespace od
