// The two dimension probes behind the Section 2.3 surrogate-key rewrite.
// The rewrite itself runs inside PlanQuery; planner_test.cc checks the
// plans it produces.

#include "optimizer/date_rewrite.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "warehouse/date_dim.h"

namespace od {
namespace opt {
namespace {

class DateRewriteTest : public ::testing::Test {
 protected:
  static constexpr int kStartYear = 1998;
  static constexpr int kYears = 4;
  void SetUp() override {
    dim_ = warehouse::GenerateDateDim(kStartYear, kYears);
  }
  engine::Table dim_;
};

TEST_F(DateRewriteTest, SurrogateRangeMatchesPredicate) {
  const warehouse::DateDimColumns d;
  const std::vector<engine::Predicate> preds{
      {d.d_year, engine::Predicate::Op::kEq, Value(int64_t{kStartYear + 1})}};
  auto range = SurrogateKeyRange(dim_, d.d_date_sk, preds);
  ASSERT_TRUE(range.has_value());
  // A non-leap/leap year has 365/366 days; 1999 has 365.
  EXPECT_EQ(range->second - range->first + 1, 365);
  EXPECT_TRUE(QualifyingRowsContiguous(dim_, d.d_date_sk, preds));
}

TEST_F(DateRewriteTest, NonIntegerKeyThrows) {
  const warehouse::DateDimColumns d;
  const std::vector<engine::Predicate> preds{
      {d.d_year, engine::Predicate::Op::kEq, Value(int64_t{kStartYear})}};
  for (engine::ColumnId key : {d.d_quarter_name, engine::ColumnId{-1}}) {
    EXPECT_THROW(SurrogateKeyRange(dim_, key, preds), std::invalid_argument)
        << key;
    EXPECT_THROW(QualifyingRowsContiguous(dim_, key, preds),
                 std::invalid_argument)
        << key;
  }
}

}  // namespace
}  // namespace opt
}  // namespace od
