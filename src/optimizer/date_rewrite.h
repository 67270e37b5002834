#ifndef OD_OPTIMIZER_DATE_REWRITE_H_
#define OD_OPTIMIZER_DATE_REWRITE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/ops.h"
#include "engine/table.h"

namespace od {
namespace opt {

/// The surrogate-key date rewrite of [18] (Section 2.3).
///
/// Data-warehouse queries predicate on *natural* date attributes of the date
/// dimension, while the fact table stores the *surrogate* key — forcing a
/// fact ⋈ date_dim join (and, when the fact is date-partitioned, a scan of
/// every partition). The prescribed OD [d_date_sk] ↔ [d_date] guarantees
/// surrogate keys order exactly like natural dates, so a contiguous natural
/// date range maps to a contiguous surrogate range. The rewrite probes the
/// dimension twice for the min and max qualifying surrogate key, replaces
/// the join with a fact-side range predicate, and prunes partitions.
///
/// `PlanQuery` performs the rewrite (see `TableRef::natural_order_col`);
/// this header holds the query shape the warehouse templates are written in
/// and the two data checks the planner runs on the dimension.

/// The query shape the rewrite matches:
///   SELECT <fact group cols>, AGG(<fact measures>)
///   FROM fact JOIN date_dim ON fact.sk = dim.sk
///   WHERE <predicates over date_dim natural columns>
///   GROUP BY <fact group cols>
/// `warehouse::ToLogicalQuery` lowers it to a planner `LogicalQuery`.
struct DateRangeQuery {
  std::string name;
  std::vector<engine::Predicate> dim_predicates;
  engine::ColumnId fact_date_sk;
  engine::ColumnId dim_date_sk;
  std::vector<engine::ColumnId> fact_group_cols;
  std::vector<engine::AggSpec> fact_aggs;
};

/// The "two probes": the min and max surrogate key among dimension rows
/// satisfying the predicates. nullopt when no row qualifies. Throws
/// std::invalid_argument unless `dim_date_sk` is an int64 column of `dim`.
std::optional<std::pair<int64_t, int64_t>> SurrogateKeyRange(
    const engine::Table& dim, engine::ColumnId dim_date_sk,
    const std::vector<engine::Predicate>& preds);

/// Checks that the qualifying dimension rows are exactly those with
/// surrogate key in the probed range — the contiguity requirement. Holds by
/// construction for calendar predicates (year, year+month, date BETWEEN) on
/// a complete date dimension; tests verify it per query. Throws
/// std::invalid_argument unless `dim_date_sk` is an int64 column of `dim`.
bool QualifyingRowsContiguous(const engine::Table& dim,
                              engine::ColumnId dim_date_sk,
                              const std::vector<engine::Predicate>& preds);

}  // namespace opt
}  // namespace od

#endif  // OD_OPTIMIZER_DATE_REWRITE_H_
