#ifndef OD_WAREHOUSE_QUERIES_H_
#define OD_WAREHOUSE_QUERIES_H_

#include <memory>
#include <vector>

#include "optimizer/date_rewrite.h"
#include "optimizer/planner.h"
#include "warehouse/date_dim.h"
#include "warehouse/star_schema.h"
#include "warehouse/tax_schedule.h"

namespace od {
namespace warehouse {

/// The thirteen TPC-DS-style query templates matching the surrogate-key
/// rewrite of [18] (Section 2.3 reports thirteen TPC-DS queries matched the
/// rewrite's conditions, every one of which benefited, averaging 48%).
/// Each is a fact ⋈ date_dim aggregate whose dimension predicate is one of
/// the three calendar shapes found in the benchmark:
///   * a year equality                (e.g. q3, q42: d_year = 2000)
///   * a year + month-of-year pair    (e.g. q55: d_moy = 11, d_year = 1999)
///   * a date BETWEEN range           (e.g. q7-style 30-day windows)
/// The group-by columns and aggregates vary across templates.
///
/// `start_year`/`num_years` must match the generated date dimension so the
/// predicates select non-empty ranges.
std::vector<opt::DateRangeQuery> TpcdsDateQueries(int start_year,
                                                  int num_years);

// ---------------------------------------------------------------------------
// Planner (LogicalQuery) forms of the warehouse workloads, for
// opt::PlanQuery. All access-path pointers except `fact`/`dim` may be null.

/// A rewritable date query as a logical star query: fact ⋈ date_dim with
/// the dim predicates, aggregating fact measures. With `dim_ods` declaring
/// [d_date_sk] ↔ [d_date], the planner can *prove* the join away and turn
/// the dim predicates into a fact-side surrogate range. The fact table gets
/// an empty catalog of its own, so a null `dim_ods` lets Session::Plan bind
/// the tenant catalog to date_dim alone.
opt::LogicalQuery ToLogicalQuery(const opt::DateRangeQuery& q,
                                 const engine::Table* fact,
                                 const engine::Table* dim,
                                 const engine::OrderedIndex* fact_sk_index,
                                 const engine::PartitionedTable* fact_parts,
                                 std::shared_ptr<theory::Theory> dim_ods);

/// The order-aware daily-sales report: per-day totals over one year,
/// GROUP BY / ORDER BY the date surrogate key. The shape where the
/// streaming OD-aware plan elides *everything*: the join (surrogate
/// range), the aggregation hash (stream aggregate on the index order), and
/// the ORDER BY sort.
opt::LogicalQuery DailySalesQuery(const engine::Table* fact,
                                  const engine::Table* dim,
                                  const engine::OrderedIndex* fact_sk_index,
                                  const engine::PartitionedTable* fact_parts,
                                  std::shared_ptr<theory::Theory> dim_ods,
                                  int year);

/// Example 5 through the planner: SELECT * FROM taxes ORDER BY bracket,
/// tax. With TaxOds() the income-ordered index stream provably satisfies
/// the ORDER BY ([income] ↦ [bracket, tax]) — zero sorts.
opt::LogicalQuery TaxOrderByQuery(const engine::Table* taxes,
                                  const engine::OrderedIndex* income_index,
                                  std::shared_ptr<theory::Theory> tax_ods);

}  // namespace warehouse
}  // namespace od

#endif  // OD_WAREHOUSE_QUERIES_H_
