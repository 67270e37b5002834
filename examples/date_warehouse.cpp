// Example 1 and the Section 2.3 date rewrite, end to end: builds the star
// schema, plans one date query with and without the date-dimension ODs,
// shows both plans side by side (EXPLAIN), executes both, and verifies they
// agree. Exits 1 if any check fails.

#include <cstdio>
#include <memory>

#include "engine/index.h"
#include "engine/ops.h"
#include "optimizer/planner.h"
#include "optimizer/reduce_order.h"
#include "warehouse/date_dim.h"
#include "warehouse/queries.h"
#include "warehouse/star_schema.h"

int main() {
  using namespace od;

  // --- Build the warehouse ------------------------------------------------
  engine::Table dim = warehouse::GenerateDateDim(1998, 5);
  engine::Table fact = warehouse::GenerateStoreSales(
      /*num_rows=*/200000, dim.col(0).Int(0), dim.num_rows(),
      /*num_items=*/100, /*num_stores=*/10, /*seed=*/99);
  std::printf("date_dim: %lld rows, store_sales: %lld rows\n\n",
              static_cast<long long>(dim.num_rows()),
              static_cast<long long>(fact.num_rows()));

  // --- Example 1: eliminate quarter from ORDER BY / GROUP BY ---------------
  // One shared catalog for every reasoning consumer: the date-dimension
  // ODs live in a Theory, and both the raw prover and the planner attach
  // to it (catalog edits would reach both at once).
  const warehouse::DateDimColumns d;
  auto catalog = std::make_shared<theory::Theory>(warehouse::DateDimOds());
  prover::Prover pv(catalog);
  const AttributeList order_by({d.d_year, d.d_quarter, d.d_moy});
  auto reduced = opt::ReduceOrderPlus(pv, order_by);
  std::printf("ORDER BY %s reduces to %s\n", ToString(order_by).c_str(),
              ToString(reduced.reduced).c_str());
  for (const auto& line : reduced.log) std::printf("  %s\n", line.c_str());

  // --- The surrogate-key rewrite (Section 2.3 / [18]) ----------------------
  // The same logical query planned twice: over the catalog, PlanQuery
  // proves [d_date_sk] <-> [d_date] and replaces the join with a surrogate
  // range on the fact index; without it, the join stays.
  const auto queries = warehouse::TpcdsDateQueries(1998, 5);
  const auto& q = queries[5];  // a (year, month) query
  engine::OrderedIndex fact_index(&fact, {0});
  opt::PhysicalPlan blind = opt::PlanQuery(warehouse::ToLogicalQuery(
      q, &fact, &dim, &fact_index, /*fact_parts=*/nullptr, nullptr));
  opt::PhysicalPlan aware = opt::PlanQuery(warehouse::ToLogicalQuery(
      q, &fact, &dim, &fact_index, /*fact_parts=*/nullptr, catalog));
  std::printf("\nquery %s\nOD-blind plan:\n%s\nOD-aware plan:\n%s\n",
              q.name.c_str(), blind.Explain().c_str(),
              aware.Explain().c_str());

  opt::ExecStats blind_stats, aware_stats;
  engine::Table blind_result = blind.Execute(&blind_stats);
  engine::Table aware_result = aware.Execute(&aware_stats);
  const bool identical =
      engine::SameRowMultiset(blind_result, aware_result);
  const bool rewritten = aware_stats.joins == 0 &&
                         aware_stats.joins_elided == 1 &&
                         blind_stats.joins == 1;
  std::printf("results identical: %s\n", identical ? "yes" : "NO");
  std::printf("join elided by the OD: %s\n", rewritten ? "yes" : "NO");
  std::printf("OD-blind: %lld rows scanned, %d join(s)\n",
              static_cast<long long>(blind_stats.rows_scanned),
              blind_stats.joins);
  std::printf("OD-aware: %lld rows scanned, %d join(s)\n\n",
              static_cast<long long>(aware_stats.rows_scanned),
              aware_stats.joins);

  std::printf("result sample:\n%s", aware_result.ToString(5).c_str());
  return identical && rewritten ? 0 : 1;
}
