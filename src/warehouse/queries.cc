#include "warehouse/queries.h"

namespace od {
namespace warehouse {

std::vector<opt::DateRangeQuery> TpcdsDateQueries(int start_year,
                                                  int num_years) {
  const DateDimColumns d;
  const StoreSalesColumns f;
  using engine::AggSpec;
  using engine::Predicate;
  using P = Predicate::Op;

  auto year_eq = [&](int y) {
    return Predicate{d.d_year, P::kEq, Value(int64_t{y})};
  };
  auto moy_eq = [&](int m) {
    return Predicate{d.d_moy, P::kEq, Value(int64_t{m})};
  };
  auto quarter_eq = [&](int q) {
    return Predicate{d.d_quarter, P::kEq, Value(int64_t{q})};
  };
  auto date_between = [&](int y, int m, int day, int span_days) {
    const int64_t lo = DaysFromCivil(y, m, day);
    return Predicate{d.d_date, P::kBetween, Value(lo),
                     Value(lo + span_days - 1)};
  };
  const AggSpec sum_net{AggSpec::Kind::kSum, f.ss_net_paid, "sum_net_paid"};
  const AggSpec sum_qty{AggSpec::Kind::kSum, f.ss_quantity, "sum_quantity"};
  const AggSpec avg_price{AggSpec::Kind::kAvg, f.ss_sales_price, "avg_price"};
  const AggSpec cnt{AggSpec::Kind::kCount, 0, "cnt"};
  const AggSpec max_price{AggSpec::Kind::kMax, f.ss_sales_price, "max_price"};

  const int y0 = start_year;
  const int y1 = start_year + (num_years > 1 ? 1 : 0);
  const int y2 = start_year + (num_years > 2 ? 2 : 0);

  std::vector<opt::DateRangeQuery> queries;
  auto add = [&](const char* name, std::vector<Predicate> preds,
                 std::vector<engine::ColumnId> groups,
                 std::vector<AggSpec> aggs) {
    queries.push_back(opt::DateRangeQuery{name, std::move(preds),
                                          f.ss_sold_date_sk, d.d_date_sk,
                                          std::move(groups), std::move(aggs)});
  };

  // Year-equality predicates (the q3/q42/q52 family).
  add("q01_year_store_sum", {year_eq(y0)}, {f.ss_store_sk}, {sum_net});
  add("q02_year_store_qty", {year_eq(y1)}, {f.ss_store_sk}, {sum_qty});
  add("q03_year_store_avg", {year_eq(y2)}, {f.ss_store_sk}, {avg_price});
  add("q04_year_item_sum", {year_eq(y0)}, {f.ss_item_sk}, {sum_net});
  add("q05_year_store_cnt", {year_eq(y1)}, {f.ss_store_sk}, {cnt});

  // Year + month predicates (the q55/q36 family).
  add("q06_ym_store_sum", {year_eq(y0), moy_eq(11)}, {f.ss_store_sk},
      {sum_net});
  add("q07_ym_item_qty", {year_eq(y0), moy_eq(12)}, {f.ss_item_sk},
      {sum_qty});
  add("q08_ym_store_avg", {year_eq(y1), moy_eq(6)}, {f.ss_store_sk},
      {avg_price});
  add("q09_ym_store_sum", {year_eq(y2), moy_eq(1)}, {f.ss_store_sk},
      {sum_net, cnt});

  // Date-range predicates (the 30/90-day window family).
  add("q10_range30_store_sum", {date_between(y0, 3, 1, 30)}, {f.ss_store_sk},
      {sum_net});
  add("q11_range90_item_cnt", {date_between(y1, 2, 1, 90)}, {f.ss_item_sk},
      {cnt});
  add("q12_quarter_store_sum", {year_eq(y0), quarter_eq(2)}, {f.ss_store_sk},
      {sum_net, sum_qty});
  add("q13_range365_store_max", {date_between(y0, 7, 1, 365)},
      {f.ss_store_sk}, {max_price});

  return queries;
}

opt::LogicalQuery ToLogicalQuery(const opt::DateRangeQuery& q,
                                 const engine::Table* fact,
                                 const engine::Table* dim,
                                 const engine::OrderedIndex* fact_sk_index,
                                 const engine::PartitionedTable* fact_parts,
                                 std::shared_ptr<theory::Theory> dim_ods) {
  const DateDimColumns d;
  opt::LogicalQuery lq;
  lq.name = q.name;
  // The fact table declares no ODs. Its catalog is empty rather than
  // null: Session::Plan binds the tenant catalog to every table whose
  // catalog is null, and the date ODs name date_dim's columns.
  lq.tables.push_back(
      opt::TableRef{"store_sales", fact, fact_sk_index, fact_parts,
                    /*ods=*/std::make_shared<theory::Theory>(),
                    /*prover=*/nullptr, /*natural_order_col=*/-1});
  lq.tables.push_back(opt::TableRef{"date_dim", dim, /*index=*/nullptr,
                                    /*partitions=*/nullptr,
                                    std::move(dim_ods), /*prover=*/nullptr,
                                    /*natural_order_col=*/d.d_date});
  lq.joins.push_back(opt::JoinClause{1, q.fact_date_sk, q.dim_date_sk});
  lq.filters = {{}, q.dim_predicates};
  lq.group_cols = q.fact_group_cols;
  lq.aggs = q.fact_aggs;
  return lq;
}

opt::LogicalQuery DailySalesQuery(const engine::Table* fact,
                                  const engine::Table* dim,
                                  const engine::OrderedIndex* fact_sk_index,
                                  const engine::PartitionedTable* fact_parts,
                                  std::shared_ptr<theory::Theory> dim_ods,
                                  int year) {
  const DateDimColumns d;
  const StoreSalesColumns f;
  opt::DateRangeQuery q;
  q.name = "daily_sales_" + std::to_string(year);
  q.dim_predicates = {engine::Predicate{
      d.d_year, engine::Predicate::Op::kEq, Value(int64_t{year})}};
  q.fact_date_sk = f.ss_sold_date_sk;
  q.dim_date_sk = d.d_date_sk;
  q.fact_group_cols = {f.ss_sold_date_sk};
  q.fact_aggs = {
      {engine::AggSpec::Kind::kSum, f.ss_net_paid, "sum_net_paid"},
      {engine::AggSpec::Kind::kCount, 0, "cnt"}};
  opt::LogicalQuery lq = ToLogicalQuery(q, fact, dim, fact_sk_index,
                                        fact_parts, std::move(dim_ods));
  lq.order_by = {f.ss_sold_date_sk};
  return lq;
}

opt::LogicalQuery TaxOrderByQuery(const engine::Table* taxes,
                                  const engine::OrderedIndex* income_index,
                                  std::shared_ptr<theory::Theory> tax_ods) {
  const TaxColumns t;
  opt::LogicalQuery lq;
  lq.name = "tax_order_by_bracket_tax";
  lq.tables.push_back(opt::TableRef{"taxes", taxes, income_index,
                                    /*partitions=*/nullptr,
                                    std::move(tax_ods), /*prover=*/nullptr,
                                    /*natural_order_col=*/-1});
  lq.order_by = {t.bracket, t.tax};
  return lq;
}

}  // namespace warehouse
}  // namespace od
