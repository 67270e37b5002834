// Example 5 of the paper: the Taxes table. Declares the monotonicity
// constraints [income] ↦ [bracket] and [income] ↦ [tax], derives
// [income] ↦ [bracket, tax] with a printed Union proof, and answers
// ORDER BY bracket, tax from the income index with no sort. Exits 1 if any
// check fails.

#include <cstdio>

#include "axioms/system.h"
#include "axioms/theorems.h"
#include "engine/index.h"
#include "engine/ops.h"
#include "optimizer/order_property.h"
#include "optimizer/reduce_order.h"
#include "warehouse/tax_schedule.h"

int main() {
  using namespace od;

  engine::Table taxes = warehouse::GenerateTaxTable(/*num_rows=*/50000,
                                                    /*max_income=*/400000,
                                                    /*seed=*/5);
  const warehouse::TaxColumns c;
  const DependencySet constraints = warehouse::TaxOds();
  NameTable names({"income", "bracket", "rate", "tax"});
  std::printf("Prescribed constraints:\n%s\n",
              constraints.ToString(names).c_str());

  // Union (Theorem 2) derives the combined OD; print the derivation.
  axioms::Proof proof = axioms::Union(AttributeList({c.income}),
                                      AttributeList({c.bracket}),
                                      AttributeList({c.tax}));
  std::printf("Theorem 2 (Union) derivation of [income] -> [bracket, tax]:\n%s",
              proof.ToString(&names).c_str());
  std::string error;
  const bool proof_ok = axioms::CheckProofSemantically(proof, &error);
  std::printf("proof checks: %s\n\n", proof_ok ? "yes" : "no");

  // The optimizer view: ORDER BY bracket, tax is provided by income order.
  // The reasoner owns the catalog as a Theory; the ReduceOrder+ call below
  // shares the same prover (and memo) through it.
  opt::OrderReasoner reasoner(constraints);
  const bool provided = reasoner.Provides({c.income}, {c.bracket, c.tax});
  std::printf("income-ordered stream answers ORDER BY bracket, tax? %s\n",
              provided ? "yes" : "no");

  // ReduceOrder+ collapses ORDER BY bracket, tax, income to income alone.
  auto reduced = opt::ReduceOrderPlus(
      reasoner.prover(), AttributeList({c.bracket, c.tax, c.income}));
  std::printf("ORDER BY [bracket, tax, income] reduces to %s\n\n",
              names.Format(reduced.reduced).c_str());

  // Execute both ways and compare.
  engine::OrderedIndex income_index(&taxes, {c.income});
  engine::Table via_index = income_index.ScanAll();
  engine::Table via_sort = engine::SortBy(taxes, {c.bracket, c.tax});
  const bool sorted = engine::IsSortedBy(via_index, {c.bracket, c.tax});
  const bool same_rows = engine::SameRowMultiset(via_index, via_sort);
  std::printf("index stream sorted by (bracket, tax)?  %s\n",
              sorted ? "yes" : "no");
  std::printf("same rows as the explicit sort?         %s\n",
              same_rows ? "yes" : "no");
  std::printf("\nfirst rows via income index:\n%s",
              via_index.ToString(5).c_str());
  return proof_ok && provided && sorted && same_rows ? 0 : 1;
}
