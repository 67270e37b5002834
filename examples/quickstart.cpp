// Quickstart for libod: declare order dependencies in a mutable Theory,
// check them against data, ask the theorem prover questions — including
// after live constraint adds/drops — and print a mechanical proof.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart

#include <cstdio>
#include <memory>

#include "axioms/system.h"
#include "axioms/theorems.h"
#include "core/parser.h"
#include "core/witness.h"
#include "prover/prover.h"
#include "theory/theory.h"

int main() {
  using namespace od;

  // 1. Declare a set of order dependencies with the paper's notation.
  //    X -> Y  is the OD X ↦ Y ("X orders Y");
  //    X <-> Y is order equivalence; X ~ Y is order compatibility.
  NameTable names;
  Parser parser(&names);
  DependencySet constraints =
      *parser.ParseSet("[month] -> [quarter]; [date] <-> [year, month, day]");
  std::printf("Constraints ℳ:\n%s\n",
              constraints.ToString(names).c_str());

  // 2. Check an instance. Figure 1 of the paper:
  Relation fig1 = Relation::FromInts({{3, 2, 0, 4, 7, 9},
                                      {3, 2, 1, 3, 8, 9}});
  const OrderDependency holds(AttributeList({0, 1, 2}),    // [A,B,C]
                              AttributeList({5, 4, 3}));   // [F,E,D]
  const OrderDependency broken(AttributeList({0, 1, 2}),   // [A,B,C]
                               AttributeList({5, 3, 4}));  // [F,D,E]
  std::printf("Figure 1 ⊨ [A,B,C] -> [F,E,D]?  %s\n",
              Satisfies(fig1, holds) ? "yes" : "no");
  auto witness = FindViolation(fig1, broken);
  std::printf("Figure 1 ⊨ [A,B,C] -> [F,D,E]?  no — falsified by a %s\n\n",
              witness->kind == ViolationKind::kSwap ? "swap" : "split");

  // 3. Put the catalog in a Theory — a versioned, MUTABLE constraint set —
  //    and attach the prover (sound and complete) to it.
  auto theory = std::make_shared<theory::Theory>(constraints);
  prover::Prover pv(theory);
  auto ask = [&](const char* text) {
    auto ods = parser.ParseStatement(text);
    bool all = true;
    for (const auto& dep : *ods) all = all && pv.Implies(dep);
    std::printf("ℳ ⊨ %-46s %s\n", text, all ? "yes" : "no");
  };
  ask("[year, quarter, month] <-> [year, month]");  // Left Eliminate
  ask("[date] -> [year, quarter]");                 // Path down the hierarchy
  ask("[quarter] -> [month]");                      // must NOT follow

  // 4. Counterexamples are two-row tables found by the model search.
  auto q = parser.ParseStatement("[quarter] -> [month]");
  auto cex = pv.Counterexample((*q)[0]);
  std::printf("\nCounterexample for [quarter] -> [month]:\n%s",
              cex->ToString().c_str());

  // 5. Catalogs change. Declare a new constraint and the SAME prover
  //    tracks it — the memo is kept consistent incrementally (epoch-tagged
  //    entries with certificates), not rebuilt.
  auto added = parser.ParseStatement("[quarter] -> [month]");
  const theory::ConstraintId id = theory->Add((*added)[0]);
  std::printf("\nAfter declaring [quarter] -> [month] (epoch %llu):\n",
              static_cast<unsigned long long>(theory->epoch()));
  ask("[quarter] -> [month]");   // now follows, of course
  ask("[month] <-> [quarter]");  // and the equivalence closes
  theory->Remove(id);
  std::printf("After dropping it again (epoch %llu):\n",
              static_cast<unsigned long long>(theory->epoch()));
  ask("[quarter] -> [month]");
  std::printf("searches executed: %lld, split refutations: %lld, "
              "cache hits: %lld, entries retained across churn: %lld\n",
              static_cast<long long>(pv.searches_executed()),
              static_cast<long long>(pv.split_refutations()),
              static_cast<long long>(pv.cache_hits()),
              static_cast<long long>(pv.entries_retained()));

  // 6. Derived theorems come with printable derivations (Section 3.3).
  const AttributeId year = names.Lookup("year");
  const AttributeId quarter = names.Lookup("quarter");
  const AttributeId month = names.Lookup("month");
  axioms::Proof proof = axioms::LeftEliminate(
      AttributeList({year}), AttributeList({quarter}), AttributeList({month}),
      AttributeList());
  std::printf("\nTheorem 8 (Left Eliminate) applied to Example 1:\n%s",
              proof.ToString(&names).c_str());
  std::string error;
  std::printf("proof checks semantically: %s\n",
              axioms::CheckProofSemantically(proof, &error) ? "yes" : "no");
  return 0;
}
