// Experiment C-PROVER (the paper's first future-work item): performance of
// the logical-implication decision ℳ ⊨ X ↦ Y. Sweeps the number of
// attributes (the exact search is exponential in the worst case, matching
// the problem's co-NP-hardness) and the number of prescribed ODs.

#include <benchmark/benchmark.h>

#include <random>

#include "prover/closure.h"
#include "prover/prover.h"

namespace od {
namespace {

DependencySet ChainTheory(int n) {
  // a0 ↦ a1 ↦ ... ↦ a(n-1): implication queries traverse transitivity.
  DependencySet m;
  for (int i = 0; i + 1 < n; ++i) {
    m.Add(AttributeList({i}), AttributeList({i + 1}));
  }
  return m;
}

DependencySet RandomTheory(int n, int num_ods, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> attr(0, n - 1);
  std::uniform_int_distribution<int> len(1, 2);
  DependencySet m;
  for (int i = 0; i < num_ods; ++i) {
    AttributeList lhs, rhs;
    for (int k = len(rng); k > 0; --k) lhs = lhs.Append(attr(rng));
    for (int k = len(rng); k > 0; --k) rhs = rhs.Append(attr(rng));
    m.Add(lhs.RemoveDuplicates(), rhs.RemoveDuplicates());
  }
  return m;
}

void BM_ImpliedTransitiveChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DependencySet m = ChainTheory(n);
  const OrderDependency query(AttributeList({0}), AttributeList({n - 1}));
  for (auto _ : state) {
    prover::Prover pv(m);  // fresh prover: no memoization across iterations
    benchmark::DoNotOptimize(pv.Implies(query));
  }
}

void BM_NonImpliedWorstCase(benchmark::State& state) {
  // [a_{n-1}] ↦ [a_0] fails the FD split: a_0 lies outside the closure of
  // a_{n-1}, so one closure refutes it and the countermodel is the split
  // block grown greedily over the chain — no model search runs.
  const int n = static_cast<int>(state.range(0));
  DependencySet m = ChainTheory(n);
  const OrderDependency query(AttributeList({n - 1}), AttributeList({0}));
  for (auto _ : state) {
    prover::Prover pv(m);
    benchmark::DoNotOptimize(pv.Implies(query));
  }
}

void BM_SwapRefutation(benchmark::State& state) {
  // [a_0, z] ↦ [z, a_{n-1}], with z outside the chain, passes the FD split
  // (a_0 determines the whole chain) but fails by a swap, so only the
  // model search refutes it.
  const int n = static_cast<int>(state.range(0));
  DependencySet m = ChainTheory(n);
  const OrderDependency query(AttributeList({0, n}), AttributeList({n, n - 1}));
  for (auto _ : state) {
    prover::Prover pv(m);
    benchmark::DoNotOptimize(pv.Implies(query));
    if (pv.searches_executed() != 1) {
      state.SkipWithError("the query did not reach the model search");
      break;
    }
  }
}

void BM_RandomTheoryImplication(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DependencySet m = RandomTheory(n, /*num_ods=*/n, /*seed=*/7);
  const OrderDependency query(AttributeList({0}),
                              AttributeList({n - 1, n / 2}));
  for (auto _ : state) {
    prover::Prover pv(m);
    benchmark::DoNotOptimize(pv.Implies(query));
  }
}

void BM_CachedImplication(benchmark::State& state) {
  // With memoization (the deployment mode inside an optimizer), repeated
  // questions are table lookups.
  const int n = static_cast<int>(state.range(0));
  DependencySet m = ChainTheory(n);
  prover::Prover pv(m);
  const OrderDependency query(AttributeList({0}), AttributeList({n - 1}));
  pv.Implies(query);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pv.Implies(query));
  }
}

void BM_BoundedClosure(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DependencySet m = ChainTheory(n);
  for (auto _ : state) {
    prover::Prover pv(m);
    auto closure = prover::BoundedClosure(pv, AttributeSet::FirstN(n), 2);
    benchmark::DoNotOptimize(closure);
  }
}

BENCHMARK(BM_ImpliedTransitiveChain)->DenseRange(4, 16, 4);
BENCHMARK(BM_NonImpliedWorstCase)->DenseRange(4, 16, 4);
BENCHMARK(BM_SwapRefutation)->DenseRange(4, 16, 4);
BENCHMARK(BM_RandomTheoryImplication)->DenseRange(4, 16, 4);
BENCHMARK(BM_CachedImplication)->Arg(16);
BENCHMARK(BM_BoundedClosure)->DenseRange(3, 5)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace od

BENCHMARK_MAIN();
