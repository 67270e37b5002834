// Experiment I-PROVER: incremental re-proving economics under catalog
// churn. A fixed dense implication workload is re-answered after every
// add/drop mutation of a 90%-retained churn sweep, two ways:
//
//   * BM_ChurnIncremental — ONE long-lived Theory + Prover; the memo
//     carries across epochs via monotonicity-aware retention (support sets
//     for positives, countermodel certificates for negatives);
//   * BM_ChurnRebuild — the pre-Theory architecture: a fresh Prover built
//     from scratch at every epoch, re-searching the whole workload.
//
// The `searches_per_sweep` counter is the headline: the checked-in
// baseline must show the incremental prover executing ≥5× fewer model
// searches per sweep than the rebuild loop (the same gate
// tests/prover/incremental_prover_test.cc enforces deterministically).
// `retained_per_sweep` counts memo entries that survived a mutation only
// thanks to their certificate.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include "prover/prover.h"
#include "theory/theory.h"

namespace od {
namespace {

constexpr int kAttrs = 12;
constexpr int kEpochs = 10;

DependencySet ChainTheory(int n) {
  DependencySet m;
  for (int i = 0; i + 1 < n; ++i) {
    m.Add(AttributeList({i}), AttributeList({i + 1}));
  }
  return m;
}

std::vector<OrderDependency> PairQueries(int n) {
  std::vector<OrderDependency> queries;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      queries.emplace_back(AttributeList({i}), AttributeList({j}));
      queries.emplace_back(AttributeList({i}),
                           AttributeList({j, (j + 1) % n}));
    }
  }
  return queries;
}

/// One churn step: drop a uniformly chosen live constraint and re-declare
/// it. ~90% of the catalog is untouched per epoch, and the catalog is
/// semantically identical afterwards — the floor for what an incremental
/// prover should exploit and exactly what a rebuild cannot.
void ChurnOnce(theory::Theory& th, std::mt19937& rng) {
  std::uniform_int_distribution<int> pick(0, th.Size() - 1);
  const int victim = pick(rng);
  const OrderDependency dep = th.deps()[victim];
  th.Remove(th.ids()[victim]);
  th.Add(dep);
}

void BM_ChurnIncremental(benchmark::State& state) {
  const std::vector<OrderDependency> queries = PairQueries(kAttrs);
  int64_t searches = 0;
  int64_t split_refutations = 0;
  int64_t retained = 0;
  int64_t sweeps = 0;
  for (auto _ : state) {
    std::mt19937 rng(11);
    auto th = std::make_shared<theory::Theory>(ChainTheory(kAttrs));
    prover::Prover pv(th);
    pv.ProveAll(queries);  // steady state: warm memo
    pv.ResetStats();
    for (int e = 0; e < kEpochs; ++e) {
      ChurnOnce(*th, rng);
      auto results = pv.ProveAll(queries);
      benchmark::DoNotOptimize(results.size());
    }
    searches += pv.searches_executed();
    split_refutations += pv.split_refutations();
    retained += pv.entries_retained();
    ++sweeps;
  }
  state.SetItemsProcessed(state.iterations() * kEpochs *
                          static_cast<int64_t>(queries.size()));
  state.counters["searches_per_sweep"] =
      static_cast<double>(searches) / static_cast<double>(sweeps);
  state.counters["split_refutations_per_sweep"] =
      static_cast<double>(split_refutations) / static_cast<double>(sweeps);
  state.counters["retained_per_sweep"] =
      static_cast<double>(retained) / static_cast<double>(sweeps);
}

void BM_ChurnRebuild(benchmark::State& state) {
  const std::vector<OrderDependency> queries = PairQueries(kAttrs);
  int64_t searches = 0;
  int64_t split_refutations = 0;
  int64_t sweeps = 0;
  for (auto _ : state) {
    std::mt19937 rng(11);
    theory::Theory th(ChainTheory(kAttrs));
    for (int e = 0; e < kEpochs; ++e) {
      ChurnOnce(th, rng);
      prover::Prover pv(th.deps());  // from scratch at this epoch
      auto results = pv.ProveAll(queries);
      benchmark::DoNotOptimize(results.size());
      searches += pv.searches_executed();
      split_refutations += pv.split_refutations();
    }
    ++sweeps;
  }
  state.SetItemsProcessed(state.iterations() * kEpochs *
                          static_cast<int64_t>(queries.size()));
  state.counters["searches_per_sweep"] =
      static_cast<double>(searches) / static_cast<double>(sweeps);
  state.counters["split_refutations_per_sweep"] =
      static_cast<double>(split_refutations) / static_cast<double>(sweeps);
}

/// The mutation fast path itself: how much does one Add/Remove pair cost a
/// prover carrying a fully warmed memo? Each sweep visits every shard but
/// looks only at the entries the edit reaches through the shard's
/// certificate index; on this chain catalog a link's removal and re-add
/// reach much of the memo, so index upkeep shows here. The memo is
/// re-warmed outside the timed region each iteration — otherwise
/// successive evictions would drain it and later sweeps would measure a
/// nearly empty map.
void BM_MutationSweepCost(benchmark::State& state) {
  const std::vector<OrderDependency> queries = PairQueries(kAttrs);
  auto th = std::make_shared<theory::Theory>(ChainTheory(kAttrs));
  prover::Prover pv(th);
  std::mt19937 rng(13);
  int64_t entries = 0;
  for (auto _ : state) {
    state.PauseTiming();
    pv.ProveAll(queries);  // restore the steady-state memo
    entries += pv.memo_size();
    state.ResumeTiming();
    ChurnOnce(*th, rng);
  }
  state.counters["memo_entries"] =
      static_cast<double>(entries) /
      static_cast<double>(std::max<int64_t>(1, state.iterations()));
}

BENCHMARK(BM_ChurnIncremental)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ChurnRebuild)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MutationSweepCost);

}  // namespace
}  // namespace od

BENCHMARK_MAIN();
