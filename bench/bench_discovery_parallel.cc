// Experiment DISCOVERY-P: the threaded variant of bench_discovery. Each
// lattice level's partitions are prewarmed, then its split/swap candidates
// validate on a pool of DiscoveryOptions::num_threads; results are
// identical at every thread count, so only wall-clock moves. The threads=1
// entries run the same steps inline on the calling thread, so the speedup
// gate's ratio measures the fan-out alone — target ≥3× at 8 threads on 8
// cores for level validation on the planted tables below.

#include <benchmark/benchmark.h>

#include <random>
#include <string>

#include "discovery/discovery.h"
#include "engine/table.h"

namespace od {
namespace {

/// Same planted structure as bench_discovery: a low-cardinality dimension,
/// a function of it, a per-class co-varying column, and random noise — the
/// noise columns force real validation work at every level.
engine::Table PlantedTable(int64_t rows, int cols, uint32_t seed) {
  engine::Schema s;
  for (int c = 0; c < cols; ++c) {
    s.Add("c" + std::to_string(c), engine::DataType::kInt64);
  }
  engine::Table t(s);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int64_t> noise(0, rows / 4 + 1);
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t dim = i % 16;
    t.col(0).AppendInt(dim);
    if (cols > 1) t.col(1).AppendInt(dim * 3 + 1);
    if (cols > 2) t.col(2).AppendInt(dim * 1000 + (i % 97));
    for (int c = 3; c < cols; ++c) t.col(c).AppendInt(noise(rng));
    t.FinishRow();
  }
  return t;
}

void BM_ParallelDiscoverRows(benchmark::State& state) {
  // Row-heavy: few columns, large partitions — the swap scans dominate and
  // spread across the pool.
  const int threads = static_cast<int>(state.range(0));
  engine::Table t = PlantedTable(/*rows=*/16000, /*cols=*/6, /*seed=*/7);
  discovery::DiscoveryOptions opts;
  opts.num_threads = threads;
  for (auto _ : state) {
    auto result = discovery::DiscoverODs(t, opts);
    benchmark::DoNotOptimize(result.ods.Size());
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}

void BM_ParallelDiscoverWide(benchmark::State& state) {
  // Column-heavy: the lattice fans out to many nodes per level, so node
  // validation parallelism is the lever.
  const int threads = static_cast<int>(state.range(0));
  engine::Table t = PlantedTable(/*rows=*/2000, /*cols=*/9, /*seed=*/7);
  discovery::DiscoveryOptions opts;
  opts.num_threads = threads;
  for (auto _ : state) {
    auto result = discovery::DiscoverODs(t, opts);
    benchmark::DoNotOptimize(result.ods.Size());
  }
}

void BM_ParallelDiscoverBoundedLevel(benchmark::State& state) {
  // The wide-table deployment mode: lattice capped at level 3.
  const int threads = static_cast<int>(state.range(0));
  engine::Table t = PlantedTable(/*rows=*/4000, /*cols=*/12, /*seed=*/7);
  discovery::DiscoveryOptions opts;
  opts.num_threads = threads;
  opts.max_level = 3;
  for (auto _ : state) {
    auto result = discovery::DiscoverODs(t, opts);
    benchmark::DoNotOptimize(result.ods.Size());
  }
}

BENCHMARK(BM_ParallelDiscoverRows)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ParallelDiscoverWide)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ParallelDiscoverBoundedLevel)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace od

BENCHMARK_MAIN();
