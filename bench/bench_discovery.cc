// Experiment DISCOVERY: scaling of the OD miner. Sweeps rows (partition
// work is near-linear thanks to stripping) and columns (the lattice is the
// exponential axis, tamed by the pruning rules), plus the layer primitives
// in isolation: partition products and the two validators.

#include <benchmark/benchmark.h>

#include <random>

#include "discovery/discovery.h"
#include "discovery/stripped_partition.h"
#include "discovery/validators.h"
#include "engine/table.h"

namespace od {
namespace {

/// A table with planted structure: column 0 is a low-cardinality dimension,
/// column 1 is a function of column 0, column 2 co-varies with column 1
/// inside each class of column 0, and the rest is random noise.
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

void BM_DiscoverRows(benchmark::State& state) {
  const int64_t rows = state.range(0);
  engine::Table t = PlantedTable(rows, /*cols=*/5, /*seed=*/7);
  for (auto _ : state) {
    auto result = discovery::DiscoverODs(t);
    benchmark::DoNotOptimize(result.ods.Size());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

void BM_DiscoverColumns(benchmark::State& state) {
  const int cols = static_cast<int>(state.range(0));
  engine::Table t = PlantedTable(/*rows=*/2000, cols, /*seed=*/7);
  for (auto _ : state) {
    auto result = discovery::DiscoverODs(t);
    benchmark::DoNotOptimize(result.ods.Size());
  }
}

void BM_DiscoverBoundedLevel(benchmark::State& state) {
  // The practical deployment mode on wide tables: cap the lattice level.
  const int cols = static_cast<int>(state.range(0));
  engine::Table t = PlantedTable(/*rows=*/2000, cols, /*seed=*/7);
  discovery::DiscoveryOptions opts;
  opts.max_level = 3;
  for (auto _ : state) {
    auto result = discovery::DiscoverODs(t, opts);
    benchmark::DoNotOptimize(result.ods.Size());
  }
}

void BM_PartitionProduct(benchmark::State& state) {
  const int64_t rows = state.range(0);
  engine::Table t = PlantedTable(rows, /*cols=*/4, /*seed=*/7);
  auto pa = discovery::StrippedPartition::ForColumn(t, 0);
  auto pb = discovery::StrippedPartition::ForColumn(t, 3);
  for (auto _ : state) {
    auto prod = pa.Product(pb);
    benchmark::DoNotOptimize(prod.num_classes());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

void BM_SplitValidation(benchmark::State& state) {
  const int64_t rows = state.range(0);
  engine::Table t = PlantedTable(rows, /*cols=*/4, /*seed=*/7);
  discovery::PartitionCache cache(t);
  cache.Prewarm({AttributeSet({0}), AttributeSet({0, 1})}, nullptr);
  const auto& ctx = cache.Get(AttributeSet({0}));
  const auto& refined = cache.Get(AttributeSet({0, 1}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(discovery::SplitCandidateHolds(ctx, refined));
  }
}

void BM_SwapValidation(benchmark::State& state) {
  const int64_t rows = state.range(0);
  engine::Table t = PlantedTable(rows, /*cols=*/4, /*seed=*/7);
  discovery::PartitionCache cache(t);
  cache.Prewarm({AttributeSet({0})}, nullptr);
  const auto& ctx = cache.Get(AttributeSet({0}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(discovery::SwapCandidateHolds(t, ctx, 1, 2));
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

BENCHMARK(BM_DiscoverRows)->RangeMultiplier(4)->Range(1000, 64000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DiscoverColumns)->DenseRange(4, 10, 2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DiscoverBoundedLevel)->DenseRange(6, 12, 2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PartitionProduct)->RangeMultiplier(8)->Range(1000, 512000);
BENCHMARK(BM_SplitValidation)->Arg(100000);
BENCHMARK(BM_SwapValidation)->RangeMultiplier(8)->Range(1000, 512000);

}  // namespace
}  // namespace od

BENCHMARK_MAIN();
