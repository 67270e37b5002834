// Threaded DiscoverODs must be indistinguishable from the serial run
// (num_threads 1: no pool, the same steps inline on the calling thread), so
// the fan-out changes nothing: identical OD covers (same ODs, same order),
// identical canonical results, identical traversal statistics and partition
// counts — on Armstrong tables generated from known theories and on
// synthetic tables with planted structure. Under -DOD_SANITIZE=thread this
// doubles as the race check for the prewarmed PartitionCache and the
// parallel level validation.

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "armstrong/generator.h"
#include "core/parser.h"
#include "discovery/discovery.h"
#include "engine/table.h"
#include "prover/prover.h"
#include "test_table_util.h"

namespace od {
namespace discovery {
namespace {

bool SameConstancy(const ConstancyOd& x, const ConstancyOd& y) {
  return x.context == y.context && x.attr == y.attr;
}

bool SameCompatibility(const CompatibilityOd& x, const CompatibilityOd& y) {
  return x.context == y.context && x.a == y.a && x.b == y.b;
}

void ExpectIdentical(const DiscoveryResult& serial,
                     const DiscoveryResult& threaded) {
  // The full list-form cover, element by element (order included).
  ASSERT_EQ(serial.ods.Size(), threaded.ods.Size());
  for (int i = 0; i < serial.ods.Size(); ++i) {
    EXPECT_EQ(serial.ods[i], threaded.ods[i]) << "OD at position " << i;
  }
  // Canonical forms.
  ASSERT_EQ(serial.constancies.size(), threaded.constancies.size());
  for (size_t i = 0; i < serial.constancies.size(); ++i) {
    EXPECT_TRUE(SameConstancy(serial.constancies[i], threaded.constancies[i]))
        << "constancy at position " << i;
  }
  ASSERT_EQ(serial.compatibilities.size(), threaded.compatibilities.size());
  for (size_t i = 0; i < serial.compatibilities.size(); ++i) {
    EXPECT_TRUE(SameCompatibility(serial.compatibilities[i],
                                  threaded.compatibilities[i]))
        << "compatibility at position " << i;
  }
  // Work accounting: the parallel traversal asks the same questions and
  // materializes the same partitions.
  EXPECT_EQ(serial.stats.nodes_visited, threaded.stats.nodes_visited);
  EXPECT_EQ(serial.stats.nodes_dropped, threaded.stats.nodes_dropped);
  EXPECT_EQ(serial.stats.split_checks, threaded.stats.split_checks);
  EXPECT_EQ(serial.stats.swap_checks, threaded.stats.swap_checks);
  EXPECT_EQ(serial.stats.trivial_swaps_pruned,
            threaded.stats.trivial_swaps_pruned);
  EXPECT_EQ(serial.stats.levels, threaded.stats.levels);
  EXPECT_EQ(serial.partitions_computed, threaded.partitions_computed);
}

class ParallelRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelRoundTripTest, ThreadedCoverIsBitIdenticalToSerial) {
  NameTable names;
  Parser parser(&names);
  auto parsed = parser.ParseSet(GetParam());
  ASSERT_TRUE(parsed.has_value()) << parser.error();
  const DependencySet& m = *parsed;

  Relation armstrong = armstrong::BuildArmstrongTable(m, m.Attributes());
  engine::Table t = TableFromRelation(armstrong, &names);

  DiscoveryResult serial = DiscoverODs(t);
  DiscoveryOptions threaded_opts;
  threaded_opts.num_threads = 4;
  DiscoveryResult threaded = DiscoverODs(t, threaded_opts);
  ExpectIdentical(serial, threaded);

  // And the threaded cover round-trips against ℳ like the serial one does
  // (prover-verified both directions).
  prover::Prover from_m(m);
  for (const OrderDependency& od : threaded.ods.ods()) {
    EXPECT_TRUE(from_m.Implies(od))
        << "threaded OD not implied by ℳ: " << od.ToString(names);
  }
  prover::Prover from_threaded(threaded.ods);
  for (const OrderDependency& od : m.ods()) {
    EXPECT_TRUE(from_threaded.Implies(od))
        << "ℳ member not implied by threaded cover: " << od.ToString(names);
  }
}

INSTANTIATE_TEST_SUITE_P(SmallTheories, ParallelRoundTripTest,
                         ::testing::Values("[a] -> [b]",
                                           "[a] -> [b]; [b] -> [c]",
                                           "[a] ~ [b]",
                                           "[a] <-> [b]",
                                           "[] -> [k]; [a] -> [b]",
                                           "[a] -> [b, c]",
                                           "[a, b] -> [c]",
                                           "[a] -> [c]; [b] -> [c]"));

/// A wider table with planted structure (mirrors bench_discovery's
/// generator): low-cardinality dimension, a function of it, a per-class
/// co-varying column, and noise.
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

TEST(ParallelDiscoveryTest, PlantedTableMatchesAcrossThreadCounts) {
  engine::Table t = PlantedTable(/*rows=*/500, /*cols=*/6, /*seed=*/7);
  DiscoveryResult serial = DiscoverODs(t);
  for (int threads : {2, 4, 8}) {
    DiscoveryOptions opts;
    opts.num_threads = threads;
    DiscoveryResult threaded = DiscoverODs(t, opts);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectIdentical(serial, threaded);
  }
}

TEST(ParallelDiscoveryTest, BoundedLevelMatchesToo) {
  engine::Table t = PlantedTable(/*rows=*/400, /*cols=*/8, /*seed=*/11);
  DiscoveryOptions serial_opts;
  serial_opts.max_level = 3;
  DiscoveryResult serial = DiscoverODs(t, serial_opts);
  DiscoveryOptions threaded_opts;
  threaded_opts.max_level = 3;
  threaded_opts.num_threads = 4;
  DiscoveryResult threaded = DiscoverODs(t, threaded_opts);
  ExpectIdentical(serial, threaded);
}

TEST(ParallelDiscoveryTest, HardwareConcurrencyRequestWorks) {
  // num_threads = 0 selects hardware concurrency; smoke the path.
  engine::Table t = IntTable({"a", "b"}, {{1, 10}, {2, 20}, {3, 30}});
  DiscoveryResult serial = DiscoverODs(t);
  DiscoveryOptions opts;
  opts.num_threads = 0;
  DiscoveryResult threaded = DiscoverODs(t, opts);
  ExpectIdentical(serial, threaded);
}

}  // namespace
}  // namespace discovery
}  // namespace od
