// The prover's registry instrumentation must be a pure mirror of the
// instance counters: cached implication queries add zero model searches —
// to the instance accessors AND to the process-wide registry — and the
// memo-hit counter moves in lockstep with cache_hits(). Guards against the
// instrumentation ever touching the hot-path semantics.

#include "prover/prover.h"

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "core/parser.h"

namespace od {
namespace prover {
namespace {

DependencySet Parse(NameTable* names, const std::string& text) {
  Parser parser(names);
  auto set = parser.ParseSet(text);
  EXPECT_TRUE(set.has_value()) << parser.error();
  return *set;
}

struct RegistryView {
  int64_t searches;
  int64_t split_refutations;
  int64_t hits;
};

RegistryView ReadRegistry() {
  common::MetricRegistry& reg = common::MetricRegistry::Global();
  return RegistryView{
      reg.GetCounter("od_prover_searches_total").Value(),
      reg.GetCounter("od_prover_split_refutations_total").Value(),
      reg.GetCounter("od_prover_memo_hits_total").Value(),
  };
}

TEST(ProverMetricsTest, CachedPathAddsZeroSearches) {
  NameTable names;
  Prover pv(Parse(&names, "[a] -> [b]; [b] -> [c]"));
  const AttributeId a = names.Lookup("a");
  const AttributeId c = names.Lookup("c");

  // Cold query: one (or more) real searches, instance and registry agree
  // on the delta.
  const RegistryView before_cold = ReadRegistry();
  const int64_t inst_searches_cold = pv.searches_executed();
  EXPECT_TRUE(pv.Implies(AttributeList({a}), AttributeList({c})));
  const int64_t cold_delta = pv.searches_executed() - inst_searches_cold;
  EXPECT_GE(cold_delta, 1);
  EXPECT_EQ(ReadRegistry().searches - before_cold.searches, cold_delta);

  // Warm queries: memo answers, zero searches anywhere, hit counters move
  // in lockstep.
  const RegistryView before_warm = ReadRegistry();
  const int64_t inst_searches_warm = pv.searches_executed();
  const int64_t inst_hits_warm = pv.cache_hits();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(pv.Implies(AttributeList({a}), AttributeList({c})));
  }
  EXPECT_EQ(pv.searches_executed(), inst_searches_warm);
  const RegistryView after_warm = ReadRegistry();
  EXPECT_EQ(after_warm.searches, before_warm.searches);
  const int64_t inst_hit_delta = pv.cache_hits() - inst_hits_warm;
  EXPECT_GE(inst_hit_delta, 5);
  EXPECT_EQ(after_warm.hits - before_warm.hits, inst_hit_delta);
}

TEST(ProverMetricsTest, SplitRefutationsMirrorTheRegistry) {
  NameTable names;
  Prover pv(Parse(&names, "[a] -> [b]"));
  const AttributeId a = names.Lookup("a");
  const AttributeId b = names.Lookup("b");
  // [b] ↦ [a] fails the FD split: one refutation, no search, in the
  // instance and the registry alike.
  const RegistryView before = ReadRegistry();
  EXPECT_FALSE(pv.Implies(AttributeList({b}), AttributeList({a})));
  EXPECT_EQ(pv.split_refutations(), 1);
  EXPECT_EQ(pv.searches_executed(), 0);
  const RegistryView after = ReadRegistry();
  EXPECT_EQ(after.split_refutations - before.split_refutations, 1);
  EXPECT_EQ(after.searches, before.searches);
  // The repeat is a memo hit, not a second refutation.
  EXPECT_FALSE(pv.Implies(AttributeList({b}), AttributeList({a})));
  EXPECT_EQ(pv.split_refutations(), 1);
  EXPECT_EQ(ReadRegistry().split_refutations, after.split_refutations);
}

TEST(ProverMetricsTest, SearchDepthHistogramRecordsUniverseSizes) {
  common::MetricRegistry& reg = common::MetricRegistry::Global();
  common::Histogram& depth = reg.GetHistogram("od_prover_search_depth");
  const int64_t before = depth.Count();
  NameTable names;
  Prover pv(Parse(&names, "[a] -> [b]"));
  const AttributeId a = names.Lookup("a");
  const AttributeId b = names.Lookup("b");
  // A miss the FD split refutes runs no search and records nothing.
  EXPECT_FALSE(pv.Implies(AttributeList({b}), AttributeList({a})));
  EXPECT_EQ(depth.Count(), before);
  // A miss that needs a model search records the universe it branched over.
  EXPECT_TRUE(pv.Implies(AttributeList({a}), AttributeList({b})));
  EXPECT_GT(depth.Count(), before);
}

}  // namespace
}  // namespace prover
}  // namespace od
