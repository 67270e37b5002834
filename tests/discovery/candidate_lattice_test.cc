// Tests for the level-wise candidate lattice: TANE-style split candidate
// maintenance, pair-candidate propagation, the implied/trivial pruning
// rules, and the key-node completeness guarantee. A scripted oracle stands
// in for the partition validators so pruning can be observed directly (a
// pruned candidate is one the oracle is never asked about).

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/thread_pool.h"
#include "discovery/candidate_lattice.h"

namespace od {
namespace discovery {
namespace {

/// Oracle scripted by explicit truth sets, recording every question asked.
class ScriptedOracle : public ValidationOracle {
 public:
  void SetConstancy(const AttributeSet& ctx, AttributeId a) {
    constancies_.insert({ctx.bits(), a});
  }
  void SetCompatibility(const AttributeSet& ctx, AttributeId a,
                        AttributeId b) {
    compatibilities_.insert({ctx.bits(), a, b});
  }

  bool ConstancyHolds(const AttributeSet& ctx, AttributeId a) override {
    constancy_asked_.insert({ctx.bits(), a});
    return constancies_.count({ctx.bits(), a}) > 0;
  }
  bool CompatibilityHolds(const AttributeSet& ctx, AttributeId a,
                          AttributeId b) override {
    compat_asked_.insert({ctx.bits(), a, b});
    return compatibilities_.count({ctx.bits(), a, b}) > 0;
  }

  bool AskedConstancy(const AttributeSet& ctx, AttributeId a) const {
    return constancy_asked_.count({ctx.bits(), a}) > 0;
  }
  bool AskedCompatibility(const AttributeSet& ctx, AttributeId a,
                          AttributeId b) const {
    return compat_asked_.count({ctx.bits(), a, b}) > 0;
  }
  int64_t compat_questions() const {
    return static_cast<int64_t>(compat_asked_.size());
  }

 private:
  std::set<std::tuple<uint64_t, AttributeId>> constancies_;
  std::set<std::tuple<uint64_t, AttributeId, AttributeId>> compatibilities_;
  std::set<std::tuple<uint64_t, AttributeId>> constancy_asked_;
  std::set<std::tuple<uint64_t, AttributeId, AttributeId>> compat_asked_;
};

bool HasConstancy(const LatticeResult& r, const AttributeSet& ctx,
                  AttributeId a) {
  for (const auto& c : r.constancies) {
    if (c.context == ctx && c.attr == a) return true;
  }
  return false;
}

bool HasCompatibility(const LatticeResult& r, const AttributeSet& ctx,
                      AttributeId a, AttributeId b) {
  for (const auto& c : r.compatibilities) {
    if (c.context == ctx && c.a == a && c.b == b) return true;
  }
  return false;
}

TEST(CandidateLatticeTest, ConstantColumnPrunesEverythingAboutIt) {
  // Attribute 0 is a constant column; 1 and 2 are unconstrained.
  ScriptedOracle oracle;
  oracle.SetConstancy(AttributeSet(), 0);
  LatticeResult r = TraverseLattice(3, oracle);

  EXPECT_TRUE(HasConstancy(r, AttributeSet(), 0));
  ASSERT_EQ(r.constancies.size(), 1u);

  // Constant-column pruning: no compatibility question ever mentions 0 —
  // pairs (0, 1) and (0, 2) are trivially compatible via the FD closure.
  EXPECT_FALSE(oracle.AskedCompatibility(AttributeSet(), 0, 1));
  EXPECT_FALSE(oracle.AskedCompatibility(AttributeSet(), 0, 2));
  EXPECT_TRUE(oracle.AskedCompatibility(AttributeSet(), 1, 2));
  EXPECT_GE(r.stats.trivial_swaps_pruned, 2);

  // And no constancy question uses 0 on the right above level 1, nor in a
  // context (TANE C⁺ removal starves descendants of the constant).
  EXPECT_FALSE(oracle.AskedConstancy(AttributeSet({1}), 0));
  EXPECT_FALSE(oracle.AskedConstancy(AttributeSet({1, 2}), 0));
}

TEST(CandidateLatticeTest, ValidatedPairLeavesSupersetCandidates) {
  // ∅: 0 ~ 1 holds; contexts {2}, {3}, {2, 3} for the same pair are implied
  // by augmentation and must not be validated.
  ScriptedOracle oracle;
  oracle.SetCompatibility(AttributeSet(), 0, 1);
  LatticeResult r = TraverseLattice(4, oracle);

  EXPECT_TRUE(HasCompatibility(r, AttributeSet(), 0, 1));
  EXPECT_FALSE(oracle.AskedCompatibility(AttributeSet({2}), 0, 1));
  EXPECT_FALSE(oracle.AskedCompatibility(AttributeSet({3}), 0, 1));
  EXPECT_FALSE(oracle.AskedCompatibility(AttributeSet({2, 3}), 0, 1));
  // Unsettled pairs keep climbing: (0, 2) fails everywhere, so every
  // context is (correctly) probed for it.
  EXPECT_TRUE(oracle.AskedCompatibility(AttributeSet({1, 3}), 0, 2));
}

TEST(CandidateLatticeTest, MinimalFdFoundOncePerRhs) {
  // FD {0} → 1 holds (and nothing else): the miner must report exactly
  // context {0} for attr 1 and never probe the non-minimal {0, 2} → 1.
  ScriptedOracle oracle;
  oracle.SetConstancy(AttributeSet({0}), 1);
  oracle.SetConstancy(AttributeSet({0, 2}), 1);  // holds but not minimal
  LatticeResult r = TraverseLattice(3, oracle);
  EXPECT_TRUE(HasConstancy(r, AttributeSet({0}), 1));
  ASSERT_EQ(r.constancies.size(), 1u);
  EXPECT_FALSE(oracle.AskedConstancy(AttributeSet({0, 2}), 1));
}

TEST(CandidateLatticeTest, KeyContextsPrunedViaClosureNotNodeDeletion) {
  // Attribute 0 is a key: {0} → 1 and {0} → 2. The completeness pitfall:
  // TANE-style deletion of key nodes would remove {0, 1} / {0, 2} and with
  // them the chain to node {0, 1, 2}, silencing the minimal compatibility
  // OD {1}: 0 ~ 2. The traversal must still find it.
  ScriptedOracle oracle;
  oracle.SetConstancy(AttributeSet({0}), 1);
  oracle.SetConstancy(AttributeSet({0}), 2);
  oracle.SetCompatibility(AttributeSet({1}), 0, 2);
  LatticeResult r = TraverseLattice(3, oracle);

  EXPECT_TRUE(HasCompatibility(r, AttributeSet({1}), 0, 2));

  // Key-context pruning still applies where it is sound: the pair (1, 2)
  // at context {0} is trivial (0 is a key, so {0} → 1), never validated.
  EXPECT_FALSE(oracle.AskedCompatibility(AttributeSet({0}), 1, 2));
  EXPECT_GE(r.stats.trivial_swaps_pruned, 1);
}

TEST(CandidateLatticeTest, EachPairValidatedAtMostOncePerContext) {
  // With nothing holding, the miner must ask about every pair at every
  // context exactly once: sum over pairs {a,b} of 2^(n-2) contexts.
  ScriptedOracle oracle;
  LatticeResult r = TraverseLattice(4, oracle);
  // C(4,2) = 6 pairs, 4 contexts each (subsets of the other two attrs).
  EXPECT_EQ(oracle.compat_questions(), 6 * 4);
  EXPECT_EQ(r.stats.swap_checks, 6 * 4);
  EXPECT_TRUE(r.compatibilities.empty());
  EXPECT_TRUE(r.constancies.empty());
}

TEST(CandidateLatticeTest, MaxLevelCapsTraversal) {
  ScriptedOracle oracle;
  LatticeOptions opts;
  opts.max_level = 2;
  LatticeResult r = TraverseLattice(4, oracle, opts);
  EXPECT_EQ(r.stats.levels, 2);
  // Pairs only at context ∅; no level-3 contexts probed.
  EXPECT_EQ(oracle.compat_questions(), 6);
  EXPECT_FALSE(oracle.AskedCompatibility(AttributeSet({2}), 0, 1));
}

/// A deterministic, thread-safe oracle: answers are pure functions of the
/// question (a hash-derived pattern), so serial and parallel traversals can
/// be compared bit for bit without any shared mutable state.
class PureHashOracle : public ValidationOracle {
 public:
  bool ConstancyHolds(const AttributeSet& ctx, AttributeId a) override {
    return Mix(ctx.bits(), a, 0x9e3779b97f4a7c15ull) % 7 == 0;
  }
  bool CompatibilityHolds(const AttributeSet& ctx, AttributeId a,
                          AttributeId b) override {
    return Mix(ctx.bits(), a * 64 + b, 0xbf58476d1ce4e5b9ull) % 3 == 0;
  }

 private:
  static uint64_t Mix(uint64_t bits, uint64_t salt, uint64_t mult) {
    uint64_t x = (bits + 1) * mult + salt;
    x ^= x >> 31;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 29;
    return x;
  }
};

TEST(CandidateLatticeTest, ParallelTraversalIsBitIdenticalToSerial) {
  PureHashOracle serial_oracle;
  LatticeResult serial = TraverseLattice(6, serial_oracle);

  common::ThreadPool pool(4);
  PureHashOracle parallel_oracle;
  LatticeOptions opts;
  opts.pool = &pool;
  LatticeResult parallel = TraverseLattice(6, parallel_oracle, opts);

  ASSERT_EQ(serial.constancies.size(), parallel.constancies.size());
  for (size_t i = 0; i < serial.constancies.size(); ++i) {
    EXPECT_EQ(serial.constancies[i].context, parallel.constancies[i].context);
    EXPECT_EQ(serial.constancies[i].attr, parallel.constancies[i].attr);
  }
  ASSERT_EQ(serial.compatibilities.size(), parallel.compatibilities.size());
  for (size_t i = 0; i < serial.compatibilities.size(); ++i) {
    EXPECT_EQ(serial.compatibilities[i].context,
              parallel.compatibilities[i].context);
    EXPECT_EQ(serial.compatibilities[i].a, parallel.compatibilities[i].a);
    EXPECT_EQ(serial.compatibilities[i].b, parallel.compatibilities[i].b);
  }
  EXPECT_EQ(serial.stats.nodes_visited, parallel.stats.nodes_visited);
  EXPECT_EQ(serial.stats.nodes_dropped, parallel.stats.nodes_dropped);
  EXPECT_EQ(serial.stats.split_checks, parallel.stats.split_checks);
  EXPECT_EQ(serial.stats.swap_checks, parallel.stats.swap_checks);
  EXPECT_EQ(serial.stats.trivial_swaps_pruned,
            parallel.stats.trivial_swaps_pruned);
  EXPECT_EQ(serial.stats.levels, parallel.stats.levels);
}

TEST(CandidateLatticeTest, SingleThreadPoolMatchesNullPool) {
  // A pool of one thread must not change anything either: it answers each
  // level's questions inline, through the same steps as a null pool.
  PureHashOracle a, b;
  common::ThreadPool pool(1);
  LatticeOptions opts;
  opts.pool = &pool;
  LatticeResult with_pool = TraverseLattice(4, a, opts);
  LatticeResult without = TraverseLattice(4, b);
  EXPECT_EQ(with_pool.constancies.size(), without.constancies.size());
  EXPECT_EQ(with_pool.compatibilities.size(), without.compatibilities.size());
  EXPECT_EQ(with_pool.stats.split_checks, without.stats.split_checks);
  EXPECT_EQ(with_pool.stats.swap_checks, without.stats.swap_checks);
}

TEST(CandidateLatticeTest, NodesDroppedWhenAllCandidatesSettle) {
  // Everything at level ≤ 2 validates: all columns mutually compatible and
  // every single-attribute FD holds. Deeper levels have no work left.
  ScriptedOracle oracle;
  for (AttributeId a = 0; a < 3; ++a) {
    for (AttributeId b = 0; b < 3; ++b) {
      if (a != b) {
        AttributeSet ctx({a});
        oracle.SetConstancy(ctx, b);
      }
    }
  }
  for (AttributeId a = 0; a < 3; ++a) {
    for (AttributeId b = a + 1; b < 3; ++b) {
      oracle.SetCompatibility(AttributeSet(), a, b);
    }
  }
  LatticeResult r = TraverseLattice(3, oracle);
  // All three pairs validated at ∅; FDs found at level 2; level 3's only
  // node is never visited because nothing is left open.
  EXPECT_EQ(r.stats.swap_checks, 3);
  EXPECT_LE(r.stats.levels, 3);
  EXPECT_EQ(r.compatibilities.size(), 3u);
}

}  // namespace
}  // namespace discovery
}  // namespace od
