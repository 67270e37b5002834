// The FD split step of Prover's miss path, cross-checked on random
// catalogs shaped like perfbench's implies_churn (24 ODs over 16
// attributes, lists 1-3 long). Every answer must agree with the exact
// two-row search over the full catalog, which the split step does not
// touch. A miss takes the split route exactly when the FD set(X) → set(Y)
// fails (Theorems 13 and 15): it then runs no search, and its stored
// countermodel must satisfy ℳ and falsify the query.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "core/witness.h"
#include "fd/fd_set.h"
#include "prover/prover.h"
#include "prover/two_row_model.h"

namespace od {
namespace prover {
namespace {

constexpr int kAttributes = 16;
constexpr int kCatalogOds = 24;
constexpr int kQueries = 300;

/// A random OD whose two lists are 1-3 distinct attributes of
/// [0, kAttributes).
OrderDependency RandomOd(std::mt19937& rng) {
  auto list = [&] {
    std::uniform_int_distribution<int> len(1, 3);
    std::vector<AttributeId> attrs;
    const int n = len(rng);
    while (static_cast<int>(attrs.size()) < n) {
      const auto a = static_cast<AttributeId>(rng() % kAttributes);
      if (std::find(attrs.begin(), attrs.end(), a) == attrs.end()) {
        attrs.push_back(a);
      }
    }
    return AttributeList(attrs);
  };
  AttributeList lhs = list();
  AttributeList rhs = list();
  return OrderDependency(std::move(lhs), std::move(rhs));
}

class SplitRefutationTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SplitRefutationTest, AgreesWithTheSearchAndCertifiesEveryRefutation) {
  std::mt19937 rng(GetParam());
  DependencySet m;
  for (int i = 0; i < kCatalogOds; ++i) m.Add(RandomOd(rng));
  const fd::FdSet fds = fd::FdProjection(m);
  Prover pv(m);

  std::set<OrderDependency> asked;
  int refuted = 0;
  int searched = 0;
  for (int i = 0; i < kQueries; ++i) {
    const OrderDependency q = RandomOd(rng);
    if (!asked.insert(q).second) continue;  // a repeat is a memo hit
    const int64_t searches = pv.searches_executed();
    const int64_t splits = pv.split_refutations();
    const bool implied = pv.Implies(q);
    const bool exact = !FindFalsifyingModel(
                            m, q, m.Attributes().Union(q.Attributes()))
                            .has_value();
    EXPECT_EQ(implied, exact) << q.ToString();

    if (fds.Implies(q.lhs.ToSet(), q.rhs.ToSet())) {
      ++searched;
      EXPECT_EQ(pv.searches_executed(), searches + 1) << q.ToString();
      EXPECT_EQ(pv.split_refutations(), splits) << q.ToString();
      continue;
    }
    ++refuted;
    EXPECT_FALSE(implied) << q.ToString();
    EXPECT_EQ(pv.searches_executed(), searches) << q.ToString();
    EXPECT_EQ(pv.split_refutations(), splits + 1) << q.ToString();
    const std::optional<Relation> cex = pv.Counterexample(q);
    ASSERT_TRUE(cex.has_value()) << q.ToString();
    EXPECT_TRUE(Satisfies(*cex, m)) << q.ToString() << "\n"
                                    << cex->ToString();
    EXPECT_FALSE(Satisfies(*cex, q)) << q.ToString() << "\n"
                                     << cex->ToString();
  }
  // Both routes are exercised on every catalog.
  EXPECT_GT(refuted, 0);
  EXPECT_GT(searched, 0);
}

INSTANTIATE_TEST_SUITE_P(ChurnShapedCatalogs, SplitRefutationTest,
                         ::testing::Values(8u, 9u, 10u, 11u, 12u));

}  // namespace
}  // namespace prover
}  // namespace od
