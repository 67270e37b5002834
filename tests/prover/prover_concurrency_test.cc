// Concurrency tests for the prover: one shared Prover hammered from many
// threads with overlapping queries must return exactly the answers a serial
// run produces, and ProveAll must be positionally bit-identical to a serial
// loop. Run under -DOD_SANITIZE=thread these exercise the sharded memo and
// the atomic search counter for data races.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/parser.h"
#include "prover/closure.h"
#include "prover/prover.h"

namespace od {
namespace prover {
namespace {

DependencySet Parse(NameTable* names, const std::string& text) {
  Parser parser(names);
  auto set = parser.ParseSet(text);
  EXPECT_TRUE(set.has_value()) << parser.error();
  return *set;
}

/// Every list-vs-list query over `universe` with lists of up to
/// `max_length` attributes — a dense, overlapping workload with plenty of
/// duplicate cache keys once threads race.
std::vector<OrderDependency> AllQueries(const AttributeSet& universe,
                                        int max_length) {
  std::vector<OrderDependency> queries;
  const auto lists = EnumerateLists(universe, max_length);
  for (const auto& lhs : lists) {
    for (const auto& rhs : lists) {
      queries.emplace_back(lhs, rhs);
    }
  }
  return queries;
}

class ProverConcurrencyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ProverConcurrencyTest, HammeredProverMatchesSerial) {
  NameTable names;
  DependencySet m = Parse(&names, GetParam());
  const std::vector<OrderDependency> queries = AllQueries(m.Attributes(), 2);
  ASSERT_FALSE(queries.empty());

  // Ground truth from a serial prover.
  Prover serial(m);
  std::vector<bool> expected;
  expected.reserve(queries.size());
  for (const auto& q : queries) expected.push_back(serial.Implies(q));

  // One shared prover, N threads, each walking the same queries in a
  // different shuffled order so cache hits, misses, and racing duplicates
  // all occur.
  Prover shared(m);
  constexpr int kThreads = 8;
  std::vector<std::vector<char>> got(kThreads,
                                     std::vector<char>(queries.size(), 0));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<size_t> order(queries.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::mt19937 rng(1234 + t);
      std::shuffle(order.begin(), order.end(), rng);
      for (size_t i : order) {
        got[t][i] = shared.Implies(queries[i]) ? 1 : 0;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < queries.size(); ++i) {
      if ((got[t][i] != 0) != expected[i]) mismatches.fetch_add(1);
    }
  }
  EXPECT_EQ(mismatches.load(), 0);
  // Duplicate races may re-run a search, but never more than once per
  // thread per distinct query — and the serial count is a lower bound.
  // The same holds for the misses the FD split refutes.
  EXPECT_GE(shared.searches_executed(), serial.searches_executed());
  EXPECT_LE(shared.searches_executed(), serial.searches_executed() * kThreads);
  EXPECT_GE(shared.split_refutations(), serial.split_refutations());
  EXPECT_LE(shared.split_refutations(),
            serial.split_refutations() * kThreads);
}

TEST_P(ProverConcurrencyTest, ProveAllMatchesSerialLoop) {
  NameTable names;
  DependencySet m = Parse(&names, GetParam());
  const std::vector<OrderDependency> queries = AllQueries(m.Attributes(), 2);

  Prover serial(m);
  std::vector<bool> expected;
  for (const auto& q : queries) expected.push_back(serial.Implies(q));

  common::ThreadPool pool(4);
  Prover batched(m);
  const std::vector<bool> got = batched.ProveAll(queries, &pool);
  EXPECT_EQ(got, expected);

  // The serial fallback (no pool) agrees too, on a warm cache.
  EXPECT_EQ(batched.ProveAll(queries, nullptr), expected);
}

INSTANTIATE_TEST_SUITE_P(
    SmallTheories, ProverConcurrencyTest,
    ::testing::Values("[a] -> [b]; [b] -> [c]",
                      "[a] ~ [b]; [b] -> [c]",
                      "[] -> [k]; [a] -> [b]",
                      "[a] -> [b, c]; [c] -> [a]"));

TEST(ProverConcurrencyTest, ConcurrentCounterexamplesAndConstants) {
  // Mixed query kinds in flight at once: Implies, Counterexample (which
  // writes the memo too), and IsConstant (which seeds it via the FD path).
  NameTable names;
  DependencySet m = Parse(&names, "[] -> [k]; [a] -> [b]; [b] -> [c]");
  Prover shared(m);
  const AttributeId a = names.Lookup("a");
  const AttributeId c = names.Lookup("c");
  const OrderDependency implied(AttributeList({a}), AttributeList({c}));
  const OrderDependency refuted(AttributeList({c}), AttributeList({a}));

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 10; ++round) {
        switch ((t + round) % 4) {
          case 0:
            if (!shared.Implies(implied)) errors.fetch_add(1);
            break;
          case 1:
            if (shared.Counterexample(implied).has_value()) errors.fetch_add(1);
            break;
          case 2:
            if (!shared.Counterexample(refuted).has_value()) errors.fetch_add(1);
            break;
          case 3:
            if (!shared.IsConstant(names.Lookup("k")) || shared.IsConstant(a)) {
              errors.fetch_add(1);
            }
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
}

}  // namespace
}  // namespace prover
}  // namespace od
