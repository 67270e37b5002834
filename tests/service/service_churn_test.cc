// Randomized differential churn suite — the snapshot-isolation soundness
// gate for the multi-tenant service. N session threads issue Implies /
// ProveAll / Counterexample / Refresh against their pinned snapshots while
// a writer thread drives Add/Remove sweeps through Server::Apply. Every
// answer a session observes is recorded with its pinned epoch; afterwards
// the full mutation history is replayed into fresh single-threaded provers
// at each recorded epoch and every recorded bit must match. Any torn
// snapshot, unsound memo retention, or misread epoch window shows up as a
// divergence. Sized to run under TSan and ASan in CI
// (see .github/workflows).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/witness.h"
#include "service/service.h"
#include "theory/theory.h"

namespace od {
namespace service {
namespace {

OrderDependency RandomOd(std::mt19937& rng, int num_attrs) {
  std::uniform_int_distribution<int> attr(0, num_attrs - 1);
  std::uniform_int_distribution<int> len(0, 2);
  auto random_list = [&](int min_len) {
    AttributeList list;
    const int k = std::max(min_len, len(rng));
    for (int i = 0; i < k; ++i) list = list.Append(attr(rng));
    return list.RemoveDuplicates();
  };
  return OrderDependency(random_list(0), random_list(1));
}

/// One observed (epoch, query, answer) triple from a session thread.
struct Observation {
  uint64_t epoch;
  OrderDependency query;
  bool answer;
};

/// The writer's side of the ledger: the catalog (as a plain DependencySet)
/// at every epoch it published. Epochs advance deterministically (+1 per
/// successful mutation), so recording the post-sweep state per epoch is
/// enough to rebuild a reference prover at any pinned version.
class CatalogHistory {
 public:
  void Record(uint64_t epoch, DependencySet deps) {
    std::lock_guard<std::mutex> lock(mu_);
    by_epoch_.emplace(epoch, std::move(deps));
  }
  const DependencySet& At(uint64_t epoch) const {
    auto it = by_epoch_.find(epoch);
    EXPECT_TRUE(it != by_epoch_.end()) << "unknown epoch " << epoch;
    return it->second;
  }

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, DependencySet> by_epoch_;
};

void RunChurn(Server& server, const std::string& tenant, uint32_t seed,
              int num_attrs, int reader_threads, int writer_sweeps,
              int queries_per_reader) {
  server.CreateTenant(tenant);

  CatalogHistory history;
  // Seed the catalog and record the initial published epoch.
  {
    std::mt19937 rng(seed);
    std::vector<Mutation> seed_adds;
    for (int i = 0; i < 3; ++i) {
      seed_adds.push_back(Mutation::Add(RandomOd(rng, num_attrs)));
    }
    server.Apply(tenant, seed_adds);
  }
  history.Record(server.PublishedEpoch(tenant),
                 server.Catalog(tenant)->deps);

  // Writer: random Add/Remove sweeps, recording each published catalog.
  std::thread writer([&] {
    std::mt19937 rng(seed * 7919 + 1);
    std::bernoulli_distribution add_coin(0.6);
    std::uniform_int_distribution<int> sweep_len(1, 3);
    for (int s = 0; s < writer_sweeps; ++s) {
      std::vector<Mutation> sweep;
      const auto catalog = server.Catalog(tenant);
      std::vector<theory::ConstraintId> live = catalog->ids;
      const int n = sweep_len(rng);
      for (int i = 0; i < n; ++i) {
        if (live.empty() || add_coin(rng)) {
          sweep.push_back(Mutation::Add(RandomOd(rng, num_attrs)));
        } else {
          std::uniform_int_distribution<int> pick(
              0, static_cast<int>(live.size()) - 1);
          const size_t idx = static_cast<size_t>(pick(rng));
          sweep.push_back(Mutation::Remove(live[idx]));
          live.erase(live.begin() + static_cast<long>(idx));
        }
      }
      server.Apply(tenant, sweep);
      history.Record(server.PublishedEpoch(tenant),
                     server.Catalog(tenant)->deps);
      std::this_thread::yield();
    }
  });

  // Readers: pinned sessions issuing queries, refreshing occasionally —
  // except reader 0, which never refreshes: once the writer moves on, its
  // answers are stored behind the memo head, racing the writer's sweeps.
  std::vector<std::vector<Observation>> observed(
      static_cast<size_t>(reader_threads));
  std::vector<std::thread> readers;
  readers.reserve(static_cast<size_t>(reader_threads));
  for (int t = 0; t < reader_threads; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937 rng(seed * 104729 + static_cast<uint32_t>(t));
      std::bernoulli_distribution refresh_coin(0.15);
      std::bernoulli_distribution batch_coin(0.3);
      Session session = server.OpenSession(tenant);
      auto& log = observed[static_cast<size_t>(t)];
      for (int q = 0; q < queries_per_reader; ++q) {
        if (refresh_coin(rng) && t != 0) session.Refresh();
        const uint64_t epoch = session.epoch();
        if (batch_coin(rng)) {
          std::vector<OrderDependency> batch;
          for (int i = 0; i < 4; ++i) batch.push_back(RandomOd(rng, num_attrs));
          const std::vector<bool> answers = session.ProveAll(batch);
          for (size_t i = 0; i < batch.size(); ++i) {
            log.push_back(Observation{epoch, batch[i], answers[i]});
          }
        } else {
          const OrderDependency query = RandomOd(rng, num_attrs);
          const bool answer = session.Implies(query);
          log.push_back(Observation{epoch, query, answer});
          if (!answer) {
            // A counterexample must exist and genuinely falsify the query
            // under the session's pinned catalog.
            auto cex = session.Counterexample(query);
            if (!cex.has_value()) {
              ADD_FAILURE() << "missing counterexample at epoch " << epoch;
            } else {
              EXPECT_TRUE(Satisfies(*cex, session.snapshot().deps));
              EXPECT_FALSE(Satisfies(*cex, query));
            }
          }
        }
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();

  // Replay: every recorded answer must be bit-identical to a fresh
  // single-threaded prover built on the catalog at the pinned epoch.
  int64_t checked = 0;
  std::map<uint64_t, std::unique_ptr<prover::Prover>> reference;
  for (const auto& log : observed) {
    for (const Observation& ob : log) {
      auto it = reference.find(ob.epoch);
      if (it == reference.end()) {
        it = reference
                 .emplace(ob.epoch,
                          std::make_unique<prover::Prover>(history.At(ob.epoch)))
                 .first;
      }
      const bool expected = it->second->Implies(ob.query);
      if (ob.answer != expected) {
        ADD_FAILURE() << "divergence at epoch " << ob.epoch << " (seed "
                      << seed << ") for " << ob.query.ToString() << ": got "
                      << ob.answer << ", fresh prover says " << expected
                      << " over ℳ:\n"
                      << history.At(ob.epoch).ToString();
        return;
      }
      ++checked;
    }
  }
  EXPECT_GE(checked, reader_threads * queries_per_reader);
}

TEST(ServiceChurnTest, DifferentialUnderConcurrentChurnSerialSweeps) {
  for (uint32_t seed = 1; seed <= 3; ++seed) {
    Server server;
    RunChurn(server, "churn", seed, /*num_attrs=*/5, /*reader_threads=*/4,
             /*writer_sweeps=*/24, /*queries_per_reader=*/48);
  }
}

TEST(ServiceChurnTest, DifferentialUnderConcurrentChurnPooledSweeps) {
  common::ThreadPool pool(4);
  for (uint32_t seed = 11; seed <= 12; ++seed) {
    Server server(ServerOptions{&pool});
    RunChurn(server, "churn", seed, /*num_attrs=*/6, /*reader_threads=*/6,
             /*writer_sweeps=*/16, /*queries_per_reader=*/32);
  }
}

TEST(ServiceChurnTest, MultiTenantChurnIsolated) {
  // Two tenants on ONE server, each with its own writer + readers running
  // concurrently — the per-tenant differential check must hold for both
  // (any cross-tenant bleed of catalogs or memos shows up as a
  // divergence).
  common::ThreadPool pool(2);
  Server server(ServerOptions{&pool});
  std::thread a([&] {
    RunChurn(server, "tenant-a", 21, /*num_attrs=*/4, /*reader_threads=*/2,
             /*writer_sweeps=*/12, /*queries_per_reader=*/24);
  });
  std::thread b([&] {
    RunChurn(server, "tenant-b", 22, /*num_attrs=*/4, /*reader_threads=*/2,
             /*writer_sweeps=*/12, /*queries_per_reader=*/24);
  });
  a.join();
  b.join();
}

}  // namespace
}  // namespace service
}  // namespace od
