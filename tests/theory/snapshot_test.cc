// Regression suite for the catalog value: `Snapshot()` hands out the
// theory's value itself (same-epoch snapshots are one object), the next
// mutation copies it first so a handed-out value never changes, mutations
// with no `Snapshot()` between them copy nothing, and
// `Theory(std::shared_ptr<const TheorySnapshot>)` adopts a value without
// copying it — continuing the never-reused id sequence once it edits.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "fd/fd_set.h"
#include "theory/theory.h"

namespace od {
namespace theory {
namespace {

AttributeList L(std::initializer_list<AttributeId> attrs) {
  AttributeList list;
  for (AttributeId a : attrs) list = list.Append(a);
  return list;
}

TEST(TheorySnapshotTest, SameEpochSnapshotsAreEqualAndShared) {
  Theory th;
  th.Add(L({0}), L({1}));
  th.Add(L({1, 2}), L({3}));

  auto a = th.Snapshot();
  auto b = th.Snapshot();
  EXPECT_EQ(a.get(), b.get()) << "Snapshot() should hand out the value";
  EXPECT_EQ(&a->deps, &th.deps()) << "Snapshot() copied the value";
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(a->epoch, th.epoch());
  EXPECT_EQ(a->deps.ods(), th.deps().ods());
  EXPECT_EQ(a->ids, th.ids());
}

TEST(TheorySnapshotTest, SnapshotIsUnaffectedByLaterMutations) {
  Theory th;
  const ConstraintId first = th.Add(L({0}), L({1}));
  th.Add(L({1}), L({2}));

  auto snap = th.Snapshot();
  const TheorySnapshot before = *snap;  // deep value copy for comparison

  // Churn the source: add, remove, re-add.
  th.Add(L({2}), L({0, 3}));
  th.Remove(first);
  th.Add(L({0}), L({1}));

  EXPECT_EQ(*snap, before) << "a mutation wrote into a handed-out value";
  EXPECT_NE(&th.deps(), &snap->deps);
  EXPECT_NE(snap->epoch, th.epoch());
  EXPECT_NE(snap->deps.ods(), th.deps().ods());

  // A fresh snapshot reflects the new state and is a distinct object.
  auto after = th.Snapshot();
  EXPECT_NE(after.get(), snap.get());
  EXPECT_NE(*after, *snap);
  EXPECT_EQ(after->epoch, th.epoch());
}

TEST(TheorySnapshotTest, MutationsWithoutSnapshotCopyNothing) {
  Theory th;
  th.Add(L({0}), L({1}));
  const DependencySet* deps = &th.deps();
  const ConstraintId second = th.Add(L({1}), L({2}));
  th.Remove(second);
  EXPECT_EQ(&th.deps(), deps) << "an unshared value was copied";

  // Only the first edit after a Snapshot() copies; the next ones edit the
  // copy in place.
  auto snap = th.Snapshot();
  th.Add(L({2}), L({3}));
  const DependencySet* copy = &th.deps();
  EXPECT_NE(copy, &snap->deps);
  th.Add(L({3}), L({4}));
  EXPECT_EQ(&th.deps(), copy);
}

TEST(TheorySnapshotTest, CopyKeepsOneSpareSlotForTheNextAdd) {
  // An exact copy would double its vectors on the Add that follows it, and
  // the next handed-out value would keep that doubled capacity.
  Theory th;
  for (int i = 0; i < 20; ++i) th.Add(L({i}), L({i + 1}));
  auto snap = th.Snapshot();
  th.Add(L({30}), L({31}));
  const size_t size = th.ids().size();
  EXPECT_LE(th.ids().capacity(), size + 1);
  EXPECT_LE(th.deps().ods().capacity(), size + 1);
  EXPECT_LE(th.fd_projection().fds().capacity(), size + 1);
}

TEST(TheorySnapshotTest, AdoptedReplicaSharesTheValue) {
  DependencySet seed;
  seed.Add(OrderDependency(L({0}), L({1})));
  seed.Add(OrderDependency(L({1}), L({2, 3})));
  Theory th(seed);
  th.Add(L({3}), L({4}));
  th.Remove(th.ids().front());

  auto snap = th.Snapshot();
  Theory replica(snap);

  EXPECT_EQ(&replica.deps(), &snap->deps) << "adoption copied the value";
  EXPECT_EQ(&replica.fd_projection(), &snap->fd_projection);
  EXPECT_EQ(&replica.ids(), &snap->ids);
  EXPECT_EQ(replica.Snapshot().get(), snap.get());
  EXPECT_EQ(replica.epoch(), th.epoch());
  EXPECT_EQ(replica.deps().ods(), th.deps().ods());
  EXPECT_EQ(replica.fd_projection(), th.fd_projection());
  EXPECT_EQ(replica.ids(), th.ids());
  EXPECT_EQ(replica.attributes(), th.attributes());
}

TEST(TheorySnapshotTest, AdoptedReplicaCopiesAndContinuesIdAndEpochSequence) {
  Theory th;
  th.Add(L({0}), L({1}));
  th.Add(L({1}), L({2}));
  auto snap = th.Snapshot();
  const TheorySnapshot before = *snap;
  Theory replica(snap);

  // Identical next mutation on both sides mints the same id and epoch, and
  // neither writes into the value they both started from.
  const ConstraintId id_src = th.Add(L({2}), L({0}));
  const ConstraintId id_rep = replica.Add(L({2}), L({0}));
  EXPECT_EQ(id_rep, id_src);
  EXPECT_EQ(replica.epoch(), th.epoch());
  EXPECT_NE(&replica.deps(), &snap->deps);
  EXPECT_EQ(*snap, before);
  EXPECT_EQ(*replica.Snapshot(), *th.Snapshot());
}

TEST(TheorySnapshotTest, TwoTheoriesSameScriptSnapshotEqual) {
  auto run = [] {
    Theory th;
    ConstraintId a = th.Add(L({0}), L({1}));
    th.Add(L({1, 2}), L({3}));
    th.Remove(a);
    th.Add(L({3}), L({0}));
    return th.Snapshot();
  };
  auto s1 = run();
  auto s2 = run();
  EXPECT_EQ(*s1, *s2);
}

TEST(TheorySnapshotTest, AttributeUniverseShrinksButSnapshotKeepsIt) {
  Theory th;
  const ConstraintId only = th.Add(L({5}), L({7}));
  th.Add(L({5}), L({6}));
  auto snap = th.Snapshot();
  th.Remove(only);
  EXPECT_EQ(th.attributes(), AttributeSet({5, 6}));
  EXPECT_TRUE(snap->attributes.Contains(7));
  th.RemoveOne(OrderDependency(L({5}), L({6})));
  EXPECT_TRUE(th.attributes().IsEmpty());
  EXPECT_TRUE(snap->attributes.Contains(5));
}

TEST(TheorySnapshotTest, ReadersOfHandedOverValuesSeeThemFrozen) {
  // The writer keeps editing while reader threads compare every value it
  // hands over against a deep copy taken at hand-over. A write into a
  // handed-out value fails the comparison, and TSan reports it as a race.
  struct HandOver {
    std::shared_ptr<const TheorySnapshot> value;
    std::shared_ptr<const TheorySnapshot> copy;
  };
  std::mutex slot_mu;
  HandOver slot;
  // The epoch of the writer's last hand-over; 0 while it is still writing.
  std::atomic<uint64_t> last_epoch{0};
  std::atomic<int64_t> checks{0};

  auto read = [&] {
    uint64_t seen = 0;
    for (;;) {
      HandOver got;
      {
        std::lock_guard<std::mutex> lock(slot_mu);
        got = slot;
      }
      if (got.value != nullptr && got.value->epoch != seen) {
        seen = got.value->epoch;
        EXPECT_EQ(*got.value, *got.copy);
        EXPECT_EQ(got.value->fd_projection,
                  fd::FdProjection(got.value->deps));
        EXPECT_EQ(got.value->attributes, got.value->deps.Attributes());
        checks.fetch_add(1);
      }
      const uint64_t last = last_epoch.load();
      if (last != 0 && seen == last) return;
      std::this_thread::yield();
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) readers.emplace_back(read);

  Theory th;
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> attr(0, 9);
  auto hand_over = [&] {
    auto value = th.Snapshot();
    auto copy = std::make_shared<const TheorySnapshot>(*value);
    std::lock_guard<std::mutex> lock(slot_mu);
    slot = HandOver{std::move(value), std::move(copy)};
  };
  for (int step = 0; step < 600; ++step) {
    if (th.Size() > 8 && rng() % 2 == 0) {
      th.Remove(th.ids()[rng() % th.ids().size()]);
    } else {
      const AttributeId lhs = attr(rng);
      const AttributeId rhs = attr(rng);
      th.Add(L({lhs}), L({rhs, (lhs + rhs) % 10}));
    }
    if (step % 3 == 0) hand_over();
  }
  hand_over();
  last_epoch.store(th.epoch());
  for (auto& t : readers) t.join();
  EXPECT_GE(checks.load(), 3);  // every reader checked the last value
}

}  // namespace
}  // namespace theory
}  // namespace od
