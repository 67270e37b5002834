#ifndef OD_PROVER_PROVER_H_
#define OD_PROVER_PROVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/dependency.h"
#include "core/relation.h"
#include "fd/fd_set.h"
#include "prover/two_row_model.h"
#include "theory/theory.h"

namespace od {

namespace common {
class ThreadPool;
}  // namespace common

namespace prover {

/// The "theorem prover" the paper lists as its first future-work item:
/// given a set of prescribed ODs ℳ and an arbitrary dependency X ↦ Y,
/// efficiently decide whether ℳ logically implies X ↦ Y.
///
/// Decision procedure (exact), on a memo miss: first the split step, then
/// the two-row model search (see two_row_model.h). X ↦ Y holds only if the
/// FD set(X) → set(Y) does (Theorems 13 and 15), which one closure over the
/// FD projection decides in polynomial time (Theorem 16). A query that
/// fails it is refuted with Lemma 10's split block as its countermodel; a
/// query with X = [] is decided by it outright. Only the queries the split
/// leaves open pay for the exponential-but-pruned model search.
///
/// ## Versioned theories and incremental re-proving
///
/// The prover reasons over a `theory::Theory` — a *mutable*, versioned
/// catalog — rather than a frozen constructor copy of ℳ. It subscribes to
/// the theory's change feed and keeps its memo consistent across catalog
/// edits with monotonicity-aware retention instead of wholesale flushes:
///
///   * `Add(c)`: implication is monotone in ℳ (more constraints can only
///     imply more), so every cached POSITIVE answer ("implied") stays
///     sound and is retained. A cached NEGATIVE answer is retained iff its
///     stored falsifying two-row model still satisfies `c` (the model then
///     remains a countermodel under ℳ ∪ {c}); otherwise it is evicted —
///     the answer may genuinely flip.
///   * `Remove(c)`: dually, every cached NEGATIVE answer stays sound (its
///     falsifying model still satisfies the smaller ℳ) and is retained;
///     POSITIVE answers are evicted — *unless* the entry's recorded
///     support set (the constraints the model search actually used to
///     reject candidate models, a certificate that those constraints alone
///     imply the answer; see FindFalsifyingModel) excludes `c`, in which
///     case the positive answer provably survives and is kept.
///
/// Stored countermodels are implicitly zero-extended: an attribute the
/// model never assigned compares equal across its two rows, which is a
/// valid completion, so certificates stay checkable as the attribute
/// universe grows.
///
/// ## The memo and its epoch windows
///
/// Every entry carries the window of theory epochs it holds at: it was
/// derived at `epoch` and holds for every epoch in [epoch, end). A prover
/// at epoch e uses an entry only when the window covers e. The memo also
/// tracks a head: the epoch of the theory whose change feed sweeps it. An
/// answer stored at the head is open-ended — the sweeps above keep it
/// sound as the head moves, and evict it when its certificate fails. An
/// answer stored by a replica pinned behind the head (see the replica
/// constructor) ends at its epoch + 1: no sweep ever checked it against a
/// later catalog. Each sweep advances the head *before* it visits the
/// shards, and stores read the head under the shard lock, so a store
/// either lands before the sweep reaches its shard (and is checked) or
/// sees the new head (and is closed); none slips past.
///
/// A sweep looks only at the entries its edit can reach. Each shard
/// indexes its open-ended entries by certificate: negatives under every
/// attribute their countermodel orders (two rows that agree on all of Y
/// satisfy any X ↦ Y, so `Add(c)` can only break a countermodel ordering
/// an attribute of c's right side), positives under every constraint id
/// their support names (`Remove(c)` evicts exactly those). Entries stored
/// behind the head sit on a per-shard list the next sweep drops.
///
/// ## Ownership
///
/// The prover holds a shared_ptr to its theory and registers a change
/// listener for its own lifetime (unsubscribed in the destructor); a
/// Prover is neither copyable nor movable. Many provers may share one
/// theory, each with its own memo. The `Prover(DependencySet)` convenience
/// constructor wraps the set in a private single-owner theory for the
/// common frozen-catalog use. A replica prover instead shares the memo of
/// the prover it was made from, holding it by shared_ptr (the memo lives
/// as long as any prover using it), and subscribes to nothing.
///
/// ## Thread safety
///
/// All query methods are safe to call concurrently on one Prover instance.
/// The memo is an unordered_map striped across shared-mutex shards keyed
/// by OrderDependencyHash — lookups take a shard in shared mode,
/// insertions (which also update the shard's index) and sweeps in
/// exclusive mode — and the stats counters are atomic (they
/// count this prover's own queries, also when the memo is shared). Model
/// searches run outside any lock, so two threads racing on the same fresh
/// query may both execute the search; they compute the same answer (the
/// procedure is deterministic) and `searches_executed()` then counts both,
/// i.e. it reports searches *executed*, which under concurrent duplicates
/// can exceed the number of distinct queries. Theory MUTATIONS are the
/// exception: `Theory::Add`/`Remove` must not race with queries on any
/// prover attached to that theory — mutate between query batches (see
/// docs/theory.md). Replicas of an owner are the exception to that rule:
/// their theories are frozen, so they may query the shared memo while the
/// owner's theory mutates and its sweeps run. Construction and destruction
/// are not concurrent-safe with queries on the same instance, as usual.
class Prover {
 public:
  /// Attaches to a shared, mutable catalog; the prover tracks every
  /// subsequent Add/Remove through the theory's change feed.
  explicit Prover(std::shared_ptr<theory::Theory> theory);
  /// Convenience for a frozen catalog: wraps `m` in a private theory.
  explicit Prover(DependencySet m);
  /// Snapshot-backed construction: proves against a private theory over
  /// a copy of `snapshot` (same constraints, stable ids, and epoch) with a
  /// memo of its own. The theory is reachable via shared_theory() but must
  /// never be mutated while queries run, as usual; the snapshot itself is
  /// only read during construction.
  explicit Prover(const theory::TheorySnapshot& snapshot);
  /// A replica of `owner` at `snapshot`'s epoch that adopts the value and
  /// shares `owner`'s memo, copying neither: the epoch windows keep each
  /// answer to the epochs it holds at, so replicas pinned at different
  /// epochs read and feed one memo, and the owner's sweeps keep it sound.
  /// PRECONDITION: `snapshot` was taken from owner's theory, at owner's
  /// epoch or before (replica ids and epochs must name the same catalog
  /// states as the owner's), and the replica's theory is never mutated —
  /// it does not subscribe to it.
  Prover(std::shared_ptr<const theory::TheorySnapshot> snapshot,
         const Prover& owner);
  ~Prover();

  Prover(const Prover&) = delete;
  Prover& operator=(const Prover&) = delete;

  const theory::Theory& theory() const { return *theory_; }
  const std::shared_ptr<theory::Theory>& shared_theory() const {
    return theory_;
  }
  /// The theory's current version (see Theory::epoch).
  uint64_t epoch() const { return theory_->epoch(); }

  const DependencySet& deps() const { return theory_->deps(); }
  const fd::FdSet& fd_projection() const { return theory_->fd_projection(); }

  /// ℳ ⊨ X ↦ Y.
  bool Implies(const OrderDependency& dep) const;
  bool Implies(const AttributeList& lhs, const AttributeList& rhs) const;

  /// The memoized answer for `dep`, if one holds at this prover's epoch —
  /// never runs a model search. A hit counts toward cache_hits(): it
  /// answered the query. This is the service layer's fast path (a hit
  /// answers a session without opening a profiled request); one
  /// shared-lock map lookup.
  std::optional<bool> CachedImplies(const OrderDependency& dep) const;

  /// Batch form of Implies: answers every query through common::ParallelFor,
  /// fanning the model searches across `pool` (inline when it is null).
  /// Results are positionally aligned with `deps` and bit-identical to
  /// asking serially.
  std::vector<bool> ProveAll(const std::vector<OrderDependency>& deps,
                             common::ThreadPool* pool = nullptr) const;

  /// ℳ ⊨ X ↔ Y.
  bool OrderEquivalent(const AttributeList& x, const AttributeList& y) const;

  /// ℳ ⊨ X ~ Y (Definition 5: XY ↔ YX).
  bool OrderCompatible(const AttributeList& x, const AttributeList& y) const;

  /// ℳ ⊨ set(lhs) → set(rhs) — the functional-dependency consequence,
  /// decided in polynomial time via attribute-set closure.
  bool ImpliesFd(const AttributeSet& lhs, const AttributeSet& rhs) const;

  /// ℳ ⊨ [] ↦ [a] (Definition 18: `a` is a constant): Implies on that
  /// query, which the split step decides without a model search.
  bool IsConstant(AttributeId a) const;
  /// All constant attributes among those mentioned in ℳ.
  AttributeSet Constants() const;

  /// A two-row relation satisfying ℳ and falsifying `dep`, if ℳ ⊭ dep.
  /// Shares the memo probe and the miss path with Implies: a cached
  /// "implied" answers nullopt and a cached "not implied" materializes the
  /// stored countermodel (the memo sweeps guarantee it is still a
  /// countermodel for the *current* ℳ), both without a search; a cold query
  /// takes the split step and search Implies would and returns the
  /// countermodel it stored (a split block if the split refuted it).
  /// The relation is zero-extended to the current attribute universe, so
  /// it satisfies every live constraint even ones declared after the model
  /// was first derived.
  std::optional<Relation> Counterexample(const OrderDependency& dep) const;

  /// ## Statistics
  ///
  /// `searches_executed()` counts model searches actually run: the memo
  /// misses the split step left open. `split_refutations()` counts the
  /// misses the split step refuted without one. `cache_hits()` counts
  /// queries answered from the memo. A miss with X = [] is decided by the
  /// split step and counts in neither miss counter when implied. Under
  /// concurrent duplicate queries, misses may exceed the number of distinct
  /// queries (see class comment).
  int64_t searches_executed() const {
    return searches_executed_.load(std::memory_order_relaxed);
  }
  int64_t split_refutations() const {
    return split_refutations_.load(std::memory_order_relaxed);
  }
  int64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  /// Memo entries evicted by catalog changes since construction (or the
  /// last ResetStats), and entries that *survived* a change only thanks to
  /// their certificate — positives whose support set excluded a removed
  /// constraint, negatives whose countermodel satisfied an added one. The
  /// direct measure of incremental retention for churn benchmarks.
  int64_t entries_invalidated() const {
    return entries_invalidated_.load(std::memory_order_relaxed);
  }
  int64_t entries_retained() const {
    return entries_retained_.load(std::memory_order_relaxed);
  }
  /// Zeroes all counters above (not the memo). Not concurrent-safe with
  /// in-flight queries that are mid-update, but safe between batches.
  void ResetStats();

  /// Entries the most recent sweep left open-ended at the new epoch: every
  /// answer that held at the old head and passed its certificate check —
  /// what a fresh replica at the new epoch inherits. 0 before any sweep.
  int64_t last_sweep_kept() const {
    return last_sweep_kept_.load(std::memory_order_relaxed);
  }
  /// Open-ended entries the most recent sweep looked at: for an Add, the
  /// negatives whose countermodel orders an attribute of its right side;
  /// for a Remove, the positives whose support names it. What a sweep
  /// costs, as against last_sweep_kept(). 0 before any sweep.
  int64_t last_sweep_reached() const {
    return last_sweep_reached_.load(std::memory_order_relaxed);
  }

  /// Number of entries currently memoized, over every epoch window (takes
  /// every shard lock; meant for tests and diagnostics, not hot paths).
  int64_t memo_size() const;

  /// The theory epoch at which the cached answer for `dep` was derived, if
  /// one holds at this prover's epoch. Retention preserves the original
  /// tag, so `entry_epoch(q) < epoch()` is exactly "this answer survived
  /// catalog churn". Diagnostics only, not a hot path.
  std::optional<uint64_t> entry_epoch(const OrderDependency& dep) const;

 private:
  /// One memoized answer plus its certificate, and the memo it lives in:
  /// 16 lock-striped shards, each indexing its entries for the sweeps (all
  /// defined in prover.cc).
  struct Entry;
  struct CacheShard;
  struct Memo;

  CacheShard& ShardFor(const OrderDependency& dep) const;
  /// The memo probe every query starts with: the cached answer for `dep`,
  /// if one holds at epoch(), counted as a hit (one shared lock, no entry
  /// copy). On a "not implied" hit, a non-null `countermodel` receives the
  /// stored countermodel.
  std::optional<bool> Probe(
      CacheShard& shard, const OrderDependency& dep,
      std::optional<SignVector>* countermodel = nullptr) const;
  /// The miss path every query shares: the split step, which refutes `dep`
  /// (or, for X = [], decides it) without a search; else one counted and
  /// traced search over the relevance closure of `dep`, then the full
  /// catalog. Stores the answer and returns its countermodel (nullopt:
  /// implied).
  std::optional<SignVector> Search(CacheShard& shard,
                                   const OrderDependency& dep) const;
  /// Records an answer derived at epoch() (exclusive lock), open-ended if
  /// epoch() is the memo head, else ending at epoch() + 1. An open-ended
  /// entry is never replaced (first writer wins on races); any other
  /// entry gives way to the new one.
  /// `search_support` holds indices into deps().ods() as reported by the
  /// model search (translated to stable ids here; used for positives);
  /// `model` is the falsifying model (negatives must carry one).
  void CacheStore(CacheShard& shard, const OrderDependency& dep, bool implied,
                  const std::vector<int>& search_support,
                  std::optional<SignVector> model) const;
  /// Monotonicity-aware memo sweep, run from the theory's change feed:
  /// advances the head, then drops every entry that does not hold at it,
  /// looking only at the entries the change can reach.
  void OnTheoryChange(const theory::ChangeEvent& event) const;
  /// Zero-extends a stored countermodel to the current attribute universe
  /// and materializes its two-row relation.
  Relation MaterializeCounterexample(const SignVector& model) const;

  std::shared_ptr<theory::Theory> theory_;
  std::shared_ptr<Memo> memo_;
  /// Set when this prover sweeps memo_ from theory_'s change feed; empty
  /// on replicas.
  std::optional<theory::Theory::ListenerToken> listener_;
  // Every query reads theory_ and memo_, and every hit bumps cache_hits_
  // from whichever thread asked: a cache line of their own keeps the
  // counters' traffic off the pointers.
  alignas(64) mutable std::atomic<int64_t> searches_executed_{0};
  mutable std::atomic<int64_t> split_refutations_{0};
  mutable std::atomic<int64_t> cache_hits_{0};
  mutable std::atomic<int64_t> entries_invalidated_{0};
  mutable std::atomic<int64_t> entries_retained_{0};
  mutable std::atomic<int64_t> last_sweep_kept_{0};
  mutable std::atomic<int64_t> last_sweep_reached_{0};
};

}  // namespace prover
}  // namespace od

#endif  // OD_PROVER_PROVER_H_
