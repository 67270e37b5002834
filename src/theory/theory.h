#ifndef OD_THEORY_THEORY_H_
#define OD_THEORY_THEORY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/attribute.h"
#include "core/dependency.h"
#include "fd/fd_set.h"

namespace od {
namespace theory {

/// Stable identity of one prescribed constraint inside a Theory. Ids are
/// never reused: every Add — including re-adding a dependency that was
/// removed earlier — mints a fresh id. This is what lets cached prover
/// answers name exactly the constraints they relied on (support sets)
/// without ambiguity across add/remove churn.
using ConstraintId = int64_t;
inline constexpr ConstraintId kNoConstraint = -1;

/// One catalog mutation, delivered to subscribed listeners synchronously,
/// after the theory's own state (deps, FD projection, attributes, epoch)
/// already reflects the change.
struct ChangeEvent {
  enum class Kind { kAdd, kRemove };
  Kind kind;
  ConstraintId id;
  OrderDependency od;
  /// The epoch the theory advanced *to* with this change.
  uint64_t epoch;
};

/// One version of a Theory's catalog — ℳ, its FD projection, stable ids,
/// attribute universe, epoch and next id — and the unit of publication in
/// the snapshot-isolation design (docs/theory.md, docs/service.md). A
/// Theory holds its state as one of these and never writes a value it
/// has handed out (see Theory::Snapshot), so any number of readers may
/// share one while the writer moves on.
///
/// `Theory(std::shared_ptr<const TheorySnapshot>)` adopts a value as a
/// frozen replica, copying nothing — which is what lets prover memo
/// entries (whose support certificates name constraint ids) transfer
/// between a live catalog and its replicas.
struct TheorySnapshot {
  uint64_t epoch = 0;
  DependencySet deps;
  fd::FdSet fd_projection;
  std::vector<ConstraintId> ids;
  AttributeSet attributes;
  /// The id the theory would mint next; replicas continue the same
  /// never-reused id sequence.
  ConstraintId next_id = 0;

  friend bool operator==(const TheorySnapshot& a, const TheorySnapshot& b) {
    return a.epoch == b.epoch && a.deps.ods() == b.deps.ods() &&
           a.fd_projection == b.fd_projection && a.ids == b.ids &&
           a.attributes == b.attributes && a.next_id == b.next_id;
  }
  friend bool operator!=(const TheorySnapshot& a, const TheorySnapshot& b) {
    return !(a == b);
  }
};

/// A versioned, mutable catalog of prescribed order dependencies ℳ — the
/// object the paper's reasoning problems are parameterized by, lifted from
/// a frozen constructor argument to a first-class entity with a lifetime.
///
/// Real catalogs change: constraints are declared, dropped, and refined
/// over a system's life. Theory supports that with
///
///   * `Add` / `Remove`: O(1) amortized add, O(|ℳ|) remove (the first edit
///     after a `Snapshot()` also copies ℳ), each advancing a monotonically
///     increasing `epoch()`;
///   * an *incrementally maintained* FD projection ℱ = {set(X) → set(Y)}
///     (Lemma 1 / Theorem 16) — one FD per OD, updated in place instead of
///     recomputed from scratch on every change;
///   * an incrementally maintained attribute universe (`Remove` recomputes
///     it from ℳ, so removals shrink it correctly);
///   * change listeners, through which a `prover::Prover` (or any other
///     derived structure) keeps its caches consistent without polling.
///
/// Index alignment invariant: `deps().ods()[i]`, `fd_projection().fds()[i]`
/// and `ids()[i]` all describe the same constraint, for every i. Removal
/// erases position i from all three, preserving the order of the rest.
///
/// Thread safety: Theory has a single-writer / snapshot-reader design
/// (docs/theory.md spells out the accessor table).
///
///   * Mutations (`Add`, `Remove`) are writer-thread only: they must not
///     race with each other or with direct catalog readers — including
///     queries on attached provers, whose listener sweep walks every memo
///     shard. `Snapshot()` is also writer-side (it sets the shared mark
///     that makes the next mutation copy).
///   * `Subscribe`/`Unsubscribe` are internally synchronized against each
///     other, so concurrent *readers* of a frozen (never again mutated)
///     theory may attach and detach provers freely. They still must not
///     race with mutations, and listeners must not subscribe or mutate
///     re-entrantly from inside a notification.
///   * A frozen theory (one that no thread will mutate again) is safe for
///     unlimited concurrent reads through every const accessor.
///
/// Readers that must overlap with a live writer go through
/// `TheorySnapshot` instead of the accessors: the writer publishes its
/// current value by shared_ptr hand-off, readers pin one and never touch
/// the mutating object — see od::service::Server.
class Theory {
 public:
  Theory() = default;
  /// Seeds the catalog with every OD in `m` (epoch advances once per OD).
  explicit Theory(const DependencySet& m);
  /// Adopts `snapshot` as a frozen replica, copying nothing: identical
  /// deps, FD projection, stable ids, attributes, epoch, and next-id
  /// counter (no listeners — subscriptions never transfer). Mutating the
  /// replica is legal (it copies first) and continues the source's
  /// epoch/id sequence, but the intended use is a read-only stand-in.
  explicit Theory(std::shared_ptr<const TheorySnapshot> snapshot);

  /// A theory has identity — stable ids, an epoch history, and listeners
  /// holding pointers back to their subscribers — so copying one would
  /// alias subscriptions into an object the subscribers never attached to
  /// (and dangle them once a subscriber dies). Snapshot `deps()` instead.
  Theory(const Theory&) = delete;
  Theory& operator=(const Theory&) = delete;

  /// Declares a constraint; returns its fresh stable id. Duplicate ODs are
  /// allowed (they get distinct ids), mirroring DependencySet.
  ConstraintId Add(OrderDependency dep);
  ConstraintId Add(const AttributeList& lhs, const AttributeList& rhs) {
    return Add(OrderDependency(lhs, rhs));
  }

  /// Drops the constraint with the given id. Returns false (and does not
  /// advance the epoch) if no such constraint is live.
  bool Remove(ConstraintId id);
  /// Drops the first live constraint equal to `dep`; returns its id, or
  /// kNoConstraint if none matched.
  ConstraintId RemoveOne(const OrderDependency& dep);

  /// Number of successful mutations since construction; strictly increases
  /// by exactly 1 per Add/Remove. Two Theory objects at the same epoch that
  /// followed the same script are in identical states.
  uint64_t epoch() const { return value_->epoch; }

  int Size() const { return value_->deps.Size(); }
  bool IsEmpty() const { return value_->deps.IsEmpty(); }
  bool Contains(const OrderDependency& dep) const {
    return value_->deps.Contains(dep);
  }

  /// The current constraint set ℳ, maintained incrementally.
  const DependencySet& deps() const { return value_->deps; }
  /// The current FD projection ℱ of ℳ, maintained incrementally —
  /// identical (order included) to fd::FdProjection(deps()).
  const fd::FdSet& fd_projection() const { return value_->fd_projection; }
  /// Stable ids, aligned by index with deps().ods() and
  /// fd_projection().fds().
  const std::vector<ConstraintId>& ids() const { return value_->ids; }
  /// Current index of a live constraint id, if any (O(|ℳ|)).
  std::optional<int> IndexOf(ConstraintId id) const;
  /// The dependency currently registered under `id`, if live.
  std::optional<OrderDependency> Find(ConstraintId id) const;

  /// All attributes mentioned by some live constraint (it shrinks when
  /// the last constraint naming an attribute is removed).
  const AttributeSet& attributes() const { return value_->attributes; }

  /// The current value itself (see TheorySnapshot), marked shared so the
  /// next Add/Remove edits a copy: a returned value never changes, and
  /// mutations with no Snapshot() between them copy nothing. Writer-thread
  /// only (it sets the mark); the *returned* value is immutable and safe
  /// to share with any thread.
  std::shared_ptr<const TheorySnapshot> Snapshot();

  /// Change subscription. Listeners run synchronously inside Add/Remove,
  /// in subscription order, after the theory state is updated; they must
  /// not mutate the theory — or subscribe/unsubscribe — re-entrantly.
  /// Subscribe/Unsubscribe are safe against each other from any thread
  /// (but not against mutations). Returns a token for Unsubscribe.
  using Listener = std::function<void(const ChangeEvent&)>;
  using ListenerToken = int64_t;
  ListenerToken Subscribe(Listener listener);
  void Unsubscribe(ListenerToken token);

 private:
  void Notify(const ChangeEvent& event) const;
  /// value_, copied first if it is shared.
  TheorySnapshot& Mutable();

  std::shared_ptr<const TheorySnapshot> value_ =
      std::make_shared<TheorySnapshot>();
  /// Set once value_ may be read outside this theory (handed out or
  /// adopted); the copy in Mutable() clears it. Not value_.use_count():
  /// that is a relaxed load, which orders no reader's last access before
  /// the next edit.
  bool shared_ = false;
  /// Guards listeners_/next_token_ so concurrent Subscribe/Unsubscribe on
  /// a frozen theory are safe (provers attach from any reader thread).
  /// Held across Notify, which is why listeners must not re-enter.
  mutable std::mutex listeners_mu_;
  std::vector<std::pair<ListenerToken, Listener>> listeners_;
  ListenerToken next_token_ = 0;
};

}  // namespace theory
}  // namespace od

#endif  // OD_THEORY_THEORY_H_
