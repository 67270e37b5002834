#ifndef OD_DISCOVERY_CANDIDATE_LATTICE_H_
#define OD_DISCOVERY_CANDIDATE_LATTICE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/attribute.h"
#include "fd/fd_set.h"

namespace od {

namespace common {
class ThreadPool;
}  // namespace common

namespace discovery {

/// A validated constancy OD in canonical set-based form, context: [] ↦ attr
/// — `attr` is constant within every equivalence class of `context`;
/// equivalently the FD context → attr holds. With an empty context, `attr`
/// is a constant column.
struct ConstancyOd {
  AttributeSet context;
  AttributeId attr;
};

/// A validated compatibility OD in canonical set-based form,
/// context: a ~ b — within every class of `context`, no two rows increase
/// on `a` while decreasing on `b`. Stored with a < b (the statement is
/// symmetric).
struct CompatibilityOd {
  AttributeSet context;
  AttributeId a;
  AttributeId b;
};

/// Answers the two validation questions for the lattice traversal. The
/// production implementation checks stripped partitions of an
/// `engine::Table` (see discovery.cc); tests inject synthetic oracles to
/// exercise the pruning rules in isolation.
class ValidationOracle {
 public:
  virtual ~ValidationOracle() = default;

  /// Does context: [] ↦ attr hold (FD context → attr)?
  virtual bool ConstancyHolds(const AttributeSet& context,
                              AttributeId attr) = 0;

  /// Does context: a ~ b hold (no swap between a and b in any class)?
  virtual bool CompatibilityHolds(const AttributeSet& context, AttributeId a,
                                  AttributeId b) = 0;

  /// Called before every batch of validations — each level's split
  /// questions, then its swap questions: `sets` lists every attribute set
  /// (contexts and refinements) the coming ConstancyHolds /
  /// CompatibilityHolds calls will consult, so the oracle can materialize
  /// shared state up front (on `pool`, which may be null) and answer the
  /// batch from read-only data. After this returns, the validation methods
  /// must be safe to call concurrently for the announced sets. The default
  /// ignores it (fine for oracles that are stateless or already
  /// thread-safe).
  virtual void PrepareLevel(const std::vector<AttributeSet>& sets,
                            common::ThreadPool* pool) {
    (void)sets;
    (void)pool;
  }

  /// Called after every lattice level completes; the partition-backed
  /// oracle uses it to evict partitions the traversal can no longer need.
  virtual void OnLevelFinished(int level) { (void)level; }
};

struct LatticeOptions {
  /// Largest attribute-set size to visit; -1 means every level up to the
  /// number of attributes. Capping it bounds work but limits the discovered
  /// cover to ODs whose canonical context fits the cap.
  int max_level = -1;

  /// The pool each level's split and swap questions fan out across, after
  /// the PrepareLevel call that announces them; the answers apply in node
  /// order. Null (the default) or a one-thread pool answers them inline on
  /// the calling thread through the same steps, so the traversal, its
  /// statistics, and the emitted ODs are identical at every thread count.
  /// The oracle must honor the PrepareLevel contract above.
  common::ThreadPool* pool = nullptr;
};

struct LatticeStats {
  int64_t nodes_visited = 0;
  int64_t nodes_dropped = 0;  // generated children with no candidates left
  int64_t split_checks = 0;   // oracle constancy validations
  int64_t swap_checks = 0;    // oracle compatibility validations
  int64_t trivial_swaps_pruned = 0;  // skipped via the discovered-FD closure
  int64_t levels = 0;
};

struct LatticeResult {
  std::vector<ConstancyOd> constancies;
  std::vector<CompatibilityOd> compatibilities;
  LatticeStats stats;
};

/// Level-wise traversal of the set-containment lattice over attributes
/// {0, …, num_attributes − 1}, FASTOD-style: a node X carries TANE C⁺
/// split candidates (constancy RHS still possibly minimal at or below X)
/// and the pair candidates {a, b} ⊆ X whose compatibility at context
/// X \ {a, b} is not already settled or implied. Pruning rules:
///
///   * implied candidates — a split RHS leaves C⁺ once a smaller FD covers
///     it (TANE rule); a pair leaves the candidate sets of every superset
///     node the moment its compatibility validates, since a compatibility
///     holding at context K holds at every K' ⊇ K (context augmentation);
///   * constant columns / key contexts — a pair is skipped without
///     validation when the discovered FDs imply context → a or context → b
///     (a constant-per-class side cannot swap; a superkey context implies
///     everything, making its classes singletons);
///   * dead nodes — children whose C⁺ and pair candidates are both empty
///     are dropped, and descendants reached only through dropped nodes are
///     never generated.
///
/// Deliberately ABSENT is TANE's aggressive key-node deletion (pruning a
/// node as soon as its own partition is a key): a pair {a, c} at node
/// {a, b, c} has context {b}, which is not a key merely because its sibling
/// {a, b} is one, so deleting key nodes can silence minimal compatibility
/// ODs — one of the completeness pitfalls the Errata note on
/// order-compatibility discovery warns about. Key knowledge is applied only
/// through the (sound) FD-closure rule above.
///
/// Results are *minimal* canonical ODs: every valid canonical OD over sets
/// of ≤ max_level attributes is implied by some result via context
/// augmentation (the candidate sets are monotone, so co-atom minimality
/// equals global minimality).
LatticeResult TraverseLattice(int num_attributes, ValidationOracle& oracle,
                              const LatticeOptions& opts = LatticeOptions());

}  // namespace discovery
}  // namespace od

#endif  // OD_DISCOVERY_CANDIDATE_LATTICE_H_
