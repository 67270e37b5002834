#ifndef OD_DISCOVERY_DISCOVERY_H_
#define OD_DISCOVERY_DISCOVERY_H_

#include <cstdint>
#include <vector>

#include "core/attribute.h"
#include "core/dependency.h"
#include "core/relation.h"
#include "discovery/candidate_lattice.h"
#include "engine/table.h"

namespace od {
namespace discovery {

/// Order-dependency discovery: mines a complete, minimal cover of the ODs
/// that hold in an `engine::Table`, FASTOD-style. The miner works in the
/// set-based canonical space (constancy and pairwise compatibility under a
/// context, see candidate_lattice.h) and translates the minimal canonical
/// ODs back to the paper's list-based form, so results feed directly into
/// `prover::Prover`, the axioms, and the optimizer:
///
///   * constancy  K: [] ↦ A   becomes  K' ↦ K'A (FD-shaped, Theorem 13)
///   * compat     K: A ~ B    becomes  K'AB ↦ K'BA and K'BA ↦ K'AB
///
/// where K' lists K in ascending column order (any permutation is
/// order-equivalent to any other for these shapes, so one representative
/// suffices). Completeness: every OD valid in the table — with canonical
/// contexts within `max_level` — is logically implied by the returned set;
/// the round-trip test in tests/discovery/ verifies both directions with
/// the prover against Armstrong-generated tables.

struct DiscoveryOptions {
  /// Largest attribute-set lattice level to explore; -1 for all levels.
  /// A cap of L bounds constancy contexts to L − 1 and compatibility
  /// contexts to L − 2 attributes (and limits the completeness guarantee
  /// accordingly).
  int max_level = -1;

  /// Threads for level validation: each lattice level's partitions are
  /// built up front, then its split/swap candidates validate on a pool of
  /// this size. 1 (the default) runs the same steps inline on the calling
  /// thread, with no pool; 0 means hardware concurrency. Results (ODs,
  /// statistics, partition counts) are identical at every thread count —
  /// candidates within a level are independent and their answers apply in
  /// node order.
  int num_threads = 1;
};

struct DiscoveryResult {
  /// The mined cover in list form, ready to seed a `theory::Theory`
  /// catalog (or the `prover::Prover(ods)` frozen-set convenience).
  DependencySet ods;
  /// The same cover in canonical set-based form.
  std::vector<ConstancyOd> constancies;
  std::vector<CompatibilityOd> compatibilities;
  /// Column names of the input table; attribute ids equal ColumnIds.
  NameTable names;
  LatticeStats stats;
  /// Stripped partitions materialized during the run (cache misses).
  int64_t partitions_computed = 0;
};

/// Mines the minimal canonical ODs of `t` and their list-form translation.
/// Throws std::invalid_argument if `t` has more than kMaxAttributes
/// columns (the theory side's AttributeSet is a 64-bit bitset).
DiscoveryResult DiscoverODs(const engine::Table& t,
                            const DiscoveryOptions& opts = DiscoveryOptions());

/// Canonical-to-list translations (also used by tests and examples).
OrderDependency ConstancyAsOd(const ConstancyOd& c);
std::vector<OrderDependency> CompatibilityAsOds(const CompatibilityOd& c);

/// Bridges a theory-side `Relation` (e.g. an Armstrong table from
/// armstrong::BuildArmstrongTable) into a columnar engine table so it can
/// be mined. Column names come from `names` when given, else A, B, C, ….
engine::Table TableFromRelation(const Relation& r,
                                const NameTable* names = nullptr);

}  // namespace discovery
}  // namespace od

#endif  // OD_DISCOVERY_DISCOVERY_H_
