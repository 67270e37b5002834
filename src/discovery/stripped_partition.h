#ifndef OD_DISCOVERY_STRIPPED_PARTITION_H_
#define OD_DISCOVERY_STRIPPED_PARTITION_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/attribute.h"
#include "engine/table.h"

namespace od {

namespace common {
class ThreadPool;
}  // namespace common

namespace discovery {

/// A stripped partition π*(X) over the rows of a table: the equivalence
/// classes of "agree on every attribute of X", with singleton classes
/// removed. Singletons carry no dependency information — a lone row can
/// neither split (violate an FD) nor swap (violate order compatibility) —
/// so stripping them keeps partitions small precisely where the data is
/// close to a key.
///
/// This is the position-list-index representation used by TANE and FASTOD:
/// each class is a list of row ids, and refinement by another attribute set
/// is a linear-time product (see `Product`).
class StrippedPartition {
 public:
  StrippedPartition() = default;

  /// π*(∅): one class containing every row (empty when the table has fewer
  /// than two rows).
  static StrippedPartition Universe(int64_t num_rows);

  /// π*({c}): rows grouped by their value in column `c`.
  static StrippedPartition ForColumn(const engine::Table& t,
                                     engine::ColumnId c);

  /// The product π*(X ∪ Y) = π*(X) · π*(Y): rows are in the same class of
  /// the product iff they are in the same class of both inputs. Linear in
  /// the number of positions of the two inputs.
  StrippedPartition Product(const StrippedPartition& other) const;

  int64_t num_rows() const { return num_rows_; }
  int num_classes() const { return static_cast<int>(classes_.size()); }
  const std::vector<int64_t>& cls(int i) const { return classes_[i]; }
  const std::vector<std::vector<int64_t>>& classes() const { return classes_; }

  /// The error measure e(π*) = Σ|c| − #classes: the number of rows that
  /// would have to be removed to make X a key. Two partitions π*(X) and
  /// π*(X ∪ {A}) have equal error iff the FD X → A holds (TANE Lemma) —
  /// this is the O(1) split-candidate validation given cached partitions.
  int64_t Error() const { return error_; }

  /// True iff every class is a singleton, i.e. X is a (super)key.
  bool IsKey() const { return classes_.empty(); }

 private:
  void Finalize();  // canonical class order + error measure

  int64_t num_rows_ = 0;
  int64_t error_ = 0;
  std::vector<std::vector<int64_t>> classes_;
};

/// A cache of stripped partitions keyed by attribute set, shared across
/// lattice levels. Level l of the discovery lattice needs π*(X) for |X| = l
/// and its parents at |X| = l − 1; partitions for smaller sets can be
/// evicted as the traversal moves up (`EvictLevel`), keeping the working
/// set to two levels plus the single-column bases.
///
/// `Prewarm` is the only builder and `Get` only looks up. Thread safety:
/// Prewarm and EvictLevel mutate the cache and run alone; between them,
/// any number of threads may Get concurrently, lock-free. The lattice
/// prewarms each level's sets before it validates them (at every thread
/// count), so the validators only ever read.
class PartitionCache {
 public:
  explicit PartitionCache(const engine::Table& t) : table_(&t) {}

  /// Returns the cached π*(x). Throws std::logic_error when no Prewarm
  /// since x's last eviction has built it.
  const StrippedPartition& Get(const AttributeSet& x) const;

  /// Materializes π*(x) for every set in `sets`, plus the chain each
  /// product reads: π*(X) = π*(X \ {a}) · π*({a}) for the lowest attribute
  /// a, down to single columns. Partitions are built in ascending-size
  /// tiers; within a tier every build only reads strictly smaller cached
  /// partitions, so each tier fans out over `pool` (inline when null).
  /// Sets already cached are neither rebuilt nor counted again.
  void Prewarm(const std::vector<AttributeSet>& sets,
               common::ThreadPool* pool);

  /// Drops every cached partition of exactly `level` attributes. Levels 0
  /// and 1 are always retained (they seed every product chain).
  void EvictLevel(int level);

  /// Number of partitions Prewarm has built so far.
  int64_t computed() const { return computed_; }
  /// Number of Gets answered. Atomic because Gets run concurrently.
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t size() const { return static_cast<int64_t>(cache_.size()); }

 private:
  /// Builds π*(x) from its already-cached chain inputs, without inserting
  /// it: Prewarm's tier builds run this concurrently.
  StrippedPartition ComputeFromCached(const AttributeSet& x) const;

  const engine::Table* table_;
  std::unordered_map<uint64_t, StrippedPartition> cache_;
  int64_t computed_ = 0;
  mutable std::atomic<int64_t> hits_{0};
};

}  // namespace discovery
}  // namespace od

#endif  // OD_DISCOVERY_STRIPPED_PARTITION_H_
