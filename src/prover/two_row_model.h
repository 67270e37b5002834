#ifndef OD_PROVER_TWO_ROW_MODEL_H_
#define OD_PROVER_TWO_ROW_MODEL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/dependency.h"
#include "core/relation.h"

namespace od {
namespace prover {

/// Two-row semantics for order dependencies.
///
/// Key observation behind the prover: an OD is a universally quantified
/// statement over *pairs* of tuples, so (a) any violation of X ↦ Y is
/// witnessed by two tuples, and (b) every two-row subtable of a table
/// satisfying ℳ itself satisfies ℳ. Hence
///
///     ℳ ⊭ X ↦ Y   iff   some TWO-ROW table satisfies ℳ and falsifies X ↦ Y.
///
/// For OD purposes a two-row table {s, t} is fully described by the sign
/// vector σ with σ[A] = sign(s.A − t.A) ∈ {−1, 0, +1} per attribute: every
/// lexicographic comparison is determined by σ. Searching sign-vector space
/// therefore yields an *exact* (sound and complete) implication test. The
/// search is exponential in the number of relevant attributes, which matches
/// the co-NP-hardness of OD implication; constraint ordering keeps the
/// common cases fast.

using Sign = int8_t;

/// A candidate two-row model: one sign per attribute of the universe.
class SignVector {
 public:
  explicit SignVector(int n) : signs_(n, 0) {}

  int size() const { return static_cast<int>(signs_.size()); }
  Sign Get(AttributeId a) const { return signs_[a]; }
  void Set(AttributeId a, Sign s) { signs_[a] = s; }

  /// Sign of the lexicographic comparison s vs t on `list`: the sign of the
  /// first attribute in the list where the rows differ (0 if none).
  Sign CompareOnList(const AttributeList& list) const;

  /// Whether the two-row table denoted by this vector satisfies `dep`
  /// (checking both tuple orientations).
  bool Satisfies(const OrderDependency& dep) const;

  /// Materializes the two-row relation: row0[a] = 1, row1[a] = 1 + σ[a].
  Relation ToRelation() const;

  std::string ToString() const;

 private:
  std::vector<Sign> signs_;
};

/// Searches for a sign vector over attributes `universe` that satisfies all
/// of `m` and falsifies `target`. Returns nullopt iff none exists, i.e. iff
/// ℳ ⊨ target. Attributes outside `universe` are ignored; universe must
/// cover attrs(m) ∪ attrs(target).
///
/// If `support` is non-null it receives the indices (into m.ods()) of the
/// constraints the search *used to reject candidate models* — each index
/// marks a constraint that pruned at least one branch. When the search
/// proves implication (returns nullopt), this set is a certificate: every
/// sign vector either satisfies `target` or violates one of the support
/// constraints, so the support constraints ALONE already imply `target`,
/// and the "implied" answer survives removal of any constraint outside the
/// support set. When a falsifying model is found, `support` is left empty
/// (a found model certifies non-implication by itself).
std::optional<SignVector> FindFalsifyingModel(const DependencySet& m,
                                              const OrderDependency& target,
                                              const AttributeSet& universe,
                                              std::vector<int>* support =
                                                  nullptr);

/// Searches for a sign vector satisfying all of `m` with the given pinned
/// attribute signs (used by the completeness construction to test whether a
/// swap between two attributes is consistent within a frozen context).
std::optional<SignVector> FindModelWithSigns(
    const DependencySet& m, const AttributeSet& universe,
    const std::vector<std::pair<AttributeId, Sign>>& pinned);

}  // namespace prover
}  // namespace od

#endif  // OD_PROVER_TWO_ROW_MODEL_H_
