#include "prover/two_row_model.h"

#include <algorithm>
#include <functional>

namespace od {
namespace prover {

Sign SignVector::CompareOnList(const AttributeList& list) const {
  for (int i = 0; i < list.Size(); ++i) {
    const Sign s = signs_[list[i]];
    if (s != 0) return s;
  }
  return 0;
}

bool SignVector::Satisfies(const OrderDependency& dep) const {
  const Sign cx = CompareOnList(dep.lhs);
  const Sign cy = CompareOnList(dep.rhs);
  // Orientation s→t: premise s ≼_X t is cx ≤ 0; conclusion requires cy ≤ 0.
  // Orientation t→s: premise is cx ≥ 0; conclusion requires cy ≥ 0.
  if (cx <= 0 && cy > 0) return false;
  if (cx >= 0 && cy < 0) return false;
  return true;
}

Relation SignVector::ToRelation() const {
  Relation r(size());
  std::vector<int64_t> row0(size(), 1);
  std::vector<int64_t> row1(size(), 1);
  for (int a = 0; a < size(); ++a) row1[a] = 1 + signs_[a];
  r.AddIntRow(row0);
  r.AddIntRow(row1);
  return r;
}

std::string SignVector::ToString() const {
  std::string out;
  for (Sign s : signs_) out += (s < 0 ? '-' : (s > 0 ? '+' : '0'));
  return out;
}

namespace {

/// Backtracking search over sign assignments for the attributes in
/// `universe`. ODs are checked as soon as all attributes they mention have
/// been assigned, pruning most of the 3^n space in practice.
class ModelSearch {
 public:
  /// If `used` is non-null, it is sized to m.Size() and used[i] is set
  /// whenever constraint i rejects a (partial) assignment — the raw form of
  /// the support set documented on FindFalsifyingModel.
  ModelSearch(const DependencySet& m, const AttributeSet& universe,
              std::vector<char>* used = nullptr)
      : universe_(universe.ToVector()),
        n_(universe_.empty() ? 0 : universe_.back() + 1),
        model_(n_),
        used_(used) {
    if (used_ != nullptr) used_->assign(m.ods().size(), 0);
    // Assignment order: attributes in increasing id. Bucket each constraint
    // at the depth where its last mentioned attribute gets assigned.
    depth_of_.assign(n_, -1);
    for (size_t d = 0; d < universe_.size(); ++d) {
      depth_of_[universe_[d]] = static_cast<int>(d);
    }
    ready_at_.resize(universe_.size() + 1);
    for (size_t i = 0; i < m.ods().size(); ++i) {
      const auto& dep = m.ods()[i];
      int depth = 0;
      for (AttributeId a : dep.Attributes().ToVector()) {
        if (a < n_ && depth_of_[a] >= 0) {
          depth = std::max(depth, depth_of_[a] + 1);
        }
      }
      ready_at_[depth].push_back({&dep, static_cast<int>(i)});
    }
  }

  /// Prune every subtree in which `target` is already satisfied: once all
  /// of target's attributes are assigned, its truth is fixed, so a
  /// satisfied target admits no falsifying completion. Cuts the explored
  /// space and — because the cut happens BEFORE constraint checks — keeps
  /// the recorded support set free of constraints that only ever pruned
  /// target-satisfying branches (which the implication does not rely on).
  void PruneWhenTargetSatisfied(const OrderDependency& target) {
    target_ = &target;
    target_depth_ = 0;
    for (AttributeId a : target.Attributes().ToVector()) {
      if (a < n_ && depth_of_[a] >= 0) {
        target_depth_ = std::max(target_depth_, depth_of_[a] + 1);
      }
    }
  }

  /// `leaf` is evaluated on every complete consistent assignment; search
  /// stops when it returns true.
  std::optional<SignVector> Search(
      const std::function<bool(const SignVector&)>& leaf) {
    if (Dfs(0, leaf)) return model_;
    return std::nullopt;
  }

 private:
  struct ReadyConstraint {
    const OrderDependency* dep;
    int index;
  };

  bool Dfs(int depth, const std::function<bool(const SignVector&)>& leaf) {
    if (target_ != nullptr && depth == target_depth_ &&
        model_.Satisfies(*target_)) {
      return false;
    }
    // Constraints whose attributes are all assigned must hold from here on.
    for (const ReadyConstraint& rc : ready_at_[depth]) {
      if (!model_.Satisfies(*rc.dep)) {
        if (used_ != nullptr) (*used_)[rc.index] = 1;
        return false;
      }
    }
    if (depth == static_cast<int>(universe_.size())) return leaf(model_);
    const AttributeId a = universe_[depth];
    for (Sign s : {Sign{0}, Sign{-1}, Sign{1}}) {
      model_.Set(a, s);
      if (Dfs(depth + 1, leaf)) return true;
    }
    model_.Set(a, 0);
    return false;
  }

  std::vector<AttributeId> universe_;
  int n_;
  SignVector model_;
  std::vector<char>* used_;
  const OrderDependency* target_ = nullptr;
  int target_depth_ = 0;
  std::vector<int> depth_of_;
  std::vector<std::vector<ReadyConstraint>> ready_at_;
};

}  // namespace

std::optional<SignVector> FindFalsifyingModel(const DependencySet& m,
                                              const OrderDependency& target,
                                              const AttributeSet& universe,
                                              std::vector<int>* support) {
  AttributeSet full = universe.Union(m.Attributes()).Union(target.Attributes());
  std::vector<char> used;
  ModelSearch search(m, full, support != nullptr ? &used : nullptr);
  search.PruneWhenTargetSatisfied(target);
  auto model = search.Search([&target](const SignVector& sv) {
    return !sv.Satisfies(target);
  });
  if (support != nullptr) {
    support->clear();
    if (!model) {
      for (size_t i = 0; i < used.size(); ++i) {
        if (used[i]) support->push_back(static_cast<int>(i));
      }
    }
  }
  return model;
}

std::optional<SignVector> FindModelWithSigns(
    const DependencySet& m, const AttributeSet& universe,
    const std::vector<std::pair<AttributeId, Sign>>& pinned) {
  // Pinning is expressed by extending ℳ: σ[a] = 0 is the constant
  // constraint [] ↦ [a]; a nonzero pin is enforced at the leaves.
  DependencySet extended = m;
  AttributeSet full = universe.Union(m.Attributes());
  for (const auto& [attr, sign] : pinned) {
    full.Add(attr);
    if (sign == 0) extended.AddConstant(attr);
  }
  ModelSearch search(extended, full);
  return search.Search([&pinned](const SignVector& sv) {
    for (const auto& [attr, sign] : pinned) {
      if (sign != 0 && sv.Get(attr) != sign) return false;
    }
    return true;
  });
}

}  // namespace prover
}  // namespace od
