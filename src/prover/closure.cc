#include "prover/closure.h"

namespace od {
namespace prover {

namespace {

void ExtendLists(const std::vector<AttributeId>& attrs, int max_len,
                 std::vector<AttributeId>* current, AttributeSet* used,
                 std::vector<AttributeList>* out) {
  out->emplace_back(*current);
  if (static_cast<int>(current->size()) >= max_len) return;
  for (AttributeId a : attrs) {
    if (used->Contains(a)) continue;
    used->Add(a);
    current->push_back(a);
    ExtendLists(attrs, max_len, current, used, out);
    current->pop_back();
    used->Remove(a);
  }
}

}  // namespace

std::vector<AttributeList> EnumerateLists(const AttributeSet& universe,
                                          int max_len) {
  std::vector<AttributeList> out;
  std::vector<AttributeId> attrs = universe.ToVector();
  std::vector<AttributeId> current;
  AttributeSet used;
  ExtendLists(attrs, max_len, &current, &used, &out);
  return out;
}

std::vector<OrderDependency> BoundedClosure(const Prover& prover,
                                            const AttributeSet& universe,
                                            int max_len) {
  std::vector<OrderDependency> out;
  const std::vector<AttributeList> lists = EnumerateLists(universe, max_len);
  for (const auto& x : lists) {
    for (const auto& y : lists) {
      OrderDependency dep(x, y);
      if (prover.Implies(dep)) out.push_back(std::move(dep));
    }
  }
  return out;
}

}  // namespace prover
}  // namespace od
