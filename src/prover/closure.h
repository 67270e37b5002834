#ifndef OD_PROVER_CLOSURE_H_
#define OD_PROVER_CLOSURE_H_

#include <vector>

#include "core/dependency.h"
#include "prover/prover.h"

namespace od {
namespace prover {

/// Enumerates all duplicate-free attribute lists of length ≤ `max_len` over
/// `universe` (ordered permutations of subsets), including the empty list.
std::vector<AttributeList> EnumerateLists(const AttributeSet& universe,
                                          int max_len);

/// The semantic closure ℳ⁺ restricted to duplicate-free lists of bounded
/// length: every X ↦ Y with |X|, |Y| ≤ `max_len` such that ℳ ⊨ X ↦ Y.
///
/// By Normalization (OD3) every OD is equivalent to one over duplicate-free
/// lists, so this restriction loses no information for a fixed length bound.
/// Cost grows as (Σ P(n,k))², so this is a test/verification tool for small
/// universes — the paper's closure ℳ⁺ is infinite as a set of strings.
std::vector<OrderDependency> BoundedClosure(const Prover& prover,
                                            const AttributeSet& universe,
                                            int max_len);

}  // namespace prover
}  // namespace od

#endif  // OD_PROVER_CLOSURE_H_
