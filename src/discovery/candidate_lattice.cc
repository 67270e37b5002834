#include "discovery/candidate_lattice.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace od {
namespace discovery {

namespace {

using AttrPair = std::pair<AttributeId, AttributeId>;  // always a < b

struct Node {
  AttributeSet attrs;
  /// TANE C⁺(X): attributes that may still be the RHS of a minimal
  /// constancy OD at X or below.
  AttributeSet rhs_candidates;
  /// Open pair candidates {a, b} ⊆ attrs (context attrs \ {a, b}), sorted.
  std::vector<AttrPair> pairs;

  bool HasPair(const AttrPair& p) const {
    return std::binary_search(pairs.begin(), pairs.end(), p);
  }
};

using Level = std::vector<Node>;

/// Index of a level's nodes by attribute-set bits.
std::unordered_map<uint64_t, const Node*> IndexLevel(const Level& level) {
  std::unordered_map<uint64_t, const Node*> index;
  index.reserve(level.size());
  for (const Node& n : level) index.emplace(n.attrs.bits(), &n);
  return index;
}

/// One validation question of a level: does `od` hold? `node` indexes the
/// lattice node that asked it; the od's context plus its attributes are
/// that node's attribute set.
template <typename Od>
struct Question {
  size_t node;
  Od od;
};

/// Announces the sets a level's questions read, then answers `ask(od)` for
/// every question through one fan-out (inline for a null or one-thread
/// pool). Each question writes only its own answer slot, and PrepareLevel
/// has made the oracle read-only for the announced sets, so the fan-out
/// takes no locks; the answers come back in question order.
template <typename Od, typename Ask>
std::vector<uint8_t> Answer(const std::vector<Question<Od>>& questions,
                            const std::vector<AttributeSet>& reads,
                            ValidationOracle& oracle,
                            common::ThreadPool* pool, const Ask& ask) {
  oracle.PrepareLevel(reads, pool);
  std::vector<uint8_t> holds(questions.size(), 0);
  common::ParallelFor(pool, static_cast<int64_t>(questions.size()),
                      [&](int64_t i) {
                        holds[static_cast<size_t>(i)] =
                            ask(questions[static_cast<size_t>(i)].od);
                      });
  return holds;
}

/// Builds level l + 1 from level l: every superset-by-one of an alive node,
/// with C⁺ intersected over all parents and pair candidates inherited from
/// every parent containing the pair. Parents dropped as dead contribute an
/// empty C⁺ and no pairs, which is exactly what their deadness certifies.
Level GenerateNextLevel(const Level& prev, const AttributeSet& universe,
                        LatticeStats& stats) {
  const auto index = IndexLevel(prev);
  std::unordered_set<uint64_t> seen;
  Level next;
  for (const Node& parent : prev) {
    for (AttributeId add : universe.Minus(parent.attrs).ToVector()) {
      AttributeSet attrs = parent.attrs;
      attrs.Add(add);
      if (!seen.insert(attrs.bits()).second) continue;

      Node child;
      child.attrs = attrs;
      child.rhs_candidates = universe;
      for (AttributeId drop : attrs.ToVector()) {
        AttributeSet sub = attrs;
        sub.Remove(drop);
        auto it = index.find(sub.bits());
        child.rhs_candidates = it == index.end()
                                   ? AttributeSet::Empty()
                                   : child.rhs_candidates.Intersect(
                                         it->second->rhs_candidates);
      }

      const std::vector<AttributeId> members = attrs.ToVector();
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          const AttrPair p{members[i], members[j]};
          bool open = true;
          if (attrs.Size() > 2) {
            for (AttributeId c : members) {
              if (c == p.first || c == p.second) continue;
              AttributeSet sub = attrs;
              sub.Remove(c);
              auto it = index.find(sub.bits());
              if (it == index.end() || !it->second->HasPair(p)) {
                open = false;
                break;
              }
            }
          }
          if (open) child.pairs.push_back(p);
        }
      }

      if (child.rhs_candidates.IsEmpty() && child.pairs.empty()) {
        ++stats.nodes_dropped;
        continue;
      }
      next.push_back(std::move(child));
    }
  }
  return next;
}

}  // namespace

LatticeResult TraverseLattice(int num_attributes, ValidationOracle& oracle,
                              const LatticeOptions& opts) {
  LatticeResult out;
  const AttributeSet universe = AttributeSet::FirstN(num_attributes);
  const int max_level = opts.max_level < 0
                            ? num_attributes
                            : std::min(opts.max_level, num_attributes);

  // The discovered constancy ODs, as FDs: drives the implied-candidate and
  // key/constant-context pruning via attribute-set closure. A pair's
  // context at level l has l − 2 attributes, so every FD relevant to its
  // closure was settled at level l − 1 or earlier.
  fd::FdSet discovered;

  Level level;
  Node root;
  root.attrs = AttributeSet::Empty();
  root.rhs_candidates = universe;
  level.push_back(root);

  for (int l = 1; l <= max_level && !level.empty(); ++l) {
    OD_TRACE_SPAN("discovery.level");
    level = GenerateNextLevel(level, universe, out.stats);
    out.stats.levels = l;
    out.stats.nodes_visited += static_cast<int64_t>(level.size());
    const size_t constancies_before = out.constancies.size();
    const size_t compatibilities_before = out.compatibilities.size();

    // Split pass (TANE COMPUTE_DEPENDENCIES): one question per open C⁺
    // candidate inside each node. A hit removes only the hit attribute and
    // everything outside the node from C⁺, so the other candidates listed
    // for the node stay open and every question is known up front.
    std::vector<Question<ConstancyOd>> splits;
    std::vector<AttributeSet> reads;
    for (size_t i = 0; i < level.size(); ++i) {
      const Node& node = level[i];
      const AttributeSet open = node.attrs.Intersect(node.rhs_candidates);
      for (AttributeId a : open.ToVector()) {
        AttributeSet context = node.attrs;
        context.Remove(a);
        splits.push_back({i, {context, a}});
        reads.push_back(context);
        reads.push_back(node.attrs);
      }
    }
    const std::vector<uint8_t> split_holds =
        Answer(splits, reads, oracle, opts.pool, [&](const ConstancyOd& c) {
          return oracle.ConstancyHolds(c.context, c.attr);
        });
    for (size_t i = 0; i < splits.size(); ++i) {  // apply in node order
      if (split_holds[i] == 0) continue;
      const ConstancyOd& c = splits[i].od;
      Node& node = level[splits[i].node];
      node.rhs_candidates.Remove(c.attr);
      node.rhs_candidates =
          node.rhs_candidates.Minus(universe.Minus(node.attrs));
      discovered.Add(c.context, AttributeSet({c.attr}));
      out.constancies.push_back(c);
    }

    // Swaps after splits: a level-l pair context has l − 2 attributes, and
    // the closure prune wants every FD with an LHS that small — all found
    // by the end of this level's split pass. A pair whose context
    // determines either side is constant within every context class (this
    // also covers superkey contexts): its compatibility holds trivially and
    // is implied by the constancy cover, so it is neither validated nor
    // reported. Settled pairs (trivial or validated) leave the node, so
    // superset nodes treat them as settled; failed pairs stay, in order.
    std::vector<Question<CompatibilityOd>> swaps;
    reads.clear();
    for (size_t i = 0; i < level.size(); ++i) {
      Node& node = level[i];
      for (const AttrPair& p : node.pairs) {
        AttributeSet context = node.attrs;
        context.Remove(p.first);
        context.Remove(p.second);
        const AttributeSet closure = discovered.Closure(context);
        if (closure.Contains(p.first) || closure.Contains(p.second)) {
          ++out.stats.trivial_swaps_pruned;
          continue;
        }
        swaps.push_back({i, {context, p.first, p.second}});
        reads.push_back(context);
      }
      node.pairs.clear();
    }
    const std::vector<uint8_t> swap_holds = Answer(
        swaps, reads, oracle, opts.pool, [&](const CompatibilityOd& c) {
          return oracle.CompatibilityHolds(c.context, c.a, c.b);
        });
    for (size_t i = 0; i < swaps.size(); ++i) {  // apply in node order
      const CompatibilityOd& c = swaps[i].od;
      if (swap_holds[i] != 0) {
        out.compatibilities.push_back(c);
      } else {
        level[swaps[i].node].pairs.push_back({c.a, c.b});
      }
    }

    out.stats.split_checks += static_cast<int64_t>(splits.size());
    out.stats.swap_checks += static_cast<int64_t>(swaps.size());
    const int64_t level_checks =
        static_cast<int64_t>(splits.size() + swaps.size());
    const int64_t level_found = static_cast<int64_t>(
        out.constancies.size() - constancies_before +
        out.compatibilities.size() - compatibilities_before);

    // Per-level lattice telemetry: one labeled series per level, so a
    // scrape shows where in the lattice the work (and the yield) sits.
    {
      auto& reg = common::MetricRegistry::Global();
      const std::string label = "level=\"" + std::to_string(l) + "\"";
      reg.GetCounter("od_discovery_candidates_total",
                     "Lattice nodes generated per level", label)
          .Add(static_cast<int64_t>(level.size()));
      reg.GetCounter("od_discovery_validations_total",
                     "Split + swap validations executed per level", label)
          .Add(level_checks);
      reg.GetCounter("od_discovery_ods_found_total",
                     "Minimal ODs (constancies + compatibilities) found per "
                     "level",
                     label)
          .Add(level_found);
    }

    oracle.OnLevelFinished(l);
  }
  return out;
}

}  // namespace discovery
}  // namespace od
