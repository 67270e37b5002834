#include "prover/prover.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace od {
namespace prover {

namespace {

/// Registry mirrors of the per-instance atomic counters. The accessors
/// (searches_executed() etc.) keep reading the instance atomics — these
/// aggregate across every Prover in the process for scraping. Looked up
/// once; references stay valid for the process lifetime.
struct ProverMetrics {
  common::Counter& searches;
  common::Counter& split_refutations;
  common::Counter& hits;
  common::Counter& invalidated;
  common::Counter& retained;
  common::Histogram& search_depth;
};

ProverMetrics& Metrics() {
  auto& reg = common::MetricRegistry::Global();
  static ProverMetrics* m = new ProverMetrics{
      reg.GetCounter("od_prover_searches_total",
                     "Two-row model searches executed (memo misses the FD "
                     "split left open)"),
      reg.GetCounter("od_prover_split_refutations_total",
                     "Memo misses refuted by the FD split without a model "
                     "search"),
      reg.GetCounter("od_prover_memo_hits_total",
                     "Prover queries answered from the memo"),
      reg.GetCounter("od_prover_memo_invalidated_total",
                     "Memo entries evicted by catalog changes"),
      reg.GetCounter("od_prover_memo_retained_total",
                     "Memo entries kept across catalog changes via "
                     "certificates"),
      reg.GetHistogram("od_prover_search_depth",
                       "Attributes branched over per model search "
                       "(the 3^n exponent)"),
  };
  return *m;
}

/// The end of an entry window that no sweep has closed.
constexpr uint64_t kOpenEnded = UINT64_MAX;
constexpr size_t kCacheShards = 16;

/// A set of a shard's entry slots: one bit per slot, grown on demand. The
/// sweep index keeps one per attribute and per constraint id, so a bit
/// rather than a pointer per posting keeps the index a small fraction of
/// the memo.
class SlotSet {
 public:
  void Insert(uint32_t slot) {
    const size_t word = slot / 64;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    words_[word] |= Bit(slot);
  }
  void Erase(uint32_t slot) {
    const size_t word = slot / 64;
    if (word < words_.size()) words_[word] &= ~Bit(slot);
  }
  void UnionWith(const SlotSet& other) {
    if (other.words_.size() > words_.size()) {
      words_.resize(other.words_.size(), 0);
    }
    for (size_t i = 0; i < other.words_.size(); ++i) {
      words_[i] |= other.words_[i];
    }
  }
  /// Calls `f(slot)` for every member in increasing order; `f` must not
  /// modify this set.
  template <typename F>
  void ForEach(F&& f) const {
    for (size_t i = 0; i < words_.size(); ++i) {
      for (uint64_t w = words_[i]; w != 0; w &= w - 1) {
        f(static_cast<uint32_t>(i * 64 + __builtin_ctzll(w)));
      }
    }
  }

 private:
  static uint64_t Bit(uint32_t slot) { return uint64_t{1} << (slot % 64); }
  std::vector<uint64_t> words_;
};

}  // namespace

/// One memoized answer plus its survival certificate. Positive entries
/// carry `support` (ids of the constraints the deriving search used);
/// negative entries carry `model` (the falsifying two-row model found).
/// The answer holds at every epoch in [epoch, end).
struct Prover::Entry {
  bool implied;
  /// This entry's place in its shard's sweep index.
  uint32_t slot = 0;
  uint64_t epoch;
  uint64_t end;
  std::vector<theory::ConstraintId> support;
  std::optional<SignVector> model;

  bool HoldsAt(uint64_t e) const { return epoch <= e && e < end; }
};

/// One memo stripe: its entries and the index the sweeps read, all guarded
/// by `mu`. Every entry owns a dense slot (`nodes[slot]` is its map node,
/// which stays put across rehashes); an evicted entry's slot is reused.
/// Open-ended entries are posted by certificate, entries stored behind the
/// head are listed in `closed`.
struct Prover::CacheShard {
  using Map = std::unordered_map<OrderDependency, Entry, OrderDependencyHash>;

  mutable std::shared_mutex mu;
  Map map;
  std::vector<Map::value_type*> nodes;
  std::vector<uint32_t> free_slots;
  SlotSet closed;
  /// Open-ended negatives, under each attribute their countermodel orders.
  std::vector<SlotSet> by_attribute;
  /// Open-ended positives, under each constraint id their support names.
  std::unordered_map<theory::ConstraintId, SlotSet> by_support;
  int64_t open_positives = 0;
  int64_t open_negatives = 0;

  uint32_t AcquireSlot(Map::value_type* node) {
    if (free_slots.empty()) {
      nodes.push_back(node);
      return static_cast<uint32_t>(nodes.size() - 1);
    }
    const uint32_t slot = free_slots.back();
    free_slots.pop_back();
    nodes[slot] = node;
    return slot;
  }

  /// Posts an open-ended entry under its certificate.
  void Index(const Entry& entry) {
    if (entry.implied) {
      for (theory::ConstraintId id : entry.support) {
        by_support[id].Insert(entry.slot);
      }
      ++open_positives;
      return;
    }
    const SignVector& model = *entry.model;
    if (static_cast<size_t>(model.size()) > by_attribute.size()) {
      by_attribute.resize(model.size());
    }
    for (AttributeId a = 0; a < model.size(); ++a) {
      if (model.Get(a) != 0) by_attribute[a].Insert(entry.slot);
    }
    ++open_negatives;
  }

  /// Drops the open-ended entry in `slot` from the index, then from the
  /// memo. Postings under a constraint id already taken out of by_support
  /// are skipped: that list is gone whole.
  void Evict(uint32_t slot) {
    const Entry& entry = nodes[slot]->second;
    if (entry.implied) {
      for (theory::ConstraintId id : entry.support) {
        auto it = by_support.find(id);
        if (it != by_support.end()) it->second.Erase(slot);
      }
      --open_positives;
    } else {
      const SignVector& model = *entry.model;
      for (AttributeId a = 0; a < model.size(); ++a) {
        if (model.Get(a) != 0) by_attribute[a].Erase(slot);
      }
      --open_negatives;
    }
    Free(slot);
  }

  /// Erases the entry in `slot` from the memo and frees the slot; the
  /// caller has already taken it out of the index.
  void Free(uint32_t slot) {
    map.erase(map.find(nodes[slot]->first));
    nodes[slot] = nullptr;
    free_slots.push_back(slot);
  }
};

/// The memo an owner prover shares with its replicas. `head` is the owner
/// theory's epoch as of the latest sweep.
struct Prover::Memo {
  explicit Memo(uint64_t epoch) : head(epoch) {}
  std::array<CacheShard, kCacheShards> shards;
  std::atomic<uint64_t> head;
};

Prover::Prover(std::shared_ptr<theory::Theory> theory)
    : theory_(std::move(theory)),
      memo_(std::make_shared<Memo>(theory_->epoch())),
      listener_(theory_->Subscribe([this](const theory::ChangeEvent& event) {
        OnTheoryChange(event);
      })) {}

Prover::Prover(DependencySet m)
    : Prover(std::make_shared<theory::Theory>(m)) {}

Prover::Prover(const theory::TheorySnapshot& snapshot)
    : Prover(std::make_shared<theory::Theory>(
          std::make_shared<theory::TheorySnapshot>(snapshot))) {}

Prover::Prover(std::shared_ptr<const theory::TheorySnapshot> snapshot,
               const Prover& owner)
    : theory_(std::make_shared<theory::Theory>(std::move(snapshot))),
      memo_(owner.memo_) {}

Prover::~Prover() {
  if (listener_) theory_->Unsubscribe(*listener_);
}

Prover::CacheShard& Prover::ShardFor(const OrderDependency& dep) const {
  // Fold the hash's upper half into the shard index: the shard's
  // unordered_map buckets by the same hash value, and on power-of-two
  // bucket implementations a low-bits-only shard index would leave every
  // key in a shard agreeing on those low bits — clustering
  // 1/kCacheShards of the buckets. The half-width shift (not a literal
  // 32) stays defined if size_t is ever 32 bits.
  const size_t h = OrderDependencyHash{}(dep);
  constexpr unsigned kHalf = sizeof(size_t) * 4;
  return memo_->shards[(h ^ (h >> kHalf)) % kCacheShards];
}

std::optional<bool> Prover::Probe(
    CacheShard& shard, const OrderDependency& dep,
    std::optional<SignVector>* countermodel) const {
  bool implied = false;
  {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.map.find(dep);
    if (it == shard.map.end() || !it->second.HoldsAt(epoch())) {
      return std::nullopt;
    }
    implied = it->second.implied;
    if (!implied && countermodel != nullptr) *countermodel = it->second.model;
  }
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  Metrics().hits.Add();
  return implied;
}

void Prover::CacheStore(CacheShard& shard, const OrderDependency& dep,
                        bool implied, const std::vector<int>& search_support,
                        std::optional<SignVector> model) const {
  Entry entry;
  entry.implied = implied;
  entry.epoch = epoch();
  if (implied) {
    // Translate search indices into stable constraint ids so the support
    // certificate stays meaningful as later removals shuffle indices.
    const std::vector<theory::ConstraintId>& ids = theory_->ids();
    entry.support.reserve(search_support.size());
    for (int index : search_support) entry.support.push_back(ids[index]);
  } else {
    // The index posts a negative under its countermodel; one without a
    // countermodel could never be re-checked.
    assert(model.has_value());
    entry.model = std::move(model);
  }
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  // The head is read under the shard lock, and a sweep advances it before
  // it locks any shard: an entry marked open-ended here is always indexed
  // before the sweep that moves the head past it reads this shard.
  entry.end = entry.epoch == memo_->head.load() ? kOpenEnded
                                                : entry.epoch + 1;
  auto [it, inserted] = shard.map.try_emplace(dep, std::move(entry));
  if (inserted) {
    it->second.slot = shard.AcquireSlot(&*it);
  } else if (it->second.end != kOpenEnded) {
    // Stored behind the head, so indexed only in `closed`: the new entry
    // takes over its slot. try_emplace left `entry` intact.
    entry.slot = it->second.slot;
    it->second = std::move(entry);
  } else {
    return;
  }
  const Entry& stored = it->second;
  if (stored.end == kOpenEnded) {
    shard.closed.Erase(stored.slot);
    shard.Index(stored);
  } else {
    shard.closed.Insert(stored.slot);
  }
}

namespace {

/// Does the zero-extension of `model` satisfy `dep`? Attributes beyond the
/// model's width compare equal across its two rows (sign 0) — a valid
/// completion of the countermodel into a grown attribute universe. Reads
/// the out-of-range signs as 0 directly: this runs per memo entry on the
/// mutation sweep, so no extended copy (or width scan) is materialized.
Sign ExtendedCompareOnList(const SignVector& model, const AttributeList& list) {
  for (int i = 0; i < list.Size(); ++i) {
    const AttributeId a = list[i];
    const Sign s = a < model.size() ? model.Get(a) : Sign{0};
    if (s != 0) return s;
  }
  return 0;
}

bool ExtendedSatisfies(const SignVector& model, const OrderDependency& dep) {
  const Sign cx = ExtendedCompareOnList(model, dep.lhs);
  const Sign cy = ExtendedCompareOnList(model, dep.rhs);
  // Mirrors SignVector::Satisfies for both tuple orientations.
  if (cx <= 0 && cy > 0) return false;
  if (cx >= 0 && cy < 0) return false;
  return true;
}

}  // namespace

void Prover::OnTheoryChange(const theory::ChangeEvent& event) const {
  // The theory already reflects the change; sweep the memo with the
  // monotonicity rules. Runs inside Add/Remove, which the contract forbids
  // racing with queries on this prover — but replicas sharing the memo
  // query it concurrently, so every shard is swept under its lock.
  OD_TRACE_SPAN("prover.memo_sweep");
  memo_->head.store(event.epoch);
  const bool added = event.kind == theory::ChangeEvent::Kind::kAdd;
  const std::vector<AttributeId> rhs = event.od.rhs.ToSet().ToVector();
  int64_t invalidated = 0;
  int64_t retained = 0;
  int64_t kept = 0;
  int64_t reached = 0;
  for (CacheShard& shard : memo_->shards) {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    // Stored behind the head and never checked against a later catalog:
    // none of these holds at the new head.
    std::exchange(shard.closed, SlotSet()).ForEach([&](uint32_t slot) {
      shard.Free(slot);
    });
    int64_t evicted = 0;
    if (added) {
      // Monotone: positives stay sound under any add. A negative survives
      // iff its countermodel also satisfies the new constraint — then it
      // is still a model of ℳ ∪ {c} that falsifies the query — and a
      // countermodel whose rows agree on every attribute of c's right side
      // satisfies c outright, so only those ordering one can fail.
      SlotSet reachable;
      for (AttributeId a : rhs) {
        if (static_cast<size_t>(a) < shard.by_attribute.size()) {
          reachable.UnionWith(shard.by_attribute[a]);
        }
      }
      const int64_t negatives = shard.open_negatives;
      reachable.ForEach([&](uint32_t slot) {
        ++reached;
        if (!ExtendedSatisfies(*shard.nodes[slot]->second.model, event.od)) {
          shard.Evict(slot);
          ++evicted;
        }
      });
      retained += negatives - evicted;
    } else {
      // Anti-monotone removal: a positive survives iff its support
      // certificate proves the removed constraint irrelevant; negatives
      // stay sound. Ids are never reused, so the list goes whole.
      const int64_t positives = shard.open_positives;
      auto named = shard.by_support.find(event.id);
      if (named != shard.by_support.end()) {
        const SlotSet slots = std::move(named->second);
        shard.by_support.erase(named);
        slots.ForEach([&](uint32_t slot) {
          ++reached;
          shard.Evict(slot);
          ++evicted;
        });
      }
      retained += positives - evicted;
    }
    invalidated += evicted;
    kept += shard.open_positives + shard.open_negatives;
  }
  entries_invalidated_.fetch_add(invalidated, std::memory_order_relaxed);
  entries_retained_.fetch_add(retained, std::memory_order_relaxed);
  last_sweep_kept_.store(kept, std::memory_order_relaxed);
  last_sweep_reached_.store(reached, std::memory_order_relaxed);
  Metrics().invalidated.Add(invalidated);
  Metrics().retained.Add(retained);
}

namespace {

/// Directed relevance closure of `target` in ℳ: grow an attribute frontier
/// from attrs(target), pulling in every constraint whose LHS the frontier
/// already covers (constants [] ↦ A enter immediately). Most implications
/// are provable from this subset alone — it is how derivations chain
/// forward through Transitivity/Augmentation — and by monotonicity any
/// "implied" verdict obtained from a SUBSET of ℳ is sound for ℳ itself, so
/// the subset search needs no completeness argument: a miss just falls
/// back to the full search. Returns sorted indices into m.ods().
std::vector<int> RelevantConstraints(const DependencySet& m,
                                     const OrderDependency& target) {
  AttributeSet frontier = target.Attributes();
  std::vector<char> in(m.ods().size(), 0);
  std::vector<int> out;
  bool changed = true;
  while (changed) {
    changed = false;
    for (int i = 0; i < m.Size(); ++i) {
      if (in[i]) continue;
      if (m[i].lhs.ToSet().SubsetOf(frontier)) {
        in[i] = 1;
        out.push_back(i);
        frontier = frontier.Union(m[i].Attributes());
        changed = true;
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Lemma 10's split block in two-row form: sign 0 on a maximal FD-closed
/// set Z ⊇ `closed` that misses `b`, +1 on the rest of `universe`. It
/// satisfies every OD of ℳ (a left side inside Z has its right side inside
/// Z; any other left side compares +1) and falsifies every X ↦ Y with
/// set(X) ⊆ Z and b ∈ Y. Z grows greedily in one pass: an attribute whose
/// closure with Z reaches b still reaches it from any larger Z. Maximal Z
/// orders few attributes, so the sweeps of later Adds reach few of these
/// countermodels. `closed` must be FD-closed and miss `b`.
SignVector SplitCountermodel(const fd::FdSet& fds, AttributeSet closed,
                             AttributeId b, const AttributeSet& universe) {
  const AttributeSet target{b};
  for (AttributeId a : universe.Minus(closed).ToVector()) {
    if (closed.Contains(a)) continue;
    const AttributeSet grown = fds.Closure(closed.Union({a}), target);
    if (!grown.Contains(b)) closed = grown;
  }
  const std::vector<AttributeId> attrs = universe.ToVector();
  SignVector model(attrs.back() + 1);
  for (AttributeId a : attrs) {
    if (!closed.Contains(a)) model.Set(a, 1);
  }
  return model;
}

}  // namespace

bool Prover::Implies(const OrderDependency& dep) const {
  CacheShard& shard = ShardFor(dep);
  if (auto hit = Probe(shard, dep)) return *hit;
  return !Search(shard, dep).has_value();
}

std::optional<SignVector> Prover::Search(CacheShard& shard,
                                         const OrderDependency& dep) const {
  // The split step (Theorems 13 and 15): X ↦ Y holds only if the FD
  // set(X) → set(Y) does, which one closure over the FD projection decides.
  // A closure missing some b of set(Y) refutes the query with no search;
  // the answer is stored like any other, so the sweeps index it and a
  // repeat is a one-probe hit. For X = [] the split decides outright,
  // since [] ~ Y always holds: the fired FDs, index-aligned with ℳ, are
  // the support of an "implied".
  const fd::FdSet& fds = theory_->fd_projection();
  const AttributeSet rhs = dep.rhs.ToSet();
  std::vector<int> used_fds;
  const AttributeSet closure =
      fds.Closure(dep.lhs.ToSet(), rhs,
                  dep.lhs.IsEmpty() ? &used_fds : nullptr);
  const AttributeSet missing = rhs.Minus(closure);
  if (!missing.IsEmpty()) {
    split_refutations_.fetch_add(1, std::memory_order_relaxed);
    Metrics().split_refutations.Add();
    SignVector model = SplitCountermodel(
        fds, closure, missing.ToVector().front(),
        theory_->attributes().Union(dep.Attributes()));
    CacheStore(shard, dep, false, {}, model);
    return model;
  }
  if (dep.lhs.IsEmpty()) {
    CacheStore(shard, dep, true, used_fds, std::nullopt);
    return std::nullopt;
  }

  // Search outside the lock: a racing duplicate re-derives the same answer.
  // One counter tick per search, even when the relevance phase below falls
  // through to the full search.
  searches_executed_.fetch_add(1, std::memory_order_relaxed);
  Metrics().searches.Add();
  OD_TRACE_SPAN("prover.search");
  const DependencySet& m = theory_->deps();

  // Phase 1 — relevance-guided: search only the directed closure of the
  // target. A positive verdict here is sound (monotonicity) and comes with
  // a MINIMAL-footprint support set: constraints outside the closure never
  // enter it, so the cached entry survives their removal. The restricted
  // universe also shrinks the 3^n space the exhaustive proof must cover.
  const std::vector<int> relevant = RelevantConstraints(m, dep);
  if (static_cast<int>(relevant.size()) < m.Size()) {
    DependencySet restricted;
    AttributeSet restricted_universe = dep.Attributes();
    for (int index : relevant) {
      restricted.Add(m[index]);
      restricted_universe = restricted_universe.Union(m[index].Attributes());
    }
    std::vector<int> restricted_support;
    auto subset_model = FindFalsifyingModel(restricted, dep,
                                            AttributeSet::Empty(),
                                            &restricted_support);
    if (!subset_model.has_value()) {
      std::vector<int> support;
      support.reserve(restricted_support.size());
      for (int index : restricted_support) {
        support.push_back(relevant[index]);
      }
      Metrics().search_depth.Record(restricted_universe.Size());
      CacheStore(shard, dep, true, support, std::nullopt);
      return std::nullopt;
    }
    // A falsifying model of the SUBSET proves nothing about ℳ by itself —
    // unless its zero-extension happens to satisfy every excluded
    // constraint too, in which case it IS a countermodel of ℳ and the
    // full search is unnecessary. (The search's zero-first heuristic
    // makes this the common case: attributes the subset never mentions
    // stay equal across the two rows.)
    bool satisfies_rest = true;
    size_t next_relevant = 0;
    for (int i = 0; i < m.Size() && satisfies_rest; ++i) {
      if (next_relevant < relevant.size() &&
          relevant[next_relevant] == i) {
        ++next_relevant;
        continue;
      }
      satisfies_rest = ExtendedSatisfies(*subset_model, m[i]);
    }
    if (satisfies_rest) {
      Metrics().search_depth.Record(restricted_universe.Size());
      CacheStore(shard, dep, false, {}, subset_model);
      return subset_model;
    }
    // Genuinely inconclusive — fall through to the exact full search.
  }

  // Phase 2 — exact: the full constraint set over the full universe.
  Metrics().search_depth.Record(
      theory_->attributes().Union(dep.Attributes()).Size());
  std::vector<int> support;
  auto model = FindFalsifyingModel(m, dep, theory_->attributes(), &support);
  CacheStore(shard, dep, !model.has_value(), support, model);
  return model;
}

bool Prover::Implies(const AttributeList& lhs,
                     const AttributeList& rhs) const {
  return Implies(OrderDependency(lhs, rhs));
}

std::optional<bool> Prover::CachedImplies(const OrderDependency& dep) const {
  return Probe(ShardFor(dep), dep);
}

std::vector<bool> Prover::ProveAll(const std::vector<OrderDependency>& deps,
                                   common::ThreadPool* pool) const {
  // vector<bool> packs bits, so concurrent writes to distinct elements
  // race; collect into bytes and convert once.
  std::vector<uint8_t> results(deps.size(), 0);
  common::ParallelFor(pool, static_cast<int64_t>(deps.size()), [&](int64_t i) {
    results[static_cast<size_t>(i)] = Implies(deps[static_cast<size_t>(i)]);
  });
  return std::vector<bool>(results.begin(), results.end());
}

bool Prover::OrderEquivalent(const AttributeList& x,
                             const AttributeList& y) const {
  return Implies(x, y) && Implies(y, x);
}

bool Prover::OrderCompatible(const AttributeList& x,
                             const AttributeList& y) const {
  return OrderEquivalent(x.Concat(y), y.Concat(x));
}

bool Prover::ImpliesFd(const AttributeSet& lhs,
                       const AttributeSet& rhs) const {
  return theory_->fd_projection().Implies(lhs, rhs);
}

bool Prover::IsConstant(AttributeId a) const {
  return Implies(AttributeList::EmptyList(), AttributeList({a}));
}

AttributeSet Prover::Constants() const {
  AttributeSet out;
  for (AttributeId a : theory_->attributes().ToVector()) {
    if (IsConstant(a)) out.Add(a);
  }
  return out;
}

std::optional<Relation> Prover::Counterexample(
    const OrderDependency& dep) const {
  // A cached "implied" leaves `model` empty; a cached "not implied" hands
  // over its countermodel, which the memo sweeps keep valid for the
  // current ℳ. Either way no search runs.
  CacheShard& shard = ShardFor(dep);
  std::optional<SignVector> model;
  if (!Probe(shard, dep, &model)) model = Search(shard, dep);
  if (!model) return std::nullopt;
  return MaterializeCounterexample(*model);
}

Relation Prover::MaterializeCounterexample(const SignVector& model) const {
  int width = model.size();
  for (AttributeId a : theory_->attributes().ToVector()) {
    if (a + 1 > width) width = a + 1;
  }
  if (width == model.size()) return model.ToRelation();
  SignVector extended(width);
  for (int a = 0; a < model.size(); ++a) extended.Set(a, model.Get(a));
  return extended.ToRelation();
}

void Prover::ResetStats() {
  searches_executed_.store(0, std::memory_order_relaxed);
  split_refutations_.store(0, std::memory_order_relaxed);
  cache_hits_.store(0, std::memory_order_relaxed);
  entries_invalidated_.store(0, std::memory_order_relaxed);
  entries_retained_.store(0, std::memory_order_relaxed);
}

std::optional<uint64_t> Prover::entry_epoch(const OrderDependency& dep) const {
  CacheShard& shard = ShardFor(dep);
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.map.find(dep);
  if (it == shard.map.end() || !it->second.HoldsAt(epoch())) {
    return std::nullopt;
  }
  return it->second.epoch;
}

int64_t Prover::memo_size() const {
  int64_t total = 0;
  for (CacheShard& shard : memo_->shards) {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    total += static_cast<int64_t>(shard.map.size());
  }
  return total;
}

}  // namespace prover
}  // namespace od
