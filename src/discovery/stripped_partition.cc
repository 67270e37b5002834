#include "discovery/stripped_partition.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "common/thread_pool.h"

namespace od {
namespace discovery {

void StrippedPartition::Finalize() {
  // Canonical form: rows ascending within a class, classes ordered by their
  // smallest row. Construction already yields ascending rows; sorting the
  // classes makes results independent of hash-map iteration order.
  std::sort(classes_.begin(), classes_.end(),
            [](const std::vector<int64_t>& a, const std::vector<int64_t>& b) {
              return a.front() < b.front();
            });
  error_ = 0;
  for (const auto& c : classes_) {
    error_ += static_cast<int64_t>(c.size()) - 1;
  }
}

StrippedPartition StrippedPartition::Universe(int64_t num_rows) {
  StrippedPartition out;
  out.num_rows_ = num_rows;
  if (num_rows >= 2) {
    std::vector<int64_t> all(num_rows);
    for (int64_t i = 0; i < num_rows; ++i) all[i] = i;
    out.classes_.push_back(std::move(all));
  }
  out.Finalize();
  return out;
}

namespace {

template <typename Key, typename Getter>
std::vector<std::vector<int64_t>> GroupRows(int64_t num_rows, Getter get) {
  std::unordered_map<Key, std::vector<int64_t>> groups;
  for (int64_t row = 0; row < num_rows; ++row) {
    groups[get(row)].push_back(row);
  }
  std::vector<std::vector<int64_t>> classes;
  for (auto& [key, rows] : groups) {
    if (rows.size() >= 2) classes.push_back(std::move(rows));
  }
  return classes;
}

}  // namespace

StrippedPartition StrippedPartition::ForColumn(const engine::Table& t,
                                               engine::ColumnId c) {
  assert(c >= 0 && c < t.num_columns());
  StrippedPartition out;
  out.num_rows_ = t.num_rows();
  const engine::Column& col = t.col(c);
  switch (col.type()) {
    case engine::DataType::kInt64:
      out.classes_ = GroupRows<int64_t>(
          t.num_rows(), [&](int64_t row) { return col.Int(row); });
      break;
    case engine::DataType::kDouble:
      out.classes_ = GroupRows<uint64_t>(
          t.num_rows(), [&](int64_t row) { return DoubleKey(col.Double(row)); });
      break;
    case engine::DataType::kString:
      out.classes_ = GroupRows<std::string>(
          t.num_rows(), [&](int64_t row) { return col.Str(row); });
      break;
  }
  out.Finalize();
  return out;
}

StrippedPartition StrippedPartition::Product(
    const StrippedPartition& other) const {
  assert(num_rows_ == other.num_rows_);
  StrippedPartition out;
  out.num_rows_ = num_rows_;

  // owner[row] = index of this partition's class containing `row`, or -1 if
  // the row is stripped (singleton) on this side — then it is a singleton in
  // the product too.
  std::vector<int32_t> owner(num_rows_, -1);
  for (size_t i = 0; i < classes_.size(); ++i) {
    for (int64_t row : classes_[i]) owner[row] = static_cast<int32_t>(i);
  }

  // For each class of `other`, bucket its rows by owner; every bucket of
  // size ≥ 2 is a class of the product. `scratch` is reused across classes,
  // reset via the touched list rather than wholesale.
  std::vector<std::vector<int64_t>> scratch(classes_.size());
  std::vector<int32_t> touched;
  for (const auto& c : other.classes_) {
    touched.clear();
    for (int64_t row : c) {
      const int32_t o = owner[row];
      if (o < 0) continue;
      if (scratch[o].empty()) touched.push_back(o);
      scratch[o].push_back(row);
    }
    for (int32_t o : touched) {
      if (scratch[o].size() >= 2) out.classes_.push_back(std::move(scratch[o]));
      scratch[o].clear();
    }
  }
  out.Finalize();
  return out;
}

const StrippedPartition& PartitionCache::Get(const AttributeSet& x) const {
  const auto it = cache_.find(x.bits());
  if (it == cache_.end()) {
    throw std::logic_error("PartitionCache::Get: no partition prewarmed for " +
                           od::ToString(x));
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

StrippedPartition PartitionCache::ComputeFromCached(
    const AttributeSet& x) const {
  if (x.IsEmpty()) return StrippedPartition::Universe(table_->num_rows());
  if (x.Size() == 1) {
    return StrippedPartition::ForColumn(
        *table_, static_cast<engine::ColumnId>(x.ToVector().front()));
  }
  const AttributeId a = x.ToVector().front();
  AttributeSet rest = x;
  rest.Remove(a);
  const auto base = cache_.find(AttributeSet({a}).bits());
  const auto rest_it = cache_.find(rest.bits());
  if (base == cache_.end() || rest_it == cache_.end()) {
    // A miss here means Prewarm's dependency tiers broke the "strict
    // subsets already cached" contract.
    throw std::logic_error(
        "PartitionCache::ComputeFromCached: subset partition missing for " +
        od::ToString(x));
  }
  return rest_it->second.Product(base->second);
}

void PartitionCache::Prewarm(const std::vector<AttributeSet>& sets,
                             common::ThreadPool* pool) {
  // Every requested set plus the chain its product reads (repeatedly
  // dropping the lowest attribute, plus that attribute's singleton base),
  // deduped against the cache and each other.
  std::unordered_set<uint64_t> seen;
  std::vector<AttributeSet> todo;
  const auto need = [&](AttributeSet x) {
    while (true) {
      if (cache_.count(x.bits()) != 0 || !seen.insert(x.bits()).second) {
        return;
      }
      todo.push_back(x);
      if (x.Size() <= 1) return;
      const AttributeId a = x.ToVector().front();
      const AttributeSet single({a});
      if (cache_.count(single.bits()) == 0 &&
          seen.insert(single.bits()).second) {
        todo.push_back(single);
      }
      x.Remove(a);
    }
  };
  for (const AttributeSet& s : sets) need(s);
  if (todo.empty()) return;

  // Ascending-size tiers: by the chain construction above, every set's
  // product inputs are of strictly smaller size, so when a tier starts they
  // are all cached already and tier members build independently.
  std::sort(todo.begin(), todo.end(),
            [](const AttributeSet& a, const AttributeSet& b) {
              if (a.Size() != b.Size()) return a.Size() < b.Size();
              return a.bits() < b.bits();
            });
  size_t tier_begin = 0;
  while (tier_begin < todo.size()) {
    size_t tier_end = tier_begin;
    while (tier_end < todo.size() &&
           todo[tier_end].Size() == todo[tier_begin].Size()) {
      ++tier_end;
    }
    const int64_t tier_size = static_cast<int64_t>(tier_end - tier_begin);
    std::vector<StrippedPartition> built(tier_size);
    common::ParallelFor(pool, tier_size, [&](int64_t i) {
      built[i] = ComputeFromCached(todo[tier_begin + i]);
    });
    for (int64_t i = 0; i < tier_size; ++i) {
      cache_.emplace(todo[tier_begin + i].bits(), std::move(built[i]));
      ++computed_;
    }
    tier_begin = tier_end;
  }
}

void PartitionCache::EvictLevel(int level) {
  if (level <= 1) return;
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (__builtin_popcountll(it->first) == level) {
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace discovery
}  // namespace od
