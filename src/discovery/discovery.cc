#include "discovery/discovery.h"

#include <memory>
#include <stdexcept>
#include <string>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "discovery/stripped_partition.h"
#include "discovery/validators.h"

namespace od {
namespace discovery {

namespace {

/// The production oracle: answers lattice validation questions from cached
/// stripped partitions of the table.
class PartitionOracle : public ValidationOracle {
 public:
  explicit PartitionOracle(const engine::Table& t) : table_(&t), cache_(t) {}

  bool ConstancyHolds(const AttributeSet& context, AttributeId attr) override {
    AttributeSet with = context;
    with.Add(attr);
    return SplitCandidateHolds(cache_.Get(context), cache_.Get(with));
  }

  bool CompatibilityHolds(const AttributeSet& context, AttributeId a,
                          AttributeId b) override {
    return SwapCandidateHolds(*table_, cache_.Get(context),
                              static_cast<engine::ColumnId>(a),
                              static_cast<engine::ColumnId>(b));
  }

  void PrepareLevel(const std::vector<AttributeSet>& sets,
                    common::ThreadPool* pool) override {
    // After the prewarm, every Get the announced validations perform is a
    // pure lookup, so ConstancyHolds / CompatibilityHolds run lock-free.
    cache_.Prewarm(sets, pool);
  }

  void OnLevelFinished(int level) override {
    // Flush this level's partition-cache traffic into per-level series
    // before evicting (hits/computed are cumulative; the deltas since the
    // previous level are this level's share).
    auto& reg = common::MetricRegistry::Global();
    const std::string label = "level=\"" + std::to_string(level) + "\"";
    reg.GetCounter("od_discovery_partition_cache_hits_total",
                   "Partition-cache lookups answered without a build, per "
                   "lattice level",
                   label)
        .Add(cache_.hits() - prev_hits_);
    reg.GetCounter("od_discovery_partitions_computed_total",
                   "Stripped partitions materialized per lattice level",
                   label)
        .Add(cache_.computed() - prev_computed_);
    prev_hits_ = cache_.hits();
    prev_computed_ = cache_.computed();

    // Level l + 1 still reads partitions of sizes l + 1 (split refinement),
    // l (split contexts) and l − 1 (swap contexts); anything smaller is
    // done (single-column bases are always retained as product seeds).
    cache_.EvictLevel(level - 2);
  }

  int64_t partitions_computed() const { return cache_.computed(); }

 private:
  const engine::Table* table_;
  PartitionCache cache_;
  int64_t prev_hits_ = 0;
  int64_t prev_computed_ = 0;
};

AttributeList SortedList(const AttributeSet& s) {
  return AttributeList(s.ToVector());
}

}  // namespace

OrderDependency ConstancyAsOd(const ConstancyOd& c) {
  const AttributeList lhs = SortedList(c.context);
  return OrderDependency(lhs, lhs.Append(c.attr));
}

std::vector<OrderDependency> CompatibilityAsOds(const CompatibilityOd& c) {
  const AttributeList base = SortedList(c.context);
  const AttributeList ab = base.Append(c.a).Append(c.b);
  const AttributeList ba = base.Append(c.b).Append(c.a);
  return {OrderDependency(ab, ba), OrderDependency(ba, ab)};
}

DiscoveryResult DiscoverODs(const engine::Table& t,
                            const DiscoveryOptions& opts) {
  if (t.num_columns() > kMaxAttributes) {
    throw std::invalid_argument(
        "DiscoverODs: table has " + std::to_string(t.num_columns()) +
        " columns; the theory modules support at most " +
        std::to_string(kMaxAttributes));
  }

  DiscoveryResult out;
  for (int c = 0; c < t.num_columns(); ++c) {
    out.names.Intern(t.schema().col(c).name);
  }

  PartitionOracle oracle(t);
  LatticeOptions lattice_opts;
  lattice_opts.max_level = opts.max_level;
  std::unique_ptr<common::ThreadPool> pool;
  if (opts.num_threads != 1) {
    pool = std::make_unique<common::ThreadPool>(opts.num_threads);
    lattice_opts.pool = pool.get();
  }
  LatticeResult mined = TraverseLattice(t.num_columns(), oracle, lattice_opts);

  out.constancies = std::move(mined.constancies);
  out.compatibilities = std::move(mined.compatibilities);
  out.stats = mined.stats;
  out.partitions_computed = oracle.partitions_computed();

  for (const ConstancyOd& c : out.constancies) {
    out.ods.Add(ConstancyAsOd(c));
  }
  for (const CompatibilityOd& c : out.compatibilities) {
    for (OrderDependency& od : CompatibilityAsOds(c)) {
      out.ods.Add(std::move(od));
    }
  }
  return out;
}

engine::Table TableFromRelation(const Relation& r, const NameTable* names) {
  engine::Schema schema;
  for (AttributeId a = 0; a < r.num_attributes(); ++a) {
    std::string name;
    if (names != nullptr) {
      name = names->Name(a);
    } else if (a < 26) {
      name = std::string(1, static_cast<char>('A' + a));
    } else {
      name = "col" + std::to_string(a);
    }
    engine::DataType type = engine::DataType::kInt64;
    if (r.num_rows() > 0) {
      const Value& v = r.At(0, a);
      if (v.is_double()) type = engine::DataType::kDouble;
      if (v.is_string()) type = engine::DataType::kString;
    }
    schema.Add(name, type);
  }
  engine::Table t(schema);
  for (int row = 0; row < r.num_rows(); ++row) {
    t.AppendRow(r.Row(row));
  }
  return t;
}

}  // namespace discovery
}  // namespace od
