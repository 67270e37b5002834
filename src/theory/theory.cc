#include "theory/theory.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"

namespace od {
namespace theory {

namespace {

common::Counter& EpochBumps() {
  static common::Counter* c = &common::MetricRegistry::Global().GetCounter(
      "od_theory_epoch_bumps_total",
      "Catalog versions minted by Theory::Add/Remove");
  return *c;
}

common::Counter& ListenerNotifications() {
  static common::Counter* c = &common::MetricRegistry::Global().GetCounter(
      "od_theory_listener_notifications_total",
      "Change-event deliveries fanned out to subscribed listeners");
  return *c;
}

/// A copy of `v` with room for one more element: an exact copy would
/// double on the next Add, and the next published value would keep that.
template <typename T>
std::vector<T> WithSpareSlot(const std::vector<T>& v) {
  std::vector<T> out;
  out.reserve(v.size() + 1);
  out.assign(v.begin(), v.end());
  return out;
}

}  // namespace

Theory::Theory(const DependencySet& m) {
  for (const auto& dep : m.ods()) Add(dep);
}

Theory::Theory(std::shared_ptr<const TheorySnapshot> snapshot)
    : value_(std::move(snapshot)), shared_(true) {}

TheorySnapshot& Theory::Mutable() {
  if (shared_) {
    const TheorySnapshot& v = *value_;
    value_ = std::make_shared<TheorySnapshot>(TheorySnapshot{
        v.epoch, DependencySet(WithSpareSlot(v.deps.ods())),
        fd::FdSet(WithSpareSlot(v.fd_projection.fds())),
        WithSpareSlot(v.ids), v.attributes, v.next_id});
    shared_ = false;
  }
  // Unshared, value_ is a copy this theory made, never a const object.
  return const_cast<TheorySnapshot&>(*value_);
}

ConstraintId Theory::Add(OrderDependency dep) {
  TheorySnapshot& v = Mutable();
  const ConstraintId id = v.next_id++;
  v.fd_projection.Add(dep.lhs.ToSet(), dep.rhs.ToSet());
  v.ids.push_back(id);
  v.attributes = v.attributes.Union(dep.Attributes());
  v.deps.Add(dep);  // after the uses above; `dep` is still valid here
  ++v.epoch;
  EpochBumps().Add();
  Notify(ChangeEvent{ChangeEvent::Kind::kAdd, id, std::move(dep), v.epoch});
  return id;
}

bool Theory::Remove(ConstraintId id) {
  auto index = IndexOf(id);
  if (!index) return false;
  TheorySnapshot& v = Mutable();
  OrderDependency removed = v.deps[*index];
  v.deps.RemoveAt(*index);
  v.fd_projection.RemoveAt(*index);
  v.ids.erase(v.ids.begin() + *index);
  v.attributes = v.deps.Attributes();
  ++v.epoch;
  EpochBumps().Add();
  Notify(ChangeEvent{ChangeEvent::Kind::kRemove, id, std::move(removed),
                     v.epoch});
  return true;
}

ConstraintId Theory::RemoveOne(const OrderDependency& dep) {
  for (int i = 0; i < Size(); ++i) {
    if (deps()[i] == dep) {
      const ConstraintId id = ids()[i];
      Remove(id);
      return id;
    }
  }
  return kNoConstraint;
}

std::optional<int> Theory::IndexOf(ConstraintId id) const {
  auto it = std::find(ids().begin(), ids().end(), id);
  if (it == ids().end()) return std::nullopt;
  return static_cast<int>(it - ids().begin());
}

std::optional<OrderDependency> Theory::Find(ConstraintId id) const {
  auto index = IndexOf(id);
  if (!index) return std::nullopt;
  return deps()[*index];
}

std::shared_ptr<const TheorySnapshot> Theory::Snapshot() {
  shared_ = true;
  return value_;
}

Theory::ListenerToken Theory::Subscribe(Listener listener) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  const ListenerToken token = next_token_++;
  listeners_.emplace_back(token, std::move(listener));
  return token;
}

void Theory::Unsubscribe(ListenerToken token) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  listeners_.erase(
      std::remove_if(listeners_.begin(), listeners_.end(),
                     [token](const auto& p) { return p.first == token; }),
      listeners_.end());
}

void Theory::Notify(const ChangeEvent& event) const {
  // Held across the fan-out: an unsubscribing prover (destructor on some
  // reader thread) must not yank a listener mid-delivery. Re-entrant
  // subscription from inside a listener is forbidden by contract.
  std::lock_guard<std::mutex> lock(listeners_mu_);
  ListenerNotifications().Add(static_cast<int64_t>(listeners_.size()));
  for (const auto& [token, fn] : listeners_) fn(event);
}

}  // namespace theory
}  // namespace od
