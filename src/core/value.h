#ifndef OD_CORE_VALUE_H_
#define OD_CORE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace od {

/// Three-way total-order comparison for doubles. IEEE `<` is only a
/// partial order: NaN compares false against everything, so the naive
/// `a < b ? -1 : (a > b ? 1 : 0)` calls NaN a tie with *every* value — a
/// non-transitive "equality" that breaks strict-weak-ordering (UB in
/// std::sort) and lets swap detection miss real violations. This helper
/// makes the order total: all NaNs are equal to each other and sort after
/// every non-NaN value; -0.0 stays equal to +0.0. It matches the discovery
/// layer's grouping, which puts all NaN rows in one equivalence class.
int CompareDoubles(double a, double b);

/// Grouping key for doubles that agrees with CompareDoubles: the bit
/// pattern with every NaN mapped to one quiet NaN and -0.0 to +0.0, so two
/// doubles share a key iff CompareDoubles calls them equal. Hash-map
/// equality (a == b) would put every NaN in a group of its own, and the
/// two zeros have different bits.
uint64_t DoubleKey(double v);

/// A dynamically typed cell value from a totally ordered domain.
///
/// The paper's theory is agnostic to the domain as long as it is totally
/// ordered; the completeness construction uses integers, while the engine
/// and the warehouse workloads also need doubles, strings and dates. Dates
/// are stored as `int64_t` days since 1970-01-01 (see warehouse/date_dim.h).
///
/// Ordering across different types is defined (by type tag first) so that a
/// column accidentally mixing types still sorts deterministically, but the
/// engine never produces mixed columns.
class Value {
 public:
  Value() : v_(int64_t{0}) {}
  explicit Value(int64_t v) : v_(v) {}
  explicit Value(int v) : v_(static_cast<int64_t>(v)) {}
  explicit Value(double v) : v_(v) {}
  explicit Value(std::string v) : v_(std::move(v)) {}
  explicit Value(const char* v) : v_(std::string(v)) {}

  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  int64_t AsInt() const { return std::get<int64_t>(v_); }
  double AsDouble() const {
    if (is_int()) return static_cast<double>(AsInt());
    return std::get<double>(v_);
  }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  /// Three-way comparison: negative, zero, positive.
  int Compare(const Value& other) const;

  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.Compare(b) == 0;
  }
  friend bool operator!=(const Value& a, const Value& b) {
    return a.Compare(b) != 0;
  }
  friend bool operator<(const Value& a, const Value& b) {
    return a.Compare(b) < 0;
  }
  friend bool operator<=(const Value& a, const Value& b) {
    return a.Compare(b) <= 0;
  }
  friend bool operator>(const Value& a, const Value& b) {
    return a.Compare(b) > 0;
  }
  friend bool operator>=(const Value& a, const Value& b) {
    return a.Compare(b) >= 0;
  }

 private:
  std::variant<int64_t, double, std::string> v_;
};

}  // namespace od

#endif  // OD_CORE_VALUE_H_
