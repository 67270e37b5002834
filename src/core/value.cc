#include "core/value.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace od {

int CompareDoubles(double a, double b) {
  const bool a_nan = std::isnan(a);
  const bool b_nan = std::isnan(b);
  if (a_nan || b_nan) {
    if (a_nan && b_nan) return 0;
    return a_nan ? 1 : -1;  // NaN sorts after every ordered value
  }
  return a < b ? -1 : (a > b ? 1 : 0);
}

uint64_t DoubleKey(double v) {
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  if (v == 0.0) v = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

int Value::Compare(const Value& other) const {
  // Numeric types compare by value; a column mixing int64 and double still
  // orders sensibly. Strings compare lexicographically and sort after all
  // numbers (distinct type class).
  const bool a_num = !is_string();
  const bool b_num = !other.is_string();
  if (a_num && b_num) {
    if (is_int() && other.is_int()) {
      const int64_t a = AsInt();
      const int64_t b = other.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    return CompareDoubles(AsDouble(), other.AsDouble());
  }
  if (a_num != b_num) return a_num ? -1 : 1;
  return AsString().compare(other.AsString()) < 0
             ? -1
             : (AsString() == other.AsString() ? 0 : 1);
}

std::string Value::ToString() const {
  if (is_int()) return std::to_string(AsInt());
  if (is_double()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", AsDouble());
    return buf;
  }
  return AsString();
}

}  // namespace od
