// Attribute values of the fuzzy relational model.
//
// An attribute value is either a character string (always crisp; used for
// names and identifiers) or a numeric possibility distribution
// (a Trapezoid; crisp numbers are degenerate trapezoids). NULL values
// arise from aggregates over empty sets (Section 6).
#ifndef FUZZYDB_RELATIONAL_VALUE_H_
#define FUZZYDB_RELATIONAL_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/status.h"
#include "fuzzy/degree.h"
#include "fuzzy/degree_kernels.h"
#include "fuzzy/trapezoid.h"

namespace fuzzydb {

/// Static type of an attribute.
enum class ValueType : uint8_t {
  kNull = 0,
  kString = 1,
  kFuzzy = 2,  // numeric possibility distribution (crisp numbers included)
};

const char* ValueTypeName(ValueType type);

/// A single attribute value.
class Value {
 public:
  /// NULL.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value String(std::string s) {
    Value v;
    v.data_ = std::move(s);
    return v;
  }
  static Value Fuzzy(const Trapezoid& t) {
    Value v;
    v.data_ = t;
    return v;
  }
  /// A crisp number, stored as a degenerate trapezoid.
  static Value Number(double x) { return Fuzzy(Trapezoid::Crisp(x)); }

  ValueType type() const {
    return static_cast<ValueType>(data_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_string() const { return type() == ValueType::kString; }
  bool is_fuzzy() const { return type() == ValueType::kFuzzy; }

  const std::string& AsString() const { return std::get<std::string>(data_); }
  const Trapezoid& AsFuzzy() const { return std::get<Trapezoid>(data_); }

  /// Exact representation identity (same type and same payload). This is
  /// the notion of "same value" used for duplicate elimination, GROUPBY
  /// keys, and the binary d(r.U = u) of Section 6 -- it is *not* the fuzzy
  /// equality possibility.
  bool Identical(const Value& other) const;

  /// Satisfaction degree of `*this op other` (Section 2.2):
  ///  - two fuzzy values: possibility via sup-min (degree.h);
  ///  - two strings: crisp comparison, degree 0 or 1 (only = and <> and
  ///    the order comparators via lexicographic order);
  ///  - NULL compared with anything: degree 0.
  /// Type-mismatched comparisons (string vs fuzzy) have degree 0.
  double Compare(CompareOp op, const Value& other,
                 double approx_tolerance = 1.0) const;

  /// Total order for sorting / map keys across types:
  /// NULL < strings (lexicographic) < fuzzy (interval order, then corners).
  /// Consistent with Identical (returns 0 iff Identical).
  int TotalOrderCompare(const Value& other) const;

  std::string ToString() const;

 private:
  std::variant<std::monostate, std::string, Trapezoid> data_;
};

/// Comparator usable with std::map / std::sort over Values.
struct ValueLess {
  bool operator()(const Value& a, const Value& b) const {
    return a.TotalOrderCompare(b) < 0;
  }
};

/// A value's TotalOrderCompare key, read once into flat storage so that
/// an O(n log n) sort compares plain doubles instead of walking tuple,
/// value vector and variant on every comparison. Fuzzy values compare by
/// their corners; strings and NULLs defer to the source value, which
/// must outlive the key.
struct ValueKey {
  ValueType type = ValueType::kNull;
  double a = 0.0, b = 0.0, c = 0.0, d = 0.0;  // corners, when fuzzy
  const Value* value = nullptr;

  ValueKey() = default;
  explicit ValueKey(const Value& v) : type(v.type()), value(&v) {
    if (type == ValueType::kFuzzy) {
      const Trapezoid& t = v.AsFuzzy();
      a = t.a();
      b = t.b();
      c = t.c();
      d = t.d();
    }
  }
};

/// x.value->TotalOrderCompare(*y.value), read from the keys.
inline int CompareValueKeys(const ValueKey& x, const ValueKey& y) {
  if (x.type != y.type) return x.type < y.type ? -1 : 1;
  if (x.type != ValueType::kFuzzy) return x.value->TotalOrderCompare(*y.value);
  return kernel::CompareTotalOrderLane(x.a, x.b, x.c, x.d, y.a, y.b, y.c,
                                       y.d);
}

}  // namespace fuzzydb

#endif  // FUZZYDB_RELATIONAL_VALUE_H_
