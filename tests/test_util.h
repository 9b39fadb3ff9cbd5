// Shared helpers for the fuzzydb test suite.
#ifndef FUZZYDB_TESTS_TEST_UTIL_H_
#define FUZZYDB_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "fuzzy/degree.h"
#include "fuzzy/trapezoid.h"
#include "relational/catalog.h"
#include "relational/relation.h"

#define ASSERT_OK(expr)                                        \
  do {                                                         \
    const ::fuzzydb::Status _st = (expr);                      \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                   \
  } while (0)

#define EXPECT_OK(expr)                                        \
  do {                                                         \
    const ::fuzzydb::Status _st = (expr);                      \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                   \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                       \
  ASSERT_OK_AND_ASSIGN_IMPL(                                   \
      FUZZYDB_ASSIGN_OR_RETURN_NAME(_r_, __LINE__), lhs, rexpr)

#define ASSERT_OK_AND_ASSIGN_IMPL(var, lhs, rexpr)             \
  auto var = (rexpr);                                          \
  ASSERT_TRUE(var.ok()) << var.status().ToString();            \
  lhs = std::move(var).value()

namespace fuzzydb {
namespace testing_util {

/// Brute-force oracle for sup_{x theta y} min(mu_X(x), mu_Y(y)) by dense
/// grid sampling (plus the exact corner abscissae, so vertical edges are
/// sampled at their corners). Order comparators use prefix/suffix maxima,
/// so a call is O(steps log steps). Accurate to roughly the membership
/// change across one grid step; compare with a tolerance of a few
/// (max slope) x (grid pitch).
inline double BruteForceDegree(const Trapezoid& x, CompareOp op,
                               const Trapezoid& y, int steps = 4000) {
  if (op == CompareOp::kGt) return BruteForceDegree(y, CompareOp::kLt, x, steps);
  if (op == CompareOp::kGe) return BruteForceDegree(y, CompareOp::kLe, x, steps);

  const double lo = std::min(x.SupportBegin(), y.SupportBegin()) - 1.0;
  const double hi = std::max(x.SupportEnd(), y.SupportEnd()) + 1.0;
  const double step = (hi - lo) / steps;

  std::vector<double> points;
  points.reserve(steps + 9);
  for (int i = 0; i <= steps; ++i) points.push_back(lo + i * step);
  for (double corner :
       {x.a(), x.b(), x.c(), x.d(), y.a(), y.b(), y.c(), y.d()}) {
    points.push_back(corner);
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  const size_t n = points.size();

  std::vector<double> mx(n), my(n);
  for (size_t i = 0; i < n; ++i) {
    mx[i] = x.Membership(points[i]);
    my[i] = y.Membership(points[i]);
  }

  double best = 0.0;
  switch (op) {
    case CompareOp::kEq:
      for (size_t i = 0; i < n; ++i) best = std::max(best, std::min(mx[i], my[i]));
      return best;
    case CompareOp::kNe: {
      // Take the best mu_X point and the best mu_Y point elsewhere (and
      // vice versa); exact on the grid.
      size_t ax = 0, ay = 0;
      for (size_t i = 0; i < n; ++i) {
        if (mx[i] > mx[ax]) ax = i;
        if (my[i] > my[ay]) ay = i;
      }
      double other_y = 0.0, other_x = 0.0;
      for (size_t i = 0; i < n; ++i) {
        if (i != ax) other_y = std::max(other_y, my[i]);
        if (i != ay) other_x = std::max(other_x, mx[i]);
      }
      return std::max(std::min(mx[ax], other_y), std::min(other_x, my[ay]));
    }
    case CompareOp::kLe:
    case CompareOp::kLt: {
      // suffix_y[i] = max_{j >= i} my[j]; for kLt use j > i.
      std::vector<double> suffix_y(n + 1, 0.0);
      for (size_t i = n; i-- > 0;) {
        suffix_y[i] = std::max(suffix_y[i + 1], my[i]);
      }
      for (size_t i = 0; i < n; ++i) {
        const double reach = op == CompareOp::kLe ? suffix_y[i] : suffix_y[i + 1];
        best = std::max(best, std::min(mx[i], reach));
      }
      return best;
    }
    default:
      return 0.0;  // kApproxEq unsupported by this oracle
  }
}

/// Builds a single-column fuzzy relation from (value, degree) pairs.
inline Relation MakeSet(const std::string& name,
                        const std::vector<std::pair<Trapezoid, double>>& items) {
  Relation relation(name, Schema{Column{"Z", ValueType::kFuzzy}});
  for (const auto& [value, degree] : items) {
    EXPECT_OK(relation.Append(Tuple({Value::Fuzzy(value)}, degree)));
  }
  return relation;
}

/// Finds the degree of the tuple whose first value is the string `key`
/// in `relation`; -1 when absent.
inline double DegreeOf(const Relation& relation, const std::string& key) {
  for (const Tuple& t : relation.tuples()) {
    if (t.ValueAt(0).is_string() && t.ValueAt(0).AsString() == key) {
      return t.degree();
    }
  }
  return -1.0;
}

/// Finds the degree of the tuple whose first value is the crisp number
/// `key`; -1 when absent.
inline double DegreeOf(const Relation& relation, double key) {
  for (const Tuple& t : relation.tuples()) {
    if (t.ValueAt(0).is_fuzzy() && t.ValueAt(0).AsFuzzy().IsCrisp() &&
        t.ValueAt(0).AsFuzzy().CrispValue() == key) {
      return t.degree();
    }
  }
  return -1.0;
}

/// The raw bytes of `xs` as a heap file or checkpoint image stores them.
inline std::string DoubleBytes(std::initializer_list<double> xs) {
  std::string bytes(xs.size() * sizeof(double), '\0');
  size_t at = 0;
  for (double x : xs) {
    std::memcpy(&bytes[at], &x, sizeof(double));
    at += sizeof(double);
  }
  return bytes;
}

/// Overwrites the first occurrence of `from` in file `path` with `to`
/// (same length). Returns false when `from` does not occur.
inline bool PatchFile(const std::string& path, const std::string& from,
                      const std::string& to) {
  std::string content;
  {
    std::ifstream in(path, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  const size_t at = content.find(from);
  if (at == std::string::npos || from.size() != to.size()) return false;
  content.replace(at, to.size(), to);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  return static_cast<bool>(out);
}

/// A relation of fuzzy-typed columns C0, C1, ... (one per entry of
/// `mixed`) whose values repeat heavily, so a subquery link's bindings
/// do too: values come from a small pool of crisp duplicates, -0.0
/// beside 0.0, a few trapezoids (one with a -0.0 corner) and -- in the
/// columns `mixed` marks -- two strings and NULL.
/// Degrees come from {0.25, 0.5, 0.75, 1}, so one value appears at
/// several degrees.
inline Relation MakeDuplicateHeavyRelation(uint64_t seed,
                                           const std::string& name,
                                           const std::vector<bool>& mixed,
                                           size_t num_rows) {
  const std::vector<Value> numbers = {
      Value::Number(1.0),
      Value::Number(2.0),
      Value::Number(3.0),
      Value::Number(-0.0),
      Value::Number(0.0),
      Value::Fuzzy(Trapezoid::Interval(1.0, 3.0)),
      Value::Fuzzy(Trapezoid::Triangle(0.0, 2.0, 4.0)),
      Value::Fuzzy(Trapezoid(-0.0, 0.0, 1.0, 2.0))};
  const std::vector<Value> others = {Value::String("a"), Value::String("b"),
                                     Value::Null()};
  std::vector<Column> columns;
  for (size_t c = 0; c < mixed.size(); ++c) {
    columns.push_back(Column{"C" + std::to_string(c), ValueType::kFuzzy});
  }
  Relation relation(name, Schema(std::move(columns)));
  Rng rng(seed);
  for (size_t i = 0; i < num_rows; ++i) {
    std::vector<Value> values;
    for (bool with_others : mixed) {
      const int64_t pool = static_cast<int64_t>(
          numbers.size() + (with_others ? others.size() : 0));
      const size_t pick = static_cast<size_t>(rng.UniformInt(0, pool - 1));
      values.push_back(pick < numbers.size() ? numbers[pick]
                                             : others[pick - numbers.size()]);
    }
    const double degree = 0.25 * static_cast<double>(rng.UniformInt(1, 4));
    EXPECT_OK(relation.Append(Tuple(std::move(values), degree)));
  }
  return relation;
}

/// Builds the paper's dating-service database (Example 4.1): relations
/// F and M with schema (ID, NAME, AGE, INCOME) and the exact tuples of
/// the example, all with membership degree 1.
inline Catalog MakePaperCatalog() {
  Catalog catalog;
  const Schema schema{Column{"ID", ValueType::kFuzzy},
                      Column{"NAME", ValueType::kString},
                      Column{"AGE", ValueType::kFuzzy},
                      Column{"INCOME", ValueType::kFuzzy}};
  auto term = [&](const std::string& name) {
    auto result = catalog.terms().Lookup(name);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return Value::Fuzzy(result.ok() ? result.value() : Trapezoid());
  };

  Relation f("F", schema);
  EXPECT_OK(f.Append(Tuple({Value::Number(101), Value::String("Ann"),
                            term("about 35"), term("about 60k")},
                           1.0)));
  EXPECT_OK(f.Append(Tuple({Value::Number(102), Value::String("Ann"),
                            term("medium young"), term("medium high")},
                           1.0)));
  EXPECT_OK(f.Append(Tuple({Value::Number(103), Value::String("Betty"),
                            term("middle age"), term("high")},
                           1.0)));
  EXPECT_OK(f.Append(Tuple({Value::Number(104), Value::String("Cathy"),
                            term("about 50"), term("low")},
                           1.0)));
  EXPECT_OK(catalog.AddRelation(std::move(f)));

  Relation m("M", schema);
  EXPECT_OK(m.Append(Tuple({Value::Number(201), Value::String("Allen"),
                            Value::Number(24), term("about 25k")},
                           1.0)));
  EXPECT_OK(m.Append(Tuple({Value::Number(202), Value::String("Allen"),
                            term("about 50"), term("about 40k")},
                           1.0)));
  EXPECT_OK(m.Append(Tuple({Value::Number(203), Value::String("Bill"),
                            term("middle age"), term("high")},
                           1.0)));
  EXPECT_OK(m.Append(Tuple({Value::Number(204), Value::String("Carl"),
                            term("about 29"), term("medium low")},
                           1.0)));
  EXPECT_OK(catalog.AddRelation(std::move(m)));
  return catalog;
}

}  // namespace testing_util
}  // namespace fuzzydb

#endif  // FUZZYDB_TESTS_TEST_UTIL_H_
