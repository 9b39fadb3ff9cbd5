// DistinctOn, which reduces one side of a subquery link to its distinct
// bindings before the pair join: one representative per bit-identical
// binding, in first-occurrence order, carrying the max degree of its
// rows, plus the row -> representative map. Identity is bitwise: a -0.0
// corner and a 0.0 corner are different bindings, equal strings and
// NULLs group. The representatives and their order do not depend on the
// thread count or the morsel size.
#include "engine/distinct_bindings.h"

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "parallel/thread_pool.h"
#include "sql/binder.h"
#include "test_util.h"

namespace fuzzydb {
namespace {

std::vector<FT> Rows(const Relation& rel) {
  std::vector<FT> rows;
  for (const Tuple& t : rel.tuples()) rows.push_back(FT{&t, t.degree()});
  return rows;
}

Value Trap(double a, double b, double c, double d) {
  return Value::Fuzzy(Trapezoid(a, b, c, d));
}

/// S(Z, V, W): Z repeats as crisp duplicates at several degrees, -0.0
/// beside 0.0, NULLs, strings and one trapezoid; V splits the
/// trapezoid's rows; W differs on every row and is not a binding column.
Relation MakeS() {
  Relation s("S", Schema({Column{"Z", ValueType::kFuzzy},
                          Column{"V", ValueType::kFuzzy},
                          Column{"W", ValueType::kFuzzy}}));
  const std::vector<std::tuple<Value, double, double>> rows = {
      {Value::Number(1.0), 2.0, 0.3},     // 0: binding 0
      {Value::Number(1.0), 2.0, 0.9},     // 1: binding 0
      {Value::Number(-0.0), 2.0, 0.5},    // 2: binding 1
      {Value::Number(0.0), 2.0, 0.4},     // 3: binding 2
      {Value::Number(1.0), 2.0, 0.6},     // 4: binding 0
      {Value::Null(), 2.0, 0.2},          // 5: binding 3
      {Value::Null(), 2.0, 0.7},          // 6: binding 3
      {Value::String("a"), 2.0, 0.1},     // 7: binding 4
      {Value::String("a"), 2.0, 0.8},     // 8: binding 4
      {Value::String("b"), 2.0, 1.0},     // 9: binding 5
      {Trap(0, 1, 2, 3), 2.0, 0.25},      // 10: binding 6
      {Trap(0, 1, 2, 3), 3.0, 0.75},      // 11: binding 7
      {Trap(0, 1, 2, 3), 2.0, 0.5},       // 12: binding 6
      {Value::Number(-0.0), 2.0, 0.45},   // 13: binding 1
  };
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& [z, v, degree] = rows[i];
    EXPECT_OK(s.Append(Tuple(
        {z, Value::Number(v), Value::Number(static_cast<double>(i))},
        degree)));
  }
  return s;
}

TEST(DistinctBindingsTest, RepresentativesMaxDegreesAndRowMap) {
  const Relation s = MakeS();
  const std::vector<FT> rows = Rows(s);
  const std::vector<size_t> expected_first = {0, 2, 3, 5, 7, 9, 10, 11};
  const std::vector<double> expected_degree = {0.9, 0.5,  0.4, 0.7,
                                               0.8, 1.0, 0.5, 0.75};
  const std::vector<uint32_t> expected_map = {0, 0, 1, 2, 0, 3, 3,
                                              4, 4, 5, 6, 7, 6, 1};
  for (size_t threads : {1u, 4u}) {
    for (size_t morsel : {1u, 3u, 2048u}) {
      ThreadPool pool(threads);
      ParallelContext ctx{threads > 1 ? &pool : nullptr, morsel};
      ExecTrace trace;
      CpuStats cpu;
      const DistinctBindings out =
          DistinctOn(rows, {0, 1}, s, ctx, &cpu, &trace);
      ASSERT_EQ(out.rows.size(), expected_first.size());
      for (size_t b = 0; b < out.rows.size(); ++b) {
        EXPECT_EQ(out.rows[b].tuple, &s.tuples()[expected_first[b]])
            << "binding " << b << " threads=" << threads;
        EXPECT_EQ(out.rows[b].degree, expected_degree[b]) << "binding " << b;
      }
      EXPECT_EQ(out.binding_of, expected_map);
      // One span, no counted work.
      ASSERT_EQ(trace.nodes().size(), 1u);
      const TraceNode& node = trace.nodes()[0];
      EXPECT_EQ(node.name, "distinct");
      EXPECT_EQ(node.detail, "S on S.Z,S.V");
      EXPECT_EQ(node.input_rows, rows.size());
      EXPECT_EQ(node.output_rows, expected_first.size());
      EXPECT_EQ(cpu.tuple_pairs + cpu.degree_evaluations + cpu.comparisons,
                0u);
    }
  }
}

TEST(DistinctBindingsTest, NonBindingColumnsDoNotSplit) {
  const Relation s = MakeS();
  ParallelContext ctx;
  // On V alone: 2.0 everywhere but row 11.
  const DistinctBindings on_v =
      DistinctOn(Rows(s), {1}, s, ctx, nullptr, nullptr);
  ASSERT_EQ(on_v.rows.size(), 2u);
  EXPECT_EQ(on_v.rows[0].degree, 1.0);
  EXPECT_EQ(on_v.rows[1].tuple, &s.tuples()[11]);
  // On W: every row is its own binding, in input order.
  const DistinctBindings on_w =
      DistinctOn(Rows(s), {2}, s, ctx, nullptr, nullptr);
  ASSERT_EQ(on_w.rows.size(), s.NumTuples());
  for (size_t i = 0; i < on_w.rows.size(); ++i) {
    EXPECT_EQ(on_w.rows[i].tuple, &s.tuples()[i]);
    EXPECT_EQ(on_w.binding_of[i], i);
  }
  // No rows, no bindings.
  const DistinctBindings none = DistinctOn({}, {0}, s, ctx, nullptr, nullptr);
  EXPECT_TRUE(none.rows.empty());
  EXPECT_TRUE(none.binding_of.empty());
}

/// The exact bits of a binding, the brute-force grouping key.
std::vector<std::string> BitsKey(const Tuple& t,
                                 const std::vector<size_t>& cols) {
  std::vector<std::string> key;
  for (size_t col : cols) {
    const Value& v = t.ValueAt(col);
    std::string k(1, static_cast<char>(v.type()));
    if (v.is_string()) k += v.AsString();
    if (v.is_fuzzy()) {
      const Trapezoid& z = v.AsFuzzy();
      for (double x : {z.a(), z.b(), z.c(), z.d()}) {
        k += std::to_string(std::bit_cast<uint64_t>(x)) + ",";
      }
    }
    key.push_back(k);
  }
  return key;
}

TEST(DistinctBindingsTest, MatchesBruteForceOnDuplicateHeavyRows) {
  Rng rng(7);
  const double points[] = {-0.0, 0.0, 1.0, 2.5};
  Relation s("S", Schema({Column{"Z", ValueType::kFuzzy},
                          Column{"V", ValueType::kFuzzy}}));
  for (size_t i = 0; i < 5000; ++i) {
    const auto point = [&] { return points[rng.UniformInt(0, 3)]; };
    Value z = rng.UniformInt(0, 9) == 0 ? Value::Null()
                                        : Value::Number(point());
    if (rng.UniformInt(0, 9) == 0) {
      z = Value::String(rng.UniformInt(0, 1) == 0 ? "x" : "y");
    }
    const double degree = 0.125 * static_cast<double>(rng.UniformInt(1, 8));
    ASSERT_OK(s.Append(Tuple({z, Value::Number(point())}, degree)));
  }
  const std::vector<FT> rows = Rows(s);
  const std::vector<size_t> cols = {0, 1};
  // Brute force: first occurrence and max degree per exact-bits key.
  std::map<std::vector<std::string>, size_t> index;
  std::vector<size_t> first;
  std::vector<double> degree;
  std::vector<uint32_t> map;
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto [it, fresh] =
        index.emplace(BitsKey(*rows[i].tuple, cols), first.size());
    if (fresh) {
      first.push_back(i);
      degree.push_back(rows[i].degree);
    }
    degree[it->second] = std::max(degree[it->second], rows[i].degree);
    map.push_back(static_cast<uint32_t>(it->second));
  }
  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    ParallelContext ctx{threads > 1 ? &pool : nullptr, 16};
    const DistinctBindings out =
        DistinctOn(rows, cols, s, ctx, nullptr, nullptr);
    ASSERT_EQ(out.rows.size(), first.size());
    for (size_t b = 0; b < first.size(); ++b) {
      EXPECT_EQ(out.rows[b].tuple, rows[first[b]].tuple);
      EXPECT_EQ(out.rows[b].degree, degree[b]);
    }
    EXPECT_EQ(out.binding_of, map);
  }
}

/// The binding columns of the one link of `sql` over the paper catalog.
LinkBindings BindingsOf(const std::string& sql) {
  const Catalog catalog = testing_util::MakePaperCatalog();
  auto bound = sql::ParseAndBind(sql, catalog);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  const QueryClass plan = ClassifyQuery(*bound.value());
  EXPECT_EQ(plan.links.size(), 1u) << sql;
  return plan.links.empty() ? LinkBindings{}
                            : BindingColumnsOf(plan.links[0]);
}

// F and M are (ID, NAME, AGE, INCOME).
TEST(DistinctBindingsTest, BindingColumnsAreWhatThePairTermsRead) {
  using Cols = std::vector<size_t>;
  // Type J: the link column, then the correlation's, on each side.
  LinkBindings j = BindingsOf(
      "SELECT F.ID FROM F WHERE F.AGE IN "
      "(SELECT M.AGE FROM M WHERE M.INCOME = F.INCOME)");
  EXPECT_EQ(j.outer, (Cols{2, 3}));
  EXPECT_EQ(j.inner, (Cols{2, 3}));
  // A correlation on the inner's link column reads it once.
  LinkBindings same = BindingsOf(
      "SELECT F.ID FROM F WHERE F.AGE IN "
      "(SELECT M.AGE FROM M WHERE F.INCOME = M.AGE)");
  EXPECT_EQ(same.outer, (Cols{2, 3}));
  EXPECT_EQ(same.inner, (Cols{2}));
  // Type JA: T1 is on R.U alone; the back-join reads R.Y per row.
  LinkBindings ja = BindingsOf(
      "SELECT F.ID FROM F WHERE F.AGE > "
      "(SELECT MAX(M.AGE) FROM M WHERE M.INCOME = F.INCOME)");
  EXPECT_EQ(ja.outer, (Cols{3}));
  EXPECT_EQ(ja.inner, (Cols{2, 3}));
  // EXISTS has no link column.
  LinkBindings exists = BindingsOf(
      "SELECT F.ID FROM F WHERE EXISTS "
      "(SELECT M.ID FROM M WHERE M.NAME = F.NAME)");
  EXPECT_EQ(exists.outer, (Cols{1}));
  EXPECT_EQ(exists.inner, (Cols{1}));
  LinkBindings constant = BindingsOf(
      "SELECT F.ID FROM F WHERE EXISTS (SELECT M.ID FROM M WHERE M.AGE > 30)");
  EXPECT_TRUE(constant.outer.empty());
  EXPECT_TRUE(constant.inner.empty());
}

}  // namespace
}  // namespace fuzzydb
