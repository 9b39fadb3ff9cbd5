#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <map>
#include <random>

#include "relational/catalog.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/tuple.h"
#include "relational/value.h"
#include "test_util.h"

namespace fuzzydb {
namespace {

// ----------------------------- Value ---------------------------------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value::String("x").is_string());
  EXPECT_TRUE(Value::Number(3).is_fuzzy());
  EXPECT_TRUE(Value::Number(3).AsFuzzy().IsCrisp());
  EXPECT_DOUBLE_EQ(Value::Number(3).AsFuzzy().CrispValue(), 3.0);
}

TEST(ValueTest, IdenticalIsRepresentationEquality) {
  EXPECT_TRUE(Value::Number(3).Identical(Value::Number(3)));
  EXPECT_FALSE(Value::Number(3).Identical(Value::Number(4)));
  EXPECT_TRUE(Value::String("a").Identical(Value::String("a")));
  EXPECT_FALSE(Value::String("a").Identical(Value::Number(3)));
  EXPECT_TRUE(Value::Null().Identical(Value::Null()));
  // Fuzzy-equal but not identical.
  const Value wide = Value::Fuzzy(Trapezoid(0, 1, 2, 3));
  const Value crisp = Value::Number(1.5);
  EXPECT_FALSE(wide.Identical(crisp));
  EXPECT_DOUBLE_EQ(crisp.Compare(CompareOp::kEq, wide), 1.0);
}

TEST(ValueTest, StringComparisonsAreCrisp) {
  const Value a = Value::String("apple"), b = Value::String("banana");
  EXPECT_DOUBLE_EQ(a.Compare(CompareOp::kEq, a), 1.0);
  EXPECT_DOUBLE_EQ(a.Compare(CompareOp::kEq, b), 0.0);
  EXPECT_DOUBLE_EQ(a.Compare(CompareOp::kNe, b), 1.0);
  EXPECT_DOUBLE_EQ(a.Compare(CompareOp::kLt, b), 1.0);
  EXPECT_DOUBLE_EQ(b.Compare(CompareOp::kLt, a), 0.0);
  EXPECT_DOUBLE_EQ(a.Compare(CompareOp::kLe, a), 1.0);
}

TEST(ValueTest, TypeMismatchAndNullCompareToZero) {
  EXPECT_DOUBLE_EQ(
      Value::String("x").Compare(CompareOp::kEq, Value::Number(1)), 0.0);
  EXPECT_DOUBLE_EQ(Value::Null().Compare(CompareOp::kEq, Value::Null()), 0.0);
  EXPECT_DOUBLE_EQ(Value::Number(1).Compare(CompareOp::kEq, Value::Null()),
                   0.0);
}

TEST(ValueTest, TotalOrderIsConsistentWithIdentical) {
  const std::vector<Value> values = {
      Value::Null(),
      Value::String("a"),
      Value::String("b"),
      Value::Number(1),
      Value::Number(2),
      Value::Fuzzy(Trapezoid(1, 1, 2, 3)),
      Value::Fuzzy(Trapezoid(1, 2, 2, 3)),
  };
  for (const Value& x : values) {
    for (const Value& y : values) {
      const int cmp = x.TotalOrderCompare(y);
      EXPECT_EQ(cmp == 0, x.Identical(y))
          << x.ToString() << " vs " << y.ToString();
      EXPECT_EQ(cmp, -y.TotalOrderCompare(x));
    }
  }
}

// A corpus over every order corner: NULL, strings, crisp and wide fuzzy
// values, equal supports with different cores, -0.0 next to 0.0, and
// infinite corners.
std::vector<Value> OrderCorpus() {
  const double inf = std::numeric_limits<double>::infinity();
  return {Value::Null(),
          Value::String(""),
          Value::String("a"),
          Value::String("b"),
          Value::Number(-0.0),
          Value::Number(0.0),
          Value::Number(1),
          Value::Fuzzy(Trapezoid(-0.0, 0.0, 1, 2)),
          Value::Fuzzy(Trapezoid(0.0, 0.5, 1, 2)),
          Value::Fuzzy(Trapezoid(0.0, 0.5, 1.5, 2)),
          Value::Fuzzy(Trapezoid(0.0, 0.0, 2, 2)),
          Value::Fuzzy(Trapezoid(-inf, -inf, 0.0, 1)),
          Value::Fuzzy(Trapezoid(-inf, 0.0, 0.0, inf)),
          Value::Fuzzy(Trapezoid(1, 2, inf, inf))};
}

int Sign(int x) { return (x > 0) - (x < 0); }

TEST(ValueKeyTest, CompareMatchesTotalOrderCompare) {
  const std::vector<Value> corpus = OrderCorpus();
  for (const Value& x : corpus) {
    for (const Value& y : corpus) {
      EXPECT_EQ(Sign(CompareValueKeys(ValueKey(x), ValueKey(y))),
                Sign(x.TotalOrderCompare(y)))
          << x.ToString() << " vs " << y.ToString();
    }
  }
}

// ----------------------------- Schema --------------------------------

TEST(SchemaTest, IndexLookupIsCaseInsensitive) {
  const Schema schema{Column{"NAME", ValueType::kString},
                      Column{"AGE", ValueType::kFuzzy}};
  ASSERT_OK_AND_ASSIGN(size_t idx, schema.IndexOf("age"));
  EXPECT_EQ(idx, 1u);
  EXPECT_FALSE(schema.IndexOf("income").ok());
  EXPECT_TRUE(schema.Has("Name"));
}

TEST(SchemaTest, AddColumnRejectsDuplicates) {
  Schema schema{Column{"A", ValueType::kFuzzy}};
  EXPECT_OK(schema.AddColumn(Column{"B", ValueType::kString}));
  const Status st = schema.AddColumn(Column{"a", ValueType::kFuzzy});
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
}

// ----------------------------- Tuple ---------------------------------

TEST(TupleTest, ConcatTakesMinDegree) {
  const Tuple a({Value::Number(1)}, 0.8);
  const Tuple b({Value::Number(2)}, 0.5);
  const Tuple joined = a.Concat(b);
  EXPECT_EQ(joined.NumValues(), 2u);
  EXPECT_DOUBLE_EQ(joined.degree(), 0.5);
}

TEST(TupleTest, ProjectKeepsDegree) {
  const Tuple t({Value::Number(1), Value::Number(2), Value::Number(3)}, 0.7);
  const Tuple p = t.Project({2, 0});
  EXPECT_EQ(p.NumValues(), 2u);
  EXPECT_DOUBLE_EQ(p.ValueAt(0).AsFuzzy().CrispValue(), 3.0);
  EXPECT_DOUBLE_EQ(p.ValueAt(1).AsFuzzy().CrispValue(), 1.0);
  EXPECT_DOUBLE_EQ(p.degree(), 0.7);
}

// ---------------------------- Relation -------------------------------

TEST(RelationTest, AppendDropsZeroDegreeTuples) {
  Relation r("R", Schema{Column{"A", ValueType::kFuzzy}});
  EXPECT_OK(r.Append(Tuple({Value::Number(1)}, 0.0)));
  EXPECT_OK(r.Append(Tuple({Value::Number(2)}, 0.5)));
  EXPECT_EQ(r.NumTuples(), 1u);
}

TEST(RelationTest, AppendChecksArity) {
  Relation r("R", Schema{Column{"A", ValueType::kFuzzy}});
  const Status st = r.Append(Tuple({Value::Number(1), Value::Number(2)}, 1.0));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(RelationTest, DuplicateEliminationKeepsMaxDegree) {
  // Fuzzy OR: identical answers keep the highest membership (Section 2.2).
  Relation r("R", Schema{Column{"A", ValueType::kFuzzy}});
  EXPECT_OK(r.Append(Tuple({Value::Number(1)}, 0.3)));
  EXPECT_OK(r.Append(Tuple({Value::Number(1)}, 0.7)));
  EXPECT_OK(r.Append(Tuple({Value::Number(1)}, 0.5)));
  EXPECT_OK(r.Append(Tuple({Value::Number(2)}, 0.2)));
  r.EliminateDuplicates();
  EXPECT_EQ(r.NumTuples(), 2u);
  EXPECT_DOUBLE_EQ(testing_util::DegreeOf(r, 1.0), 0.7);
  EXPECT_DOUBLE_EQ(testing_util::DegreeOf(r, 2.0), 0.2);
}

TEST(RelationTest, WithThresholdFiltersAnswers) {
  Relation r("R", Schema{Column{"A", ValueType::kFuzzy}});
  EXPECT_OK(r.Append(Tuple({Value::Number(1)}, 0.3)));
  EXPECT_OK(r.Append(Tuple({Value::Number(2)}, 0.8)));
  r.EliminateDuplicates(0.5);  // WITH D >= 0.5
  EXPECT_EQ(r.NumTuples(), 1u);
  EXPECT_DOUBLE_EQ(testing_util::DegreeOf(r, 2.0), 0.8);
}

// The reference the sort-based EliminateDuplicates must reproduce: the
// std::map of tuple copies it replaced, keyed by Value's total order
// column by column, keeping the first inserted tuple of each group.
std::vector<Tuple> MapEliminateDuplicates(const std::vector<Tuple>& tuples,
                                          double min_degree) {
  struct TupleLess {
    bool operator()(const Tuple& a, const Tuple& b) const {
      const size_t n = std::min(a.NumValues(), b.NumValues());
      for (size_t i = 0; i < n; ++i) {
        const int cmp = a.ValueAt(i).TotalOrderCompare(b.ValueAt(i));
        if (cmp != 0) return cmp < 0;
      }
      return a.NumValues() < b.NumValues();
    }
  };
  std::map<Tuple, double, TupleLess> best;
  for (const Tuple& t : tuples) {
    auto [it, inserted] = best.emplace(t, t.degree());
    if (!inserted) it->second = std::max(it->second, t.degree());
  }
  std::vector<Tuple> out;
  for (const auto& [tuple, degree] : best) {
    if (degree >= min_degree && degree > 0.0) {
      out.push_back(tuple);
      out.back().set_degree(degree);
    }
  }
  return out;
}

/// Same type and the same payload bits (so -0.0 differs from 0.0).
bool BitIdentical(const Value& x, const Value& y) {
  if (x.type() != y.type()) return false;
  if (x.is_string()) return x.AsString() == y.AsString();
  if (!x.is_fuzzy()) return true;
  const Trapezoid& a = x.AsFuzzy();
  const Trapezoid& b = y.AsFuzzy();
  const double xs[4] = {a.a(), a.b(), a.c(), a.d()};
  const double ys[4] = {b.a(), b.b(), b.c(), b.d()};
  return std::memcmp(xs, ys, sizeof(xs)) == 0;
}

void ExpectMatchesMapReference(const std::vector<Tuple>& input,
                               const std::string& label) {
  for (double theta : {0.0, 0.5, 1.0}) {
    Relation r;
    r.mutable_tuples() = input;
    r.EliminateDuplicates(theta);
    const std::vector<Tuple> expected = MapEliminateDuplicates(input, theta);
    ASSERT_EQ(r.NumTuples(), expected.size()) << label << " theta=" << theta;
    for (size_t i = 0; i < expected.size(); ++i) {
      const Tuple& got = r.TupleAt(i);
      ASSERT_EQ(got.NumValues(), expected[i].NumValues()) << label;
      for (size_t c = 0; c < got.NumValues(); ++c) {
        EXPECT_TRUE(BitIdentical(got.ValueAt(c), expected[i].ValueAt(c)))
            << label << " theta=" << theta << " row " << i << ": "
            << got.ToString() << " vs " << expected[i].ToString();
      }
      EXPECT_EQ(got.degree(), expected[i].degree())
          << label << " theta=" << theta << " row " << i;
    }
  }
}

TEST(EliminateDuplicatesTest, MatchesMapReference) {
  const std::vector<Value> corpus = OrderCorpus();
  const double degrees[] = {0.1, 0.25, 0.5, 0.75, 1.0, 0.3333333333333333};
  std::mt19937 rng(17);
  const auto pick = [&](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };
  // Fuzzy only, every type in one column, and two or three mixed columns;
  // a small corpus makes groups of differing degrees frequent.
  for (size_t arity : {1u, 2u, 3u}) {
    for (bool fuzzy_only : {true, false}) {
      std::vector<Tuple> input;
      for (size_t i = 0; i < 400; ++i) {
        std::vector<Value> values;
        for (size_t c = 0; c < arity; ++c) {
          const size_t first = fuzzy_only ? 4 : 0;
          values.push_back(corpus[first + pick(corpus.size() - first)]);
        }
        input.emplace_back(std::move(values), degrees[pick(6)]);
      }
      ExpectMatchesMapReference(input, "arity=" + std::to_string(arity) +
                                           (fuzzy_only ? " fuzzy" : " mixed"));
    }
  }
  // A schema-less relation whose tuples differ in arity.
  std::vector<Tuple> ragged;
  for (size_t i = 0; i < 200; ++i) {
    std::vector<Value> values;
    for (size_t c = 0, n = 1 + pick(3); c < n; ++c) {
      values.push_back(corpus[pick(corpus.size())]);
    }
    ragged.emplace_back(std::move(values), degrees[pick(6)]);
  }
  ExpectMatchesMapReference(ragged, "ragged");
}

TEST(RelationTest, CopyForWriteLeavesRoomForTheWritesAppend) {
  for (size_t n : {0u, 1u, 1000u}) {
    Relation r("R", Schema{Column{"A", ValueType::kFuzzy}});
    for (size_t i = 0; i < n; ++i) {
      EXPECT_OK(r.Append(Tuple({Value::Number(static_cast<double>(i))}, 1)));
    }
    Relation c = r.CopyForWrite();
    EXPECT_EQ(c.id(), r.id());
    EXPECT_NE(c.version(), r.version());
    ASSERT_EQ(c.NumTuples(), n);
    const Tuple* storage = c.tuples().data();
    EXPECT_OK(c.Append(Tuple({Value::Number(-1)}, 1)));
    EXPECT_EQ(c.tuples().data(), storage) << n << " tuples";
    EXPECT_EQ(c.NumTuples(), n + 1);
    EXPECT_EQ(r.NumTuples(), n);
  }
}

TEST(RelationTest, AppendOrMaxMergesInPlace) {
  Relation r("R", Schema{Column{"A", ValueType::kFuzzy}});
  EXPECT_OK(r.AppendOrMax(Tuple({Value::Number(1)}, 0.3)));
  EXPECT_OK(r.AppendOrMax(Tuple({Value::Number(1)}, 0.6)));
  EXPECT_OK(r.AppendOrMax(Tuple({Value::Number(1)}, 0.4)));
  EXPECT_EQ(r.NumTuples(), 1u);
  EXPECT_DOUBLE_EQ(r.TupleAt(0).degree(), 0.6);
}

TEST(RelationTest, EquivalentToIgnoresOrderAndDuplicates) {
  Relation a("A", Schema{Column{"X", ValueType::kFuzzy}});
  Relation b("B", Schema{Column{"X", ValueType::kFuzzy}});
  EXPECT_OK(a.Append(Tuple({Value::Number(1)}, 0.5)));
  EXPECT_OK(a.Append(Tuple({Value::Number(2)}, 0.9)));
  EXPECT_OK(b.Append(Tuple({Value::Number(2)}, 0.9)));
  EXPECT_OK(b.Append(Tuple({Value::Number(1)}, 0.2)));
  EXPECT_OK(b.Append(Tuple({Value::Number(1)}, 0.5)));
  EXPECT_TRUE(a.EquivalentTo(b));
  EXPECT_OK(b.Append(Tuple({Value::Number(3)}, 0.1)));
  EXPECT_FALSE(a.EquivalentTo(b));
}

TEST(RelationTest, EquivalentToComparesDegrees) {
  Relation a("A", Schema{Column{"X", ValueType::kFuzzy}});
  Relation b("B", Schema{Column{"X", ValueType::kFuzzy}});
  EXPECT_OK(a.Append(Tuple({Value::Number(1)}, 0.5)));
  EXPECT_OK(b.Append(Tuple({Value::Number(1)}, 0.6)));
  EXPECT_FALSE(a.EquivalentTo(b));
  EXPECT_TRUE(a.EquivalentTo(b, 0.2));
}

// ---------------------------- Catalog --------------------------------

TEST(CatalogTest, AddLookupDrop) {
  Catalog catalog;
  EXPECT_OK(catalog.AddRelation(
      Relation("Emp", Schema{Column{"ID", ValueType::kFuzzy}})));
  EXPECT_TRUE(catalog.HasRelation("emp"));
  ASSERT_OK_AND_ASSIGN(const Relation* rel, catalog.GetRelation("EMP"));
  EXPECT_EQ(rel->name(), "Emp");
  const Status dup = catalog.AddRelation(
      Relation("EMP", Schema{Column{"ID", ValueType::kFuzzy}}));
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  catalog.DropRelation("Emp");
  EXPECT_FALSE(catalog.HasRelation("emp"));
}

TEST(CatalogTest, BuiltInTermsAvailable) {
  Catalog catalog;
  EXPECT_TRUE(catalog.terms().Contains("medium young"));
}

}  // namespace
}  // namespace fuzzydb
