#include <gtest/gtest.h>

#include "engine/naive_evaluator.h"
#include "engine/unnested_evaluator.h"
#include "sql/parser.h"
#include "test_util.h"

namespace fuzzydb {
namespace {

class GroupByTest : public ::testing::Test {
 protected:
  GroupByTest() {
    // Orders: department, item price (possibly estimated), degree = how
    // certain the record is.
    Relation orders("Orders", Schema{Column{"DEPT", ValueType::kString},
                                     Column{"PRICE", ValueType::kFuzzy}});
    auto add = [&](const char* dept, Value price, double degree) {
      EXPECT_OK(orders.Append(
          Tuple({Value::String(dept), std::move(price)}, degree)));
    };
    add("toys", Value::Number(10), 1.0);
    add("toys", Value::Number(30), 0.8);
    add("toys", Value::Number(10), 0.5);  // duplicate price, lower degree
    add("books", Value::Number(20), 0.6);
    add("books", Value::Fuzzy(Trapezoid(22, 24, 26, 28)), 1.0);
    add("tools", Value::Number(100), 0.4);
    EXPECT_OK(catalog_.AddRelation(std::move(orders)));
  }

  Relation Run(const std::string& text) {
    auto bound = sql::ParseAndBind(text, catalog_);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    NaiveEvaluator naive;
    auto result = naive.Evaluate(**bound);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  double GroupDegree(const Relation& relation, const std::string& key) {
    return testing_util::DegreeOf(relation, key);
  }

  Catalog catalog_;
};

TEST_F(GroupByTest, ParsesAndRoundTrips) {
  ASSERT_OK_AND_ASSIGN(auto q, sql::ParseQuery(
      "SELECT DEPT, COUNT(PRICE) FROM Orders GROUPBY DEPT "
      "HAVING COUNT(PRICE) >= 2 AND DEPT <> 'tools' ORDER BY DEPT"));
  EXPECT_EQ(q->group_by.size(), 1u);
  ASSERT_EQ(q->having.size(), 2u);
  EXPECT_EQ(q->having[0].agg, sql::AggFunc::kCount);
  EXPECT_EQ(q->having[1].agg, sql::AggFunc::kNone);
  ASSERT_OK_AND_ASSIGN(auto q2, sql::ParseQuery(q->ToString()));
  EXPECT_EQ(q->ToString(), q2->ToString());
}

TEST_F(GroupByTest, GroupDegreesAreMaxOfMembers) {
  const Relation answer = Run("SELECT DEPT FROM Orders GROUPBY DEPT");
  ASSERT_EQ(answer.NumTuples(), 3u);
  EXPECT_DOUBLE_EQ(GroupDegree(answer, "toys"), 1.0);
  EXPECT_DOUBLE_EQ(GroupDegree(answer, "books"), 1.0);
  EXPECT_DOUBLE_EQ(GroupDegree(answer, "tools"), 0.4);
}

TEST_F(GroupByTest, CountCountsDistinctValuesPerGroup) {
  const Relation answer =
      Run("SELECT DEPT, COUNT(PRICE) FROM Orders GROUPBY DEPT");
  for (const Tuple& t : answer.tuples()) {
    const std::string dept = t.ValueAt(0).AsString();
    const double count = t.ValueAt(1).AsFuzzy().CrispValue();
    // toys: {10, 30} (the duplicate 10 merges); books: 2; tools: 1.
    if (dept == "toys") {
      EXPECT_DOUBLE_EQ(count, 2.0);
    } else if (dept == "books") {
      EXPECT_DOUBLE_EQ(count, 2.0);
    } else if (dept == "tools") {
      EXPECT_DOUBLE_EQ(count, 1.0);
    }
  }
}

TEST_F(GroupByTest, SumUsesFuzzyArithmeticPerGroup) {
  const Relation answer =
      Run("SELECT DEPT, SUM(PRICE) FROM Orders GROUPBY DEPT");
  for (const Tuple& t : answer.tuples()) {
    if (t.ValueAt(0).AsString() == "books") {
      // 20 + trap(22,24,26,28) = trap(42,44,46,48).
      EXPECT_EQ(t.ValueAt(1).AsFuzzy(), Trapezoid(42, 44, 46, 48));
    }
    if (t.ValueAt(0).AsString() == "toys") {
      EXPECT_EQ(t.ValueAt(1).AsFuzzy(), Trapezoid::Crisp(40));
    }
  }
}

TEST_F(GroupByTest, HavingAggregateFiltersFuzzily) {
  // MAX(PRICE) > 25: toys max 30 -> degree 1; books max ~ trap centered
  // 25 -> partial; tools max 100 -> 1 but group degree 0.4.
  const Relation answer = Run(
      "SELECT DEPT FROM Orders GROUPBY DEPT HAVING MAX(PRICE) > 25");
  EXPECT_DOUBLE_EQ(GroupDegree(answer, "toys"), 1.0);
  EXPECT_DOUBLE_EQ(GroupDegree(answer, "tools"), 0.4);
  // books: MAX by core center is trap(22,24,26,28) (center 25 > 20);
  // d(trap > 25) = Poss(25 < trap): values above 25 are possible -> 1.
  EXPECT_DOUBLE_EQ(GroupDegree(answer, "books"), 1.0);

  const Relation strict = Run(
      "SELECT DEPT FROM Orders GROUPBY DEPT HAVING MAX(PRICE) >= 29");
  // books' max cannot reach 29 (support ends at 28) -> excluded.
  EXPECT_EQ(GroupDegree(strict, "books"), -1.0);
  EXPECT_DOUBLE_EQ(GroupDegree(strict, "toys"), 1.0);
}

TEST_F(GroupByTest, HavingOnGroupColumn) {
  const Relation answer = Run(
      "SELECT DEPT FROM Orders GROUPBY DEPT HAVING DEPT <> 'toys'");
  EXPECT_EQ(GroupDegree(answer, "toys"), -1.0);
  EXPECT_DOUBLE_EQ(GroupDegree(answer, "books"), 1.0);
}

TEST_F(GroupByTest, HavingCountAndWith) {
  const Relation answer = Run(
      "SELECT DEPT FROM Orders GROUPBY DEPT "
      "HAVING COUNT(PRICE) >= 2 WITH D >= 0.5");
  // tools has one value (count 1) -> out; toys & books stay.
  ASSERT_EQ(answer.NumTuples(), 2u);
}

TEST_F(GroupByTest, WhereFiltersBeforeGrouping) {
  const Relation answer = Run(
      "SELECT DEPT, COUNT(PRICE) FROM Orders "
      "WHERE PRICE <= 15 GROUPBY DEPT");
  // Only the two toys@10 rows survive (merging to one distinct value).
  ASSERT_EQ(answer.NumTuples(), 1u);
  EXPECT_EQ(answer.TupleAt(0).ValueAt(0).AsString(), "toys");
  EXPECT_DOUBLE_EQ(answer.TupleAt(0).ValueAt(1).AsFuzzy().CrispValue(), 1.0);
}

TEST_F(GroupByTest, BinderRejectsBadShapes) {
  // Non-grouped column in SELECT.
  EXPECT_FALSE(sql::ParseAndBind(
                   "SELECT PRICE FROM Orders GROUPBY DEPT", catalog_)
                   .ok());
  // HAVING without GROUPBY.
  EXPECT_FALSE(sql::ParseAndBind(
                   "SELECT DEPT FROM Orders HAVING COUNT(PRICE) > 1",
                   catalog_)
                   .ok());
  // HAVING plain column not in GROUPBY.
  EXPECT_FALSE(sql::ParseAndBind("SELECT DEPT FROM Orders GROUPBY DEPT "
                                 "HAVING PRICE > 3",
                                 catalog_)
                   .ok());
  // Scalar subquery with GROUPBY.
  EXPECT_FALSE(sql::ParseAndBind(
                   "SELECT DEPT FROM Orders o WHERE o.PRICE > "
                   "(SELECT MAX(PRICE) FROM Orders GROUPBY DEPT)",
                   catalog_)
                   .ok());
}

TEST_F(GroupByTest, GroupedSubqueryInINWorks) {
  // IN-subquery producing one value per group: legal and useful.
  const Relation answer = Run(
      "SELECT DEPT FROM Orders o WHERE o.DEPT IN "
      "(SELECT DEPT FROM Orders GROUPBY DEPT HAVING COUNT(PRICE) >= 2)");
  EXPECT_DOUBLE_EQ(GroupDegree(answer, "toys"), 1.0);
  EXPECT_EQ(GroupDegree(answer, "tools"), -1.0);
}

TEST_F(GroupByTest, UnnestingEvaluatorFallsBackAndAgrees) {
  auto bound = sql::ParseAndBind(
      "SELECT DEPT, AVG(PRICE) FROM Orders GROUPBY DEPT "
      "HAVING COUNT(PRICE) >= 2",
      catalog_);
  ASSERT_TRUE(bound.ok());
  NaiveEvaluator naive;
  UnnestingEvaluator unnesting;
  ASSERT_OK_AND_ASSIGN(Relation expected, naive.Evaluate(**bound));
  ASSERT_OK_AND_ASSIGN(Relation actual, unnesting.Evaluate(**bound));
  EXPECT_TRUE(expected.EquivalentTo(actual, 1e-12));
  EXPECT_GT(expected.NumTuples(), 0u);
}

}  // namespace
}  // namespace fuzzydb
