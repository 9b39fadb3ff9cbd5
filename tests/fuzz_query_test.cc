// Grammar-driven fuzzing of the whole pipeline: random Fuzzy SQL queries
// over random databases, round-tripped through the printer/parser and
// evaluated by both engines. Complements equivalence_test.cc's fixed
// query set with shapes no one thought to write down.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/naive_evaluator.h"
#include "engine/unnested_evaluator.h"
#include "sql/parser.h"
#include "test_util.h"
#include "workload/generator.h"

namespace fuzzydb {
namespace {

/// Generates random queries over relations R(C0..C2), S(C0..C1),
/// T3(C0..C1).
class QueryGenerator {
 public:
  explicit QueryGenerator(uint64_t seed) : rng_(seed) {}

  std::string Generate() { return SelectBlock("R", 3, /*depth=*/0); }

 private:
  std::string Column(const std::string& table, size_t num_cols) {
    return table + ".C" + std::to_string(rng_.UniformInt(0, num_cols - 1));
  }

  std::string Constant() {
    switch (rng_.UniformInt(0, 2)) {
      case 0:
        return std::to_string(rng_.UniformInt(0, 20));
      case 1: {
        const int64_t v = rng_.UniformInt(2, 18);
        return "ABOUT(" + std::to_string(v) + ", " +
               std::to_string(rng_.UniformInt(1, 4)) + ")";
      }
      default: {
        int64_t c[4] = {rng_.UniformInt(0, 20), rng_.UniformInt(0, 20),
                        rng_.UniformInt(0, 20), rng_.UniformInt(0, 20)};
        std::sort(c, c + 4);
        return "TRAP(" + std::to_string(c[0]) + "," + std::to_string(c[1]) +
               "," + std::to_string(c[2]) + "," + std::to_string(c[3]) + ")";
      }
    }
  }

  std::string Op() {
    static const char* kOps[] = {"=", "<>", "<", "<=", ">", ">=", "~="};
    return kOps[rng_.UniformInt(0, 6)];
  }

  std::string LocalPredicate(const std::string& table, size_t num_cols) {
    return Column(table, num_cols) + " " + Op() + " " + Constant();
  }

  /// One subquery predicate against relation `inner` correlated (or not)
  /// with `outer`.
  std::string SubqueryPredicate(const std::string& outer, size_t outer_cols,
                                const std::string& inner, size_t inner_cols,
                                int depth) {
    std::string where;
    int conjuncts = 0;
    auto add = [&](const std::string& pred) {
      where += (conjuncts++ == 0 ? " WHERE " : " AND ") + pred;
    };
    if (rng_.Bernoulli(0.7)) {  // correlation predicate
      add(Column(inner, inner_cols) + " " + (rng_.Bernoulli(0.7) ? "=" : Op()) +
          " " + Column(outer, outer_cols));
    }
    if (rng_.Bernoulli(0.4)) {
      add(LocalPredicate(inner, inner_cols));
    }
    // Occasionally nest one level deeper (chain-ish / general).
    if (depth < 1 && rng_.Bernoulli(0.25)) {
      add(Column(inner, inner_cols) + " IN (SELECT T3.C0 FROM T3 WHERE " +
          "T3.C1 = " + Column(inner, inner_cols) + ")");
    }

    // Occasionally a second inner table, joined to the first by a local
    // comparison.
    std::string from = inner;
    if (rng_.Bernoulli(0.15)) {
      from += ", T3";
      if (rng_.Bernoulli(0.5)) {
        add("T3.C" + std::to_string(rng_.UniformInt(0, 1)) + " " + Op() +
            " " + Column(inner, inner_cols));
      }
    }

    // Occasionally a grouped set subquery (one value per group).
    std::string group_suffix;
    std::string sub_column = Column(inner, inner_cols);
    if (rng_.Bernoulli(0.15)) {
      group_suffix = " GROUPBY " + sub_column;
      if (rng_.Bernoulli(0.5)) {
        group_suffix += " HAVING COUNT(" + Column(inner, inner_cols) +
                        ") >= " + std::to_string(rng_.UniformInt(1, 3));
      }
    }
    // Occasionally an inner WITH threshold.
    const std::string with_suffix = rng_.Bernoulli(0.15) ? WithClause() : "";
    const std::string sub = "(SELECT " + sub_column + " FROM " + from +
                            where + group_suffix + with_suffix + ")";
    const std::string agg_sub = "(SELECT " + Aggregate() + "(" + inner +
                                ".C0) FROM " + from + where + with_suffix +
                                ")";
    switch (rng_.UniformInt(0, 5)) {
      case 0:
        return Column(outer, outer_cols) + " IN " + sub;
      case 1:
        return Column(outer, outer_cols) + " NOT IN " + sub;
      case 2:
        return Column(outer, outer_cols) + " " + Op() + " ALL " + sub;
      case 3:
        return Column(outer, outer_cols) + " " + Op() + " SOME " + sub;
      case 4:
        return std::string(rng_.Bernoulli(0.5) ? "EXISTS " : "NOT EXISTS ") +
               sub;
      default:
        return Column(outer, outer_cols) + " " + Op() + " " + agg_sub;
    }
  }

  std::string Aggregate() {
    static const char* kAggs[] = {"MAX", "MIN", "SUM", "AVG", "COUNT"};
    return kAggs[rng_.UniformInt(0, 4)];
  }

  std::string WithClause() {
    return " WITH D >= 0." + std::to_string(rng_.UniformInt(1, 8));
  }

  std::string SelectBlock(const std::string& table, size_t num_cols,
                          int depth) {
    // About one query in five selects an aggregate of an outer column.
    const std::string item =
        rng_.Bernoulli(0.2)
            ? Aggregate() + "(" + Column(table, num_cols) + ")"
            : Column(table, num_cols);
    std::string query = "SELECT " + item + " FROM " + table;
    int conjuncts = 0;
    auto add = [&](const std::string& pred) {
      query += (conjuncts++ == 0 ? " WHERE " : " AND ") + pred;
    };
    if (rng_.Bernoulli(0.5)) add(LocalPredicate(table, num_cols));
    const int subqueries = static_cast<int>(rng_.UniformInt(0, 2));
    for (int i = 0; i < subqueries; ++i) {
      add(SubqueryPredicate(table, num_cols, "S", 2, depth));
    }
    if (rng_.Bernoulli(0.3)) query += WithClause();
    return query;
  }

  Rng rng_;
};

class FuzzQueryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzQueryTest, PipelineSurvivesAndEnginesAgree) {
  const uint64_t seed = GetParam();
  Catalog catalog;
  ASSERT_OK(catalog.AddRelation(
      GenerateRandomRelation(seed * 3 + 1, "R", 3, 25)));
  ASSERT_OK(catalog.AddRelation(
      GenerateRandomRelation(seed * 5 + 2, "S", 2, 25)));
  ASSERT_OK(catalog.AddRelation(
      GenerateRandomRelation(seed * 7 + 3, "T3", 2, 15)));

  QueryGenerator generator(seed);
  // 64 trials: the naive-only shapes (aggregate SELECT, inner WITH, two
  // inner tables) take a share, so about as many queries run an unnested
  // plan as 40 trials did without them.
  int evaluated = 0;
  for (int trial = 0; trial < 64; ++trial) {
    const std::string text = generator.Generate();
    SCOPED_TRACE(text);

    // Parse; every generated query must be grammatical.
    auto parsed = sql::ParseQuery(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

    // Printer round-trip: ToString must re-parse to the same text.
    auto reparsed = sql::ParseQuery((*parsed)->ToString());
    ASSERT_TRUE(reparsed.ok()) << (*parsed)->ToString();
    EXPECT_EQ((*parsed)->ToString(), (*reparsed)->ToString());

    auto bound = sql::Bind(**parsed, catalog);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();

    NaiveEvaluator naive;
    auto expected = naive.Evaluate(**bound);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    UnnestingEvaluator unnesting;
    auto actual = unnesting.Evaluate(**bound);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    // The unnested plan ran exactly when the classifier gave no reason.
    const QueryClass plan = ClassifyQuery(**bound);
    EXPECT_EQ(unnesting.last_was_unnested(),
              plan.reason == NaiveReason::kNone)
        << NaiveReasonText(plan.reason);

    EXPECT_TRUE(expected->EquivalentTo(*actual, 1e-9))
        << "type " << QueryTypeName(unnesting.last_type()) << "\nnaive:\n"
        << expected->ToString(60) << "unnested:\n"
        << actual->ToString(60);
    ++evaluated;
  }
  EXPECT_EQ(evaluated, 64);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzQueryTest,
                         ::testing::Range<uint64_t>(100, 112));

}  // namespace
}  // namespace fuzzydb
