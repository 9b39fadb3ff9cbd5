// The paper's equivalence theorems, checked empirically: for every query
// type and random database, the unnested plan must produce exactly the
// same fuzzy answer relation (same tuples, same membership degrees) as
// the naive nested evaluation.
//
//   Theorem 4.1  (type N)        Theorem 6.1 (types JA / COUNT)
//   Theorem 4.2  (type J)        Theorem 7.1 (type JALL)
//   Theorem 5.1  (type JX)       Theorem 8.1 (chain queries)
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "engine/naive_evaluator.h"
#include "engine/unnested_evaluator.h"
#include "obs/trace.h"
#include "test_util.h"
#include "workload/generator.h"

namespace fuzzydb {
namespace {

struct EquivalenceCase {
  const char* name;
  const char* query;
  QueryType expected_type;
};

// R has 3 fuzzy columns C0..C2, S and T3 have 2 fuzzy columns C0..C1.
// Small domains make overlaps and exact collisions frequent.
const EquivalenceCase kCases[] = {
    {"TypeN",
     "SELECT R.C0 FROM R WHERE R.C1 IN (SELECT S.C0 FROM S WHERE S.C1 >= 5)",
     QueryType::kTypeN},
    {"TypeN_WithLocalOuterPredicate",
     "SELECT R.C0 FROM R WHERE R.C2 <= 15 AND R.C1 IN (SELECT S.C0 FROM S)",
     QueryType::kTypeN},
    {"TypeJ",
     "SELECT R.C0 FROM R WHERE R.C1 IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)",
     QueryType::kTypeJ},
    {"TypeJ_ReversedCorrelation",
     "SELECT R.C0 FROM R WHERE R.C1 IN "
     "(SELECT S.C0 FROM S WHERE R.C2 = S.C1)",
     QueryType::kTypeJ},
    {"TypeJ_NonEqualityCorrelation",
     "SELECT R.C0 FROM R WHERE R.C1 IN "
     "(SELECT S.C0 FROM S WHERE S.C1 <= R.C2)",
     QueryType::kTypeJ},
    {"TypeJ_TwoCorrelations",
     "SELECT R.C0 FROM R WHERE R.C1 IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2 AND S.C0 >= R.C0)",
     QueryType::kTypeJ},
    {"TypeJ_WithThreshold",
     "SELECT R.C0 FROM R WHERE R.C1 IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2) WITH D >= 0.4",
     QueryType::kTypeJ},
    {"TypeNX",
     "SELECT R.C0 FROM R WHERE R.C1 NOT IN (SELECT S.C0 FROM S)",
     QueryType::kTypeNX},
    {"TypeJX",
     "SELECT R.C0 FROM R WHERE R.C1 NOT IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)",
     QueryType::kTypeJX},
    {"TypeJX_WithInnerLocalPredicate",
     "SELECT R.C0 FROM R WHERE R.C1 NOT IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2 AND S.C0 < 12)",
     QueryType::kTypeJX},
    {"TypeA_Max",
     "SELECT R.C0 FROM R WHERE R.C1 > (SELECT MAX(S.C0) FROM S)",
     QueryType::kTypeA},
    {"TypeJA_Max",
     "SELECT R.C0 FROM R WHERE R.C1 > "
     "(SELECT MAX(S.C0) FROM S WHERE S.C1 = R.C2)",
     QueryType::kTypeJA},
    {"TypeJA_Min",
     "SELECT R.C0 FROM R WHERE R.C1 <= "
     "(SELECT MIN(S.C0) FROM S WHERE S.C1 = R.C2)",
     QueryType::kTypeJA},
    {"TypeJA_Avg",
     "SELECT R.C0 FROM R WHERE R.C1 ~= "
     "(SELECT AVG(S.C0) FROM S WHERE S.C1 = R.C2)",
     QueryType::kTypeJA},
    {"TypeJA_Sum",
     "SELECT R.C0 FROM R WHERE R.C1 < "
     "(SELECT SUM(S.C0) FROM S WHERE S.C1 = R.C2)",
     QueryType::kTypeJA},
    {"TypeJA_Count",
     "SELECT R.C0 FROM R WHERE R.C1 >= "
     "(SELECT COUNT(S.C0) FROM S WHERE S.C1 = R.C2)",
     QueryType::kTypeJA},
    {"TypeJA_CountEmptyGroups",
     "SELECT R.C0 FROM R WHERE R.C1 < "
     "(SELECT COUNT(S.C0) FROM S WHERE S.C1 = R.C2 AND S.C0 > 18)",
     QueryType::kTypeJA},
    {"TypeJA_NonEqualityCorrelation",
     "SELECT R.C0 FROM R WHERE R.C1 > "
     "(SELECT MAX(S.C0) FROM S WHERE S.C1 <= R.C2)",
     QueryType::kTypeJA},
    {"TypeALL",
     "SELECT R.C0 FROM R WHERE R.C1 <= ALL (SELECT S.C0 FROM S)",
     QueryType::kTypeALL},
    {"TypeJALL",
     "SELECT R.C0 FROM R WHERE R.C1 <= ALL "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)",
     QueryType::kTypeJALL},
    {"TypeJALL_GreaterThan",
     "SELECT R.C0 FROM R WHERE R.C1 > ALL "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)",
     QueryType::kTypeJALL},
    {"TypeSOME",
     "SELECT R.C0 FROM R WHERE R.C1 < SOME (SELECT S.C0 FROM S)",
     QueryType::kTypeSOME},
    {"TypeJSOME",
     "SELECT R.C0 FROM R WHERE R.C1 < SOME "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)",
     QueryType::kTypeJSOME},
    {"TypeEXISTS",
     "SELECT R.C0 FROM R WHERE EXISTS (SELECT S.C0 FROM S WHERE S.C1 > 10)",
     QueryType::kTypeEXISTS},
    {"TypeJEXISTS",
     "SELECT R.C0 FROM R WHERE EXISTS "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)",
     QueryType::kTypeJEXISTS},
    {"TypeJNotEXISTS",
     "SELECT R.C0 FROM R WHERE NOT EXISTS "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2 AND S.C0 < R.C1)",
     QueryType::kTypeJEXISTS},
    {"Multi_TwoINs",
     "SELECT R.C0 FROM R WHERE R.C1 IN (SELECT S.C0 FROM S) "
     "AND R.C2 IN (SELECT S.C1 FROM S)",
     QueryType::kTypeMulti},
    {"Multi_MixedKinds",
     "SELECT R.C0 FROM R WHERE "
     "R.C1 IN (SELECT S.C0 FROM S WHERE S.C1 = R.C2) AND "
     "R.C0 <= (SELECT MAX(S.C0) FROM S WHERE S.C1 = R.C1) AND "
     "R.C2 < SOME (SELECT S.C1 FROM S)",
     QueryType::kTypeMulti},
    {"Multi_WithNotInAndExists",
     "SELECT R.C0 FROM R WHERE "
     "R.C1 NOT IN (SELECT S.C0 FROM S WHERE S.C1 = R.C2) AND "
     "EXISTS (SELECT S.C0 FROM S WHERE S.C1 = R.C1)",
     QueryType::kTypeMulti},
    {"Chain3",
     "SELECT R.C0 FROM R WHERE R.C1 IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2 AND S.C0 IN "
     "(SELECT T3.C0 FROM T3 WHERE T3.C1 = S.C1))",
     QueryType::kChain},
    {"Chain3_SkipLevelCorrelation",
     "SELECT R.C0 FROM R WHERE R.C1 IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2 AND S.C0 IN "
     "(SELECT T3.C0 FROM T3 WHERE T3.C1 = S.C1 AND T3.C0 <= R.C0))",
     QueryType::kChain},
    {"Chain4",
     "SELECT R.C0 FROM R WHERE R.C0 IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C1 AND S.C0 IN "
     "(SELECT T3.C0 FROM T3 WHERE T3.C1 = S.C1 AND T3.C0 IN "
     "(SELECT S.C1 FROM S WHERE S.C0 = T3.C0)))",
     QueryType::kChain},
    {"TypeJA_ApproxCorrelationWithin",
     "SELECT R.C0 FROM R WHERE R.C1 > "
     "(SELECT MAX(S.C0) FROM S WHERE S.C1 ~= R.C2 WITHIN 3)",
     QueryType::kTypeJA},
    // An inner WITH on an IN-family link: the inner filter's cut and,
    // correlated, the pair fold's mask.
    {"InnerWith_TypeN",
     "SELECT R.C0 FROM R WHERE R.C1 IN (SELECT S.C0 FROM S WITH D >= 0.3)",
     QueryType::kTypeN},
    {"InnerWith_TypeJ",
     "SELECT R.C0 FROM R WHERE R.C1 IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2 WITH D >= 0.5)",
     QueryType::kTypeJ},
    {"InnerWith_TypeNX",
     "SELECT R.C0 FROM R WHERE R.C1 NOT IN "
     "(SELECT S.C0 FROM S WITH D >= 0.6)",
     QueryType::kTypeNX},
    {"InnerWith_TypeJX",
     "SELECT R.C0 FROM R WHERE R.C1 NOT IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2 WITH D >= 0.5)",
     QueryType::kTypeJX},
    {"InnerWith_TypeALL",
     "SELECT R.C0 FROM R WHERE R.C1 <= ALL "
     "(SELECT S.C0 FROM S WITH D >= 0.5)",
     QueryType::kTypeALL},
    {"InnerWith_TypeJALL",
     "SELECT R.C0 FROM R WHERE R.C1 > ALL "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2 WITH D >= 0.7)",
     QueryType::kTypeJALL},
    {"InnerWith_TypeJSOME",
     "SELECT R.C0 FROM R WHERE R.C1 < SOME "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2 WITH D >= 0.4)",
     QueryType::kTypeJSOME},
    {"InnerWith_TypeEXISTS",
     "SELECT R.C0 FROM R WHERE EXISTS "
     "(SELECT S.C0 FROM S WHERE S.C1 > 10 WITH D >= 0.8)",
     QueryType::kTypeEXISTS},
    {"InnerWith_TypeJEXISTS",
     "SELECT R.C0 FROM R WHERE EXISTS "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2 WITH D >= 0.5)",
     QueryType::kTypeJEXISTS},
    {"InnerWith_TypeJNotEXISTS",
     "SELECT R.C0 FROM R WHERE NOT EXISTS "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2 AND S.C0 < R.C1 WITH D >= 0.5)",
     QueryType::kTypeJEXISTS},
    {"InnerWith_Multi",
     "SELECT R.C0 FROM R WHERE "
     "R.C1 IN (SELECT S.C0 FROM S WHERE S.C1 = R.C2 WITH D >= 0.6) AND "
     "R.C2 NOT IN (SELECT S.C1 FROM S WHERE S.C0 <= R.C0 WITH D >= 0.4)",
     QueryType::kTypeMulti},
};

/// The random database of one seed.
Catalog EquivalenceCatalog(uint64_t seed) {
  Catalog catalog;
  EXPECT_OK(catalog.AddRelation(
      GenerateRandomRelation(seed * 11 + 1, "R", 3, 40)));
  EXPECT_OK(catalog.AddRelation(
      GenerateRandomRelation(seed * 13 + 2, "S", 2, 40)));
  EXPECT_OK(catalog.AddRelation(
      GenerateRandomRelation(seed * 17 + 3, "T3", 2, 25)));
  return catalog;
}

class EquivalenceTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(EquivalenceTest, NaiveAndUnnestedAgree) {
  const EquivalenceCase& test_case = kCases[std::get<0>(GetParam())];
  const uint64_t seed = std::get<1>(GetParam());
  const Catalog catalog = EquivalenceCatalog(seed);

  ASSERT_OK_AND_ASSIGN(auto bound,
                       sql::ParseAndBind(test_case.query, catalog));
  ASSERT_EQ(Classify(*bound), test_case.expected_type) << test_case.query;

  NaiveEvaluator naive;
  ASSERT_OK_AND_ASSIGN(Relation expected, naive.Evaluate(*bound));

  UnnestingEvaluator unnesting;
  ASSERT_OK_AND_ASSIGN(Relation actual, unnesting.Evaluate(*bound));
  EXPECT_TRUE(unnesting.last_was_unnested()) << test_case.query;

  EXPECT_TRUE(expected.EquivalentTo(actual, 1e-12))
      << test_case.name << " seed=" << seed << "\nnaive:\n"
      << expected.ToString(100) << "\nunnested:\n"
      << actual.ToString(100);
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<size_t, uint64_t>>& info) {
  return std::string(kCases[std::get<0>(info.param)].name) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, EquivalenceTest,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(kCases)),
                       ::testing::Values<uint64_t>(1, 2, 3, 4, 5)),
    CaseName);

// WITH D >= theta cuts the outer filter, a positive link's inner filter
// and its window (on theta-cuts), and a chain's every level, window and
// step. Each cut must leave the naive answer, degree bits included, at
// every threshold and thread count.
const char* const kThetas[] = {"0", "0.25", "0.5", "0.75", "0.9", "1"};

class EquivalenceThresholdTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(EquivalenceThresholdTest, CutsKeepTheNaiveAnswer) {
  const EquivalenceCase& test_case = kCases[std::get<0>(GetParam())];
  const std::string query = std::string(test_case.query) + " WITH D >= " +
                            kThetas[std::get<1>(GetParam())];
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const Catalog catalog = EquivalenceCatalog(seed);
    ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(query, catalog));
    ASSERT_EQ(Classify(*bound), test_case.expected_type) << query;
    NaiveEvaluator naive;
    ASSERT_OK_AND_ASSIGN(Relation expected, naive.Evaluate(*bound));
    for (size_t threads : {1u, 4u}) {
      ExecOptions options;
      options.num_threads = threads;
      UnnestingEvaluator unnesting(options);
      ASSERT_OK_AND_ASSIGN(Relation actual, unnesting.Evaluate(*bound));
      EXPECT_TRUE(unnesting.last_was_unnested()) << query;
      EXPECT_TRUE(expected.EquivalentTo(actual, 0.0))
          << query << " seed=" << seed << " threads=" << threads
          << "\nnaive:\n"
          << expected.ToString(100) << "\nunnested:\n"
          << actual.ToString(100);
    }
  }
}

/// Every case whose outer block has no WITH of its own.
std::vector<size_t> CasesWithoutOuterWith() {
  std::vector<size_t> cases;
  for (size_t i = 0; i < std::size(kCases); ++i) {
    const std::string query = kCases[i].query;
    if (query.back() != ')' && query.find(" WITH D") != std::string::npos) {
      continue;
    }
    cases.push_back(i);
  }
  return cases;
}

std::string ThresholdCaseName(
    const ::testing::TestParamInfo<std::tuple<size_t, size_t>>& info) {
  std::string theta = kThetas[std::get<1>(info.param)];
  std::replace(theta.begin(), theta.end(), '.', '_');
  return std::string(kCases[std::get<0>(info.param)].name) + "_theta" +
         theta;
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, EquivalenceThresholdTest,
    ::testing::Combine(::testing::ValuesIn(CasesWithoutOuterWith()),
                       ::testing::Range<size_t>(0, std::size(kThetas))),
    ThresholdCaseName);

// Every subquery link pairs distinct bindings: one row per bit-identical
// tuple of the columns its pair terms read, an inner one carrying its
// rows' max degree (engine/distinct_bindings.h). Over relations whose
// link and correlation columns repeat heavily -- crisp duplicates, one
// value at several degrees, -0.0 beside 0.0, strings and NULLs -- the
// answer must still be the naive one, degree bits included. R.C0 and
// S.C0 hold numbers only (the aggregates read S.C0); R.C1, R.C2 and S.C1
// also hold strings and NULLs.
const EquivalenceCase kDuplicateCases[] = {
    {"TypeN", "SELECT R.C0 FROM R WHERE R.C1 IN (SELECT S.C0 FROM S)",
     QueryType::kTypeN},
    {"TypeJ",
     "SELECT R.C0 FROM R WHERE R.C1 IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)",
     QueryType::kTypeJ},
    {"TypeJ_StringLink",
     "SELECT R.C0 FROM R WHERE R.C2 IN "
     "(SELECT S.C1 FROM S WHERE S.C0 = R.C1)",
     QueryType::kTypeJ},
    {"TypeJX",
     "SELECT R.C0 FROM R WHERE R.C1 NOT IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)",
     QueryType::kTypeJX},
    {"TypeJSOME",
     "SELECT R.C0 FROM R WHERE R.C1 < SOME "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)",
     QueryType::kTypeJSOME},
    {"TypeJALL",
     "SELECT R.C0 FROM R WHERE R.C1 <= ALL "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)",
     QueryType::kTypeJALL},
    {"TypeJEXISTS",
     "SELECT R.C0 FROM R WHERE EXISTS "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)",
     QueryType::kTypeJEXISTS},
    {"TypeJNotEXISTS",
     "SELECT R.C0 FROM R WHERE NOT EXISTS "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2 AND S.C0 < R.C1)",
     QueryType::kTypeJEXISTS},
    {"TypeSOME", "SELECT R.C0 FROM R WHERE R.C1 < SOME (SELECT S.C0 FROM S)",
     QueryType::kTypeSOME},
    {"TypeALL", "SELECT R.C0 FROM R WHERE R.C1 <= ALL (SELECT S.C0 FROM S)",
     QueryType::kTypeALL},
    {"TypeJA_Max",
     "SELECT R.C0 FROM R WHERE R.C1 > "
     "(SELECT MAX(S.C0) FROM S WHERE S.C1 = R.C2)",
     QueryType::kTypeJA},
    {"TypeJA_Count",
     "SELECT R.C0 FROM R WHERE R.C1 >= "
     "(SELECT COUNT(S.C0) FROM S WHERE S.C1 = R.C2)",
     QueryType::kTypeJA},
    {"TypeJA_Avg",
     "SELECT R.C0 FROM R WHERE R.C1 ~= "
     "(SELECT AVG(S.C0) FROM S WHERE S.C1 = R.C2)",
     QueryType::kTypeJA},
    {"Multi",
     "SELECT R.C0 FROM R WHERE "
     "R.C1 IN (SELECT S.C0 FROM S WHERE S.C1 = R.C2) AND "
     "R.C2 NOT IN (SELECT S.C1 FROM S WHERE S.C0 <= R.C1)",
     QueryType::kTypeMulti},
};

/// The duplicate-heavy database of one seed.
Catalog DuplicateCatalog(uint64_t seed) {
  Catalog catalog;
  EXPECT_OK(catalog.AddRelation(testing_util::MakeDuplicateHeavyRelation(
      seed * 11 + 1, "R", {false, true, true}, 60)));
  EXPECT_OK(catalog.AddRelation(testing_util::MakeDuplicateHeavyRelation(
      seed * 13 + 2, "S", {false, true}, 60)));
  return catalog;
}

class EquivalenceDuplicateTest
    : public ::testing::TestWithParam<std::tuple<size_t, const char*>> {};

TEST_P(EquivalenceDuplicateTest, DistinctBindingsKeepTheNaiveAnswer) {
  const EquivalenceCase& test_case =
      kDuplicateCases[std::get<0>(GetParam())];
  const std::string query =
      std::string(test_case.query) + " WITH D >= " + std::get<1>(GetParam());
  size_t reduced = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const Catalog catalog = DuplicateCatalog(seed);
    ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(query, catalog));
    ASSERT_EQ(Classify(*bound), test_case.expected_type) << query;
    NaiveEvaluator naive;
    ASSERT_OK_AND_ASSIGN(Relation expected, naive.Evaluate(*bound));
    for (size_t threads : {1u, 4u}) {
      ExecTrace trace;
      ExecOptions options;
      options.num_threads = threads;
      options.morsel_size = 8;
      options.trace = &trace;
      UnnestingEvaluator unnesting(options);
      ASSERT_OK_AND_ASSIGN(Relation actual, unnesting.Evaluate(*bound));
      EXPECT_TRUE(unnesting.last_was_unnested()) << query;
      EXPECT_TRUE(expected.EquivalentTo(actual, 0.0))
          << query << " seed=" << seed << " threads=" << threads
          << "\nnaive:\n"
          << expected.ToString(100) << "\nunnested:\n"
          << actual.ToString(100);
      for (const TraceNode& node : trace.nodes()) {
        if (node.name == "distinct" && node.output_rows < node.input_rows) {
          ++reduced;
        }
      }
    }
  }
  // The bindings do repeat: some side pairs fewer rows than it has.
  EXPECT_GT(reduced, 0u) << query;
}

std::string DuplicateCaseName(
    const ::testing::TestParamInfo<std::tuple<size_t, const char*>>& info) {
  std::string theta = std::get<1>(info.param);
  std::replace(theta.begin(), theta.end(), '.', '_');
  return std::string(kDuplicateCases[std::get<0>(info.param)].name) +
         "_theta" + theta;
}

INSTANTIATE_TEST_SUITE_P(
    DuplicateBindings, EquivalenceDuplicateTest,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(kDuplicateCases)),
                       ::testing::Values("0", "0.5")),
    DuplicateCaseName);

// A MULTI query's later links see only the outer rows that can still
// answer: before the second link, every row the first link zeroed (or
// left below the threshold) has left, so the second link's outer
// distinct step reads fewer rows than the outer filter emitted. The
// first link holds only for the rows whose R.C2 is the string 'a'.
TEST(EquivalenceMultiTest, DeadRowsLeaveBetweenLinks) {
  const std::string kQuery =
      "SELECT R.C0 FROM R WHERE "
      "R.C2 IN (SELECT S.C1 FROM S WHERE S.C1 = 'a') AND "
      "R.C1 IN (SELECT S.C0 FROM S)";
  for (const char* theta : {"0", "0.5"}) {
    const std::string query = kQuery + " WITH D >= " + theta;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      const Catalog catalog = DuplicateCatalog(seed);
      ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(query, catalog));
      ASSERT_EQ(Classify(*bound), QueryType::kTypeMulti);
      NaiveEvaluator naive;
      ASSERT_OK_AND_ASSIGN(Relation expected, naive.Evaluate(*bound));
      ExecTrace trace;
      ExecOptions options;
      options.trace = &trace;
      UnnestingEvaluator unnesting(options);
      ASSERT_OK_AND_ASSIGN(Relation actual, unnesting.Evaluate(*bound));
      EXPECT_TRUE(expected.EquivalentTo(actual, 0.0))
          << query << " seed=" << seed;
      uint64_t filtered = TraceNode::kNoCount;
      std::vector<uint64_t> outer_reads;  // outer distinct inputs, in order
      for (const TraceNode& node : trace.nodes()) {
        if (node.name == "filter" && node.detail.rfind("R", 0) == 0) {
          filtered = node.output_rows;
        }
        if (node.name == "distinct" && node.detail.rfind("R on ", 0) == 0) {
          outer_reads.push_back(node.input_rows);
        }
      }
      ASSERT_EQ(outer_reads.size(), 2u) << query;
      EXPECT_EQ(outer_reads[0], filtered) << query << " seed=" << seed;
      EXPECT_LT(outer_reads[1] * 4, filtered) << query << " seed=" << seed;
    }
  }
}

// An aggregate outer SELECT answers one row, which no unnested plan
// projects: the query keeps its type, runs on the naive evaluator and
// so agrees with it.
TEST(EquivalenceAggregateSelectTest, RunsNaiveAndAgrees) {
  const std::set<std::string> kShapes = {
      "TypeN",     "TypeJ",     "TypeJX",      "TypeJA_Max",
      "TypeJALL",  "TypeJSOME", "TypeJEXISTS", "Multi_MixedKinds"};
  const std::string kSelect = "SELECT R.C0 FROM R";
  size_t queries = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const Catalog catalog = EquivalenceCatalog(seed);
    for (const EquivalenceCase& test_case : kCases) {
      if (kShapes.count(test_case.name) == 0) continue;
      for (const char* agg : {"MAX", "COUNT", "AVG"}) {
        std::string query = test_case.query;
        ASSERT_EQ(query.compare(0, kSelect.size(), kSelect), 0) << query;
        query.replace(0, kSelect.size(),
                      std::string("SELECT ") + agg + "(R.C0) FROM R");
        ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(query, catalog));
        ASSERT_EQ(Classify(*bound), test_case.expected_type) << query;

        NaiveEvaluator naive;
        ASSERT_OK_AND_ASSIGN(Relation expected, naive.Evaluate(*bound));
        UnnestingEvaluator unnesting;
        ASSERT_OK_AND_ASSIGN(Relation actual, unnesting.Evaluate(*bound));
        EXPECT_FALSE(unnesting.last_was_unnested()) << query;
        EXPECT_TRUE(expected.EquivalentTo(actual, 1e-12))
            << query << " seed=" << seed << "\nnaive:\n"
            << expected.ToString(100) << "\nunnested:\n"
            << actual.ToString(100);
        ++queries;
      }
    }
  }
  EXPECT_EQ(queries, 5 * kShapes.size() * 3);
}

// An uncorrelated link that cannot window (SOME or ALL under an order
// comparison) pairs every distinct outer link value with the inner's
// distinct link values (distinct [S on S.C0] rows=16000->K, then
// nested-pairing [inner=K]). A large inner with mostly distinct values
// keeps that set big, where building it must stay cheap and still agree
// with the naive plan.
TEST(EquivalenceLargeInnerTest, MaterializedUncorrelatedLinkMatchesNaive) {
  Catalog catalog;
  // R lies below S, so R.C1 <= ALL S.C0 holds for most of R.
  ASSERT_OK(catalog.AddRelation(
      GenerateRandomRelation(71, "R", 2, 40, -50, 0)));
  ASSERT_OK(catalog.AddRelation(
      GenerateRandomRelation(72, "S", 1, 16000, 0, 4000)));
  std::set<Value, ValueLess> distinct;
  for (const Tuple& t : catalog.GetRelation("S").value()->tuples()) {
    distinct.insert(t.ValueAt(0));
  }
  ASSERT_GT(distinct.size(), 8000u);
  for (const char* query :
       {"SELECT R.C0 FROM R WHERE R.C1 < SOME (SELECT S.C0 FROM S)",
        "SELECT R.C0 FROM R WHERE R.C1 <= ALL (SELECT S.C0 FROM S)"}) {
    ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(query, catalog));
    NaiveEvaluator naive;
    ASSERT_OK_AND_ASSIGN(Relation expected, naive.Evaluate(*bound));
    ExecTrace trace;
    ExecOptions options;
    options.trace = &trace;
    UnnestingEvaluator unnesting(options);
    ASSERT_OK_AND_ASSIGN(Relation actual, unnesting.Evaluate(*bound));
    EXPECT_TRUE(unnesting.last_was_unnested()) << query;
    EXPECT_GT(expected.NumTuples(), 0u) << query;
    EXPECT_TRUE(expected.EquivalentTo(actual, 1e-12))
        << query << "\nnaive:\n" << expected.ToString(100)
        << "\nunnested:\n" << actual.ToString(100);
    size_t inner_distincts = 0;
    size_t pairings = 0;
    for (const TraceNode& node : trace.nodes()) {
      if (node.name == "distinct" && node.detail == "S on S.C0") {
        ++inner_distincts;
        EXPECT_EQ(node.input_rows, 16000u) << query;
        EXPECT_EQ(node.output_rows, distinct.size()) << query;
      }
      if (node.name != "nested-pairing") continue;
      ++pairings;
      EXPECT_EQ(node.detail, "inner=" + std::to_string(distinct.size()))
          << query;
    }
    EXPECT_EQ(inner_distincts, 1u) << query;
    EXPECT_EQ(pairings, 1u) << query;
  }
}

// Partial membership degrees in base relations must also be preserved.
TEST(EquivalenceDegreesTest, PartialBaseMembership) {
  for (uint64_t seed = 10; seed < 14; ++seed) {
    WorkloadConfig config;
    config.seed = seed;
    config.num_r = 60;
    config.num_s = 60;
    config.join_fanout = 5;
    config.partial_membership_fraction = 0.7;
    TypeJDataset dataset = GenerateTypeJDataset(config);

    Catalog catalog;
    ASSERT_OK(catalog.AddRelation(dataset.r));
    ASSERT_OK(catalog.AddRelation(dataset.s));
    ASSERT_OK_AND_ASSIGN(
        auto bound,
        sql::ParseAndBind("SELECT R.X FROM R WHERE R.Y IN "
                          "(SELECT S.Z FROM S WHERE S.V = R.U)",
                          catalog));
    NaiveEvaluator naive;
    UnnestingEvaluator unnesting;
    ASSERT_OK_AND_ASSIGN(Relation expected, naive.Evaluate(*bound));
    ASSERT_OK_AND_ASSIGN(Relation actual, unnesting.Evaluate(*bound));
    EXPECT_TRUE(expected.EquivalentTo(actual, 1e-12)) << "seed " << seed;
    EXPECT_GT(expected.NumTuples(), 0u);
  }
}

}  // namespace
}  // namespace fuzzydb
