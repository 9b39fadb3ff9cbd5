#include "engine/classifier.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace fuzzydb {
namespace {

class ClassifierTest : public ::testing::Test {
 protected:
  /// The type of `text`, expecting ClassifyQuery to give `reason` (by
  /// default none: the unnested plan runs).
  QueryType TypeOf(const std::string& text,
                   NaiveReason reason = NaiveReason::kNone) {
    auto bound = sql::ParseAndBind(text, catalog_);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    if (!bound.ok()) return QueryType::kGeneral;
    const QueryClass plan = ClassifyQuery(**bound);
    EXPECT_STREQ(NaiveReasonText(plan.reason), NaiveReasonText(reason))
        << text;
    EXPECT_EQ(Classify(**bound), plan.type);
    return plan.type;
  }

  Catalog catalog_ = testing_util::MakePaperCatalog();
};

TEST_F(ClassifierTest, FlatQuery) {
  EXPECT_EQ(TypeOf("SELECT F.NAME FROM F WHERE F.AGE = \"medium young\"",
                   NaiveReason::kFlat),
            QueryType::kFlat);
  EXPECT_EQ(TypeOf("SELECT F.NAME, M.NAME FROM F, M WHERE F.AGE = M.AGE",
                   NaiveReason::kFlat),
            QueryType::kFlat);
}

TEST_F(ClassifierTest, TypeN) {
  // Paper Query 2: uncorrelated IN.
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.AGE = "medium young" AND
            F.INCOME IN (SELECT M.INCOME FROM M WHERE M.AGE = "middle age"))sql"),
            QueryType::kTypeN);
}

TEST_F(ClassifierTest, TypeJ) {
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME IN (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE))sql"),
            QueryType::kTypeJ);
}

TEST_F(ClassifierTest, TypeNXAndJX) {
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME NOT IN (SELECT M.INCOME FROM M))sql"),
            QueryType::kTypeNX);
  // Paper Query 4 shape: correlated NOT IN.
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME IS NOT IN (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE))sql"),
            QueryType::kTypeJX);
}

TEST_F(ClassifierTest, TypeAAndJA) {
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME > (SELECT MAX(M.INCOME) FROM M))sql"),
            QueryType::kTypeA);
  // Paper Query 5 shape.
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME > (SELECT MAX(M.INCOME) FROM M WHERE M.AGE = F.AGE))sql"),
            QueryType::kTypeJA);
}

TEST_F(ClassifierTest, TypeALLAndJALL) {
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME <= ALL (SELECT M.INCOME FROM M))sql"),
            QueryType::kTypeALL);
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME <= ALL (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE))sql"),
            QueryType::kTypeJALL);
}

TEST_F(ClassifierTest, TypeSOMEAndJSOME) {
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME > SOME (SELECT M.INCOME FROM M))sql"),
            QueryType::kTypeSOME);
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME > SOME (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE))sql"),
            QueryType::kTypeJSOME);
}

TEST_F(ClassifierTest, TypeEXISTSAndJEXISTS) {
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE EXISTS (SELECT M.NAME FROM M WHERE M.INCOME > "medium high"))sql"),
            QueryType::kTypeEXISTS);
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE NOT EXISTS (SELECT M.NAME FROM M WHERE M.AGE = F.AGE))sql"),
            QueryType::kTypeJEXISTS);
}

TEST_F(ClassifierTest, ChainQueries) {
  // 3-level chain in the shape of the paper's Query 6 (F -> M -> F).
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME IN
        (SELECT M.INCOME FROM M
         WHERE M.AGE = F.AGE AND M.INCOME IN
           (SELECT F.INCOME FROM F
            WHERE F.AGE = M.AGE)))sql"),
            QueryType::kChain);
}

TEST_F(ClassifierTest, ChainWithSkipLevelCorrelation) {
  // The innermost block references the outermost relation (up = 2),
  // allowed for chains (Section 8's p_{i,j}).
  EXPECT_EQ(TypeOf(R"sql(
      SELECT a.NAME FROM F a
      WHERE a.INCOME IN
        (SELECT b.INCOME FROM M b
         WHERE b.AGE = a.AGE AND b.INCOME IN
           (SELECT c.INCOME FROM F c
            WHERE c.AGE = b.AGE AND c.ID = a.ID)))sql"),
            QueryType::kChain);
}

TEST_F(ClassifierTest, MultiSubqueryQueries) {
  // Two independent subqueries at the same level: the kTypeMulti
  // extension (each evaluated by its own unnested plan, combined by min).
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME IN (SELECT M.INCOME FROM M)
        AND F.AGE IN (SELECT M.AGE FROM M))sql"),
            QueryType::kTypeMulti);
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME IN (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE)
        AND F.INCOME > (SELECT MIN(M.INCOME) FROM M))sql"),
            QueryType::kTypeMulti);
}

TEST_F(ClassifierTest, GeneralQueries) {
  // Two subqueries where one nests further: not multi, not chain.
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME IN (SELECT M.INCOME FROM M)
        AND F.AGE IN (SELECT M.AGE FROM M
                      WHERE M.INCOME IN (SELECT F.INCOME FROM F)))sql",
                   NaiveReason::kOutsideTaxonomy),
            QueryType::kGeneral);
  // NOT IN nested below IN breaks the chain shape.
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME IN
        (SELECT M.INCOME FROM M
         WHERE M.AGE NOT IN (SELECT F.AGE FROM F)))sql",
                   NaiveReason::kOutsideTaxonomy),
            QueryType::kGeneral);
}

// Each reason keeps the paper type and sends the query to the naive
// evaluator.

TEST_F(ClassifierTest, OuterBlockReasons) {
  EXPECT_EQ(TypeOf(R"sql(
      SELECT MAX(F.INCOME) FROM F
      WHERE F.INCOME IN (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE))sql",
                   NaiveReason::kOuterAggregate),
            QueryType::kTypeJ);
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME IN (SELECT M.INCOME FROM M)
      GROUPBY F.NAME)sql",
                   NaiveReason::kOuterGroupBy),
            QueryType::kTypeN);
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F, M
      WHERE F.AGE = M.AGE
        AND F.INCOME IN (SELECT M.INCOME FROM M)
        AND F.ID IN (SELECT M.ID FROM M))sql",
                   NaiveReason::kOuterTables),
            QueryType::kTypeMulti);
  // Chains project plain outer columns too.
  EXPECT_EQ(TypeOf(R"sql(
      SELECT COUNT(F.ID) FROM F
      WHERE F.INCOME IN
        (SELECT M.INCOME FROM M
         WHERE M.AGE = F.AGE AND M.INCOME IN
           (SELECT F.INCOME FROM F WHERE F.AGE = M.AGE)))sql",
                   NaiveReason::kOuterAggregate),
            QueryType::kChain);
}

TEST_F(ClassifierTest, InnerBlockReasons) {
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME IN
        (SELECT b.INCOME FROM M b, M c
         WHERE b.AGE = c.AGE AND b.ID = F.ID))sql",
                   NaiveReason::kInnerTables),
            QueryType::kTypeJ);
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME IN (SELECT M.INCOME FROM M GROUPBY M.INCOME))sql",
                   NaiveReason::kInnerGroupBy),
            QueryType::kTypeN);
  // An IN-family link masks its pair fold with the inner WITH, so every
  // such link runs unnested whatever its threshold.
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME IN
        (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE WITH D >= 0.5))sql"),
            QueryType::kTypeJ);
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME NOT IN (SELECT M.INCOME FROM M WITH D >= 0.5))sql"),
            QueryType::kTypeNX);
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME <= ALL
        (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE WITH D >= 0.5))sql"),
            QueryType::kTypeJALL);
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME > SOME (SELECT M.INCOME FROM M WITH D >= 0.5))sql"),
            QueryType::kTypeSOME);
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE NOT EXISTS
        (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE WITH D >= 0.5))sql"),
            QueryType::kTypeJEXISTS);
  // WITH D >= 0 keeps every survivor, as the unnested plans do.
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME > (SELECT MAX(M.INCOME) FROM M
                        WHERE M.AGE = F.AGE WITH D >= 0))sql"),
            QueryType::kTypeJA);
  // An aggregate link's WITH thresholds the aggregate's degree, not its
  // inputs: no mask runs it.
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME > (SELECT MAX(M.INCOME) FROM M
                        WHERE M.AGE = F.AGE WITH D >= 0.5))sql",
                   NaiveReason::kInnerWith),
            QueryType::kTypeJA);
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME > (SELECT COUNT(M.INCOME) FROM M WITH D >= 0.5))sql",
                   NaiveReason::kInnerWith),
            QueryType::kTypeA);
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME IN
        (SELECT M.INCOME FROM M
         WHERE M.AGE = F.AGE AND M.INCOME IN
           (SELECT F.INCOME FROM F WHERE F.AGE = M.AGE WITH D >= 0.5)))sql",
                   NaiveReason::kInnerWith),
            QueryType::kChain);
}

TEST_F(ClassifierTest, LinkReasons) {
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE 5 IN (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE))sql",
                   NaiveReason::kLinkOperand),
            QueryType::kTypeJ);
  // The middle block links on a column of the outer block, not its own.
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME IN
        (SELECT M.INCOME FROM M
         WHERE F.AGE IN (SELECT F.AGE FROM F)))sql",
                   NaiveReason::kLinkOperand),
            QueryType::kChain);
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME > (SELECT MAX(M.INCOME) FROM M
                        WHERE M.AGE = F.AGE AND M.ID = F.ID))sql",
                   NaiveReason::kJaCorrelations),
            QueryType::kTypeJA);
  // Type A has no correlation at all and runs unnested.
  EXPECT_EQ(TypeOf(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME > (SELECT MAX(M.INCOME) FROM M WHERE M.ID > 201))sql"),
            QueryType::kTypeA);
}

TEST_F(ClassifierTest, DecomposeLinkRejectsCorrelationPastTheEnclosingBlock) {
  // The innermost block references the outermost one (up = 2): a chain
  // runs it, but as a 2-level link of the middle block it skips its
  // enclosing block.
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(R"sql(
      SELECT a.NAME FROM F a
      WHERE a.INCOME IN
        (SELECT b.INCOME FROM M b
         WHERE b.INCOME IN (SELECT c.INCOME FROM F c WHERE c.AGE = a.AGE)))sql",
                                                     catalog_));
  const QueryClass plan = ClassifyQuery(*bound);
  EXPECT_EQ(plan.type, QueryType::kChain);
  EXPECT_EQ(plan.reason, NaiveReason::kNone);
  LinkShape shape;
  const sql::BoundPredicate& middle_link =
      bound->predicates[0].subquery->predicates[0];
  EXPECT_EQ(DecomposeLink(middle_link, &shape),
            NaiveReason::kDeepCorrelation);
  EXPECT_EQ(shape.correlations.size(), 1u);
}

TEST_F(ClassifierTest, ShapesForThePlan) {
  ASSERT_OK_AND_ASSIGN(auto multi, sql::ParseAndBind(R"sql(
      SELECT F.NAME FROM F
      WHERE F.AGE = "middle age"
        AND F.INCOME IN (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE)
        AND NOT EXISTS (SELECT M.NAME FROM M WHERE M.ID = F.ID))sql",
                                                     catalog_));
  const QueryClass two_level = ClassifyQuery(*multi);
  EXPECT_EQ(two_level.type, QueryType::kTypeMulti);
  ASSERT_EQ(two_level.links.size(), 2u);
  EXPECT_EQ(two_level.links[0].pred, &multi->predicates[1]);
  EXPECT_EQ(two_level.links[0].outer_link_col, 3u);  // F.INCOME
  EXPECT_EQ(two_level.links[0].inner_link_col, 3u);  // M.INCOME
  EXPECT_EQ(two_level.links[0].correlations.size(), 1u);
  EXPECT_FALSE(two_level.links[1].has_link_columns);
  EXPECT_TRUE(two_level.links[1].negate_result);
  EXPECT_TRUE(two_level.chain_blocks.empty());

  ASSERT_OK_AND_ASSIGN(auto chain, sql::ParseAndBind(R"sql(
      SELECT F.NAME FROM F
      WHERE F.INCOME IN
        (SELECT M.INCOME FROM M
         WHERE M.AGE = F.AGE AND M.INCOME IN
           (SELECT F.INCOME FROM F WHERE F.AGE = M.AGE)))sql",
                                                     catalog_));
  const QueryClass k3 = ClassifyQuery(*chain);
  EXPECT_EQ(k3.type, QueryType::kChain);
  ASSERT_EQ(k3.chain_blocks.size(), 3u);
  ASSERT_EQ(k3.chain_links.size(), 2u);
  EXPECT_EQ(k3.chain_blocks[0], chain.get());
  EXPECT_EQ(k3.chain_blocks[1], k3.chain_links[0]->subquery.get());
  EXPECT_EQ(k3.chain_blocks[2], k3.chain_links[1]->subquery.get());
  ASSERT_EQ(k3.chain_correlations.size(), 3u);
  EXPECT_TRUE(k3.chain_correlations[0].empty());
  EXPECT_EQ(k3.chain_correlations[1].size(), 1u);
  EXPECT_EQ(k3.chain_correlations[2].size(), 1u);
  EXPECT_TRUE(k3.links.empty());
}

TEST_F(ClassifierTest, NamesAreStable) {
  EXPECT_STREQ(QueryTypeName(QueryType::kTypeJ), "J");
  EXPECT_STREQ(QueryTypeName(QueryType::kTypeJX), "JX");
  EXPECT_STREQ(QueryTypeName(QueryType::kChain), "CHAIN");
}

}  // namespace
}  // namespace fuzzydb
