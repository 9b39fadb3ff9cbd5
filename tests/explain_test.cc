#include "engine/explain.h"

#include <gtest/gtest.h>

#include <regex>
#include <sstream>
#include <vector>

#include "shell/shell.h"
#include "test_util.h"

namespace fuzzydb {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  std::string Plan(const std::string& text) {
    auto bound = sql::ParseAndBind(text, catalog_);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    return bound.ok() ? DescribePlan(**bound) : "";
  }

  Catalog catalog_ = testing_util::MakePaperCatalog();
};

TEST_F(ExplainTest, FlatQuery) {
  const std::string plan =
      Plan("SELECT F.NAME FROM F WHERE F.AGE = \"medium young\"");
  EXPECT_NE(plan.find("type FLAT"), std::string::npos);
  EXPECT_NE(plan.find("scan F (4 tuples)"), std::string::npos);
  EXPECT_NE(plan.find("filter: F.AGE ="), std::string::npos);
}

TEST_F(ExplainTest, TypeJNamesTheTheorem) {
  const std::string plan = Plan(
      "SELECT F.NAME FROM F WHERE F.INCOME IN "
      "(SELECT M.INCOME FROM M WHERE M.AGE = F.AGE)");
  EXPECT_NE(plan.find("type J (Theorem 4.2)"), std::string::npos);
  EXPECT_NE(plan.find("semijoin (IN) on F.INCOME"), std::string::npos);
  EXPECT_NE(plan.find("correlation: M.AGE = outer(1)"), std::string::npos);
}

TEST_F(ExplainTest, JXAndJALL) {
  EXPECT_NE(Plan("SELECT F.NAME FROM F WHERE F.INCOME NOT IN "
                 "(SELECT M.INCOME FROM M WHERE M.AGE = F.AGE)")
                .find("anti-semijoin (NOT IN)"),
            std::string::npos);
  EXPECT_NE(Plan("SELECT F.NAME FROM F WHERE F.INCOME <= ALL "
                 "(SELECT M.INCOME FROM M WHERE M.AGE = F.AGE)")
                .find("group-by-min (op ALL)"),
            std::string::npos);
}

TEST_F(ExplainTest, AggregateCountMentionsOuterJoin) {
  const std::string plan = Plan(
      "SELECT F.NAME FROM F WHERE F.INCOME > "
      "(SELECT COUNT(M.INCOME) FROM M WHERE M.AGE = F.AGE)");
  EXPECT_NE(plan.find("Theorem 6.1"), std::string::npos);
  EXPECT_NE(plan.find("left outer join for COUNT"), std::string::npos);
}

TEST_F(ExplainTest, ChainShowsNestedScans) {
  const std::string plan = Plan(
      "SELECT F.NAME FROM F WHERE F.INCOME IN "
      "(SELECT M.INCOME FROM M WHERE M.AGE = F.AGE AND M.INCOME IN "
      "(SELECT F.INCOME FROM F WHERE F.AGE = M.AGE))");
  EXPECT_NE(plan.find("type CHAIN (Theorem 8.1)"), std::string::npos);
  // Three scan lines, one per level.
  size_t scans = 0, pos = 0;
  while ((pos = plan.find("scan ", pos)) != std::string::npos) {
    ++scans;
    pos += 5;
  }
  EXPECT_EQ(scans, 3u);
}

TEST_F(ExplainTest, NaivePlanLineNamesTheReason) {
  // The plan line reports the classifier's decision: a shape the
  // unnested plans do not run names no theorem.
  const std::string plan = Plan(
      "SELECT F.NAME FROM F WHERE F.INCOME IN "
      "(SELECT M.INCOME FROM M WHERE M.AGE = F.AGE GROUP BY M.INCOME)");
  EXPECT_NE(plan.find("plan: type J -- naive evaluation: inner block has "
                      "GROUP BY\n"),
            std::string::npos)
      << plan;
  EXPECT_EQ(plan.find("Theorem"), std::string::npos);
  EXPECT_NE(Plan("SELECT F.NAME FROM F")
                .find("plan: type FLAT -- naive evaluation: flat query\n"),
            std::string::npos);
}

TEST_F(ExplainTest, WithThresholdShown) {
  EXPECT_NE(Plan("SELECT F.NAME FROM F WITH D >= 0.5")
                .find("threshold: WITH D >= 0.5"),
            std::string::npos);
}

// A naive plan runs no unnested operator: each subquery predicate is
// re-evaluated per outer tuple, and the plan says so.
TEST_F(ExplainTest, NaivePlanNamesOnlyTheNestedLoop) {
  const std::string plan = Plan(
      "SELECT MAX(F.ID) FROM F WHERE "
      "F.INCOME IN (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE) AND "
      "F.INCOME <= ALL (SELECT M.INCOME FROM M) AND "
      "F.INCOME > (SELECT COUNT(M.INCOME) FROM M WHERE M.AGE = F.AGE) AND "
      "NOT EXISTS (SELECT M.ID FROM M WHERE M.ID = F.ID) "
      "WITH D >= 0.5");
  EXPECT_EQ(plan,
            "plan: type MULTI -- naive evaluation: outer block selects an "
            "aggregate\n"
            "  scan F (4 tuples)\n"
            "  subquery (IN) on F.INCOME, re-evaluated per outer tuple\n"
            "    scan M (4 tuples)\n"
            "    correlation: M.AGE = outer(1)\n"
            "  subquery (<= ALL) on F.INCOME, re-evaluated per outer tuple\n"
            "    scan M (4 tuples)\n"
            "  subquery (> COUNT) on F.INCOME, re-evaluated per outer tuple\n"
            "    scan M (4 tuples)\n"
            "    correlation: M.AGE = outer(1)\n"
            "  subquery (NOT EXISTS), re-evaluated per outer tuple\n"
            "    scan M (4 tuples)\n"
            "    correlation: M.ID = outer(1)\n"
            "  threshold: WITH D >= 0.5\n");
}

// An unnested 2-level plan under WITH D >= theta names where theta cuts:
// the outer filter, a positive link's inner filter and theta-cut window,
// and nothing on the inner side of NOT IN, ALL or an aggregate. An
// inner WITH masks its link's pair fold.
TEST_F(ExplainTest, TwoLevelThresholdLinesNameTheCuts) {
  const std::string plan = Plan(
      "SELECT F.NAME FROM F WHERE "
      "F.INCOME IN (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE "
      "WITH D >= 0.3) AND "
      "F.AGE NOT IN (SELECT M.AGE FROM M) AND "
      "F.INCOME <= ALL (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE) AND "
      "F.INCOME > (SELECT MAX(M.INCOME) FROM M WHERE M.AGE = F.AGE) AND "
      "EXISTS (SELECT M.ID FROM M WHERE M.AGE < F.AGE) "
      "WITH D >= 0.75");
  EXPECT_NE(plan.find("plan: type MULTI (per-predicate plans"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("    threshold: WITH D >= 0.3 -- masks the pair fold "
                      "after the correlations\n"),
            std::string::npos)
      << plan;
  const std::string kCuts =
      "  threshold: WITH D >= 0.75\n"
      "    cuts the outer filter [F]\n"
      "    IN on F.INCOME: cuts the inner filter [M] and windows on "
      "0.75-cuts\n"
      "    NOT IN on F.AGE: inner kept whole\n"
      "    <= ALL on F.INCOME: inner kept whole\n"
      "    > MAX on F.INCOME: inner kept whole\n"
      "    EXISTS: cuts the inner filter [M]\n";
  ASSERT_GE(plan.size(), kCuts.size()) << plan;
  EXPECT_EQ(plan.substr(plan.size() - kCuts.size()), kCuts) << plan;
  // Without a WITH nothing is cut.
  EXPECT_EQ(Plan("SELECT F.NAME FROM F WHERE F.INCOME IN "
                 "(SELECT M.INCOME FROM M)")
                .find("cuts"),
            std::string::npos);
}

TEST_F(ExplainTest, ChainThresholdLineNamesTheCuts) {
  const std::string plan = Plan(
      "SELECT F.NAME FROM F WHERE F.INCOME IN "
      "(SELECT M.INCOME FROM M WHERE M.AGE = F.AGE AND M.INCOME IN "
      "(SELECT F.INCOME FROM F WHERE F.AGE = M.AGE)) WITH D >= 0.5");
  EXPECT_NE(plan.find("type CHAIN (Theorem 8.1)"), std::string::npos);
  EXPECT_NE(plan.find("  threshold: WITH D >= 0.5\n"
                      "    cuts every level's filter [F, M, F], each join "
                      "step's output and windows on 0.5-cuts\n"),
            std::string::npos)
      << plan;
}

// ----------------------- EXPLAIN [ANALYZE] -----------------------------

// Runs `script` through a shell pinned to one engine thread: spans print
// a threads=N annotation only when N > 1, so the goldens below are
// byte-identical on every machine.
std::string RunShell(const std::string& script) {
  Shell shell;
  shell.set_num_threads(1);
  std::istringstream in(script);
  std::ostringstream out;
  shell.Run(in, out, /*interactive=*/false);
  return out.str();
}

// Strips the fields a golden comparison may not depend on: wall-clock
// times and per-phase times. Which phases appear stays asserted -- the
// enter pattern is deterministic; only the durations vary.
std::string Normalize(const std::string& text) {
  const std::string out =
      std::regex_replace(text, std::regex("wall=[0-9]+\\.[0-9]+ms"),
                         "wall=<t>");
  return std::regex_replace(
      out, std::regex("(plan|filter|sort|window|join|emit)=[0-9.]+ms"),
      "$1=<t>");
}

constexpr const char* kExplainSetup = R"(
CREATE TABLE R (C0 FUZZY, C1 FUZZY, C2 FUZZY);
CREATE TABLE S (C0 FUZZY, C1 FUZZY);
INSERT INTO R VALUES (1, 10, 3);
INSERT INTO R VALUES (2, 1, 3);
INSERT INTO R VALUES (3, 6, 4);
INSERT INTO S VALUES (5, 3);
INSERT INTO S VALUES (7, 3);
INSERT INTO S VALUES (2, 4);
)";

TEST(ExplainAnalyzeTest, PlainExplainShowsThePlanOnly) {
  const std::string out = RunShell(
      std::string(kExplainSetup) +
      "EXPLAIN SELECT R.C0 FROM R WHERE R.C1 IN (SELECT S.C0 FROM S);\n");
  EXPECT_NE(out.find("-- type N"), std::string::npos);
  EXPECT_NE(out.find("plan:"), std::string::npos);
  // No execution happened.
  EXPECT_EQ(out.find("execution trace:"), std::string::npos);
  EXPECT_EQ(out.find("answer tuple"), std::string::npos);
}

TEST(ExplainAnalyzeTest, TypeJaGolden) {
  const std::string out = RunShell(
      std::string(kExplainSetup) +
      "EXPLAIN ANALYZE SELECT R.C0 FROM R WHERE R.C1 > "
      "(SELECT MAX(S.C0) FROM S WHERE S.C1 = R.C2);\n");

  // The golden tail: classification, plan, per-operator trace with
  // cardinalities and exact counter deltas, and the answer count. Wall
  // times are normalized away; every counter is thread-count-invariant
  // (see parallel_test.cc), so this text is stable across machines.
  const std::string kGolden =
      "-- type JA\n"
      "plan: type JA (Theorem 6.1)\n"
      "  scan R (3 tuples)\n"
      "  aggregate pipeline (T1/T2) on R.C1\n"
      "    pairs distinct (R.C2) with distinct (S.C0, S.C1)\n"
      "    scan S (3 tuples)\n"
      "    correlation: S.C1 = outer(1)\n"
      "execution trace:\n"
      "evaluate [JA] wall=<t> rows=->2 "
      "cpu={pairs=3 degrees=6 cmp=14 subq=0}\n"
      "  filter [R] wall=<t> rows=3->3 est=3 "
      "cpu={pairs=0 degrees=0 cmp=0 subq=0}\n"
      "  subquery [AGG MAX] wall=<t> rows=3 "
      "cpu={pairs=3 degrees=6 cmp=14 subq=0}\n"
      "    filter [S] wall=<t> rows=3->3 est=3 "
      "cpu={pairs=0 degrees=0 cmp=0 subq=0}\n"
      "    distinct [S on S.C0,S.C1] wall=<t> rows=3->3 "
      "cpu={pairs=0 degrees=0 cmp=0 subq=0}\n"
      "    distinct [R on R.C2] wall=<t> rows=3->2 "
      "cpu={pairs=0 degrees=0 cmp=0 subq=0}\n"
      "    group-aggregate [merge t1=2] wall=<t> rows=3->2 "
      "cpu={pairs=3 degrees=3 cmp=14 subq=0}\n"
      "      interval-sort [outer-view col2] wall=<t> rows=2 "
      "cpu={pairs=0 degrees=0 cmp=2 subq=0}\n"
      "      interval-sort [col1] wall=<t> rows=3 "
      "cpu={pairs=0 degrees=0 cmp=4 subq=0}\n"
      "      merge-window [inner=3] wall=<t> rows=2->3 "
      "batches=1 rows/batch=3 cpu={pairs=3 degrees=3 cmp=8 subq=0}\n"
      "  emit wall=<t> rows=3->2 cpu={pairs=0 degrees=0 cmp=0 subq=0}\n"
      "-- 2 answer tuples\n"
      "-- phases=plan=<t> filter=<t> sort=<t> window=<t> join=<t> "
      "emit=<t>\n";

  const std::string normalized = Normalize(out);
  const size_t start = normalized.find("-- type JA");
  ASSERT_NE(start, std::string::npos) << out;
  EXPECT_EQ(normalized.substr(start), kGolden);
}

// Data for the batch-annotation golden: R.C1 values that land inside
// the inner merge window so the batched emit path actually runs.
constexpr const char* kBatchExplainSetup = R"(
CREATE TABLE R (C0 FUZZY, C1 FUZZY, C2 FUZZY);
CREATE TABLE S (C0 FUZZY, C1 FUZZY);
INSERT INTO R VALUES (1, 5, 3);
INSERT INTO R VALUES (2, 7, 3);
INSERT INTO R VALUES (3, 6, 4);
INSERT INTO S VALUES (5, 3);
INSERT INTO S VALUES (7, 3);
INSERT INTO S VALUES (2, 4);
)";

TEST(ExplainAnalyzeTest, BatchAnnotationsGolden) {
  // A local predicate makes the filter batch-eligible and the IN link
  // drives the merge window's batched emit path, so both spans carry
  // the "batches=N rows/batch=M" annotation. The batch counts are
  // thread-count-invariant (batches never span a morsel); the shell
  // runs the default batch_size, so this golden is exact.
  const std::string out = RunShell(
      std::string(kBatchExplainSetup) +
      "EXPLAIN ANALYZE SELECT R.C0 FROM R WHERE R.C0 >= 1 AND "
      "R.C1 IN (SELECT S.C0 FROM S);\n");

  const std::string kGolden =
      "-- type N\n"
      "plan: type N (Theorem 4.1)\n"
      "  scan R (3 tuples)\n"
      "  filter: R.C0 >= 1\n"
      "  semijoin (IN) on R.C1\n"
      "    pairs distinct (R.C1) with distinct (S.C0)\n"
      "    scan S (3 tuples)\n"
      "execution trace:\n"
      "evaluate [N] wall=<t> rows=->2 "
      "cpu={pairs=2 degrees=5 cmp=17 subq=0}\n"
      "  filter [R] wall=<t> rows=3->3 est=3 batches=1 rows/batch=3 "
      "cpu={pairs=0 degrees=3 cmp=0 subq=0}\n"
      "  subquery [IN] wall=<t> rows=3 "
      "cpu={pairs=2 degrees=2 cmp=17 subq=0}\n"
      "    filter [S] wall=<t> rows=3->3 est=3 "
      "cpu={pairs=0 degrees=0 cmp=0 subq=0}\n"
      "    distinct [S on S.C0] wall=<t> rows=3->3 "
      "cpu={pairs=0 degrees=0 cmp=0 subq=0}\n"
      "    distinct [R on R.C1] wall=<t> rows=3->3 "
      "cpu={pairs=0 degrees=0 cmp=0 subq=0}\n"
      "    interval-sort [outer-view col1] wall=<t> rows=3 "
      "cpu={pairs=0 degrees=0 cmp=5 subq=0}\n"
      "    interval-sort [col0] wall=<t> rows=3 "
      "cpu={pairs=0 degrees=0 cmp=3 subq=0}\n"
      "    merge-window [inner=3] wall=<t> rows=3->2 est=3 "
      "batches=1 rows/batch=2 "
      "cpu={pairs=2 degrees=2 cmp=9 subq=0}\n"
      "  emit wall=<t> rows=3->2 cpu={pairs=0 degrees=0 cmp=0 subq=0}\n"
      "-- 2 answer tuples\n"
      "-- phases=plan=<t> filter=<t> sort=<t> window=<t> emit=<t>\n";

  const std::string normalized = Normalize(out);
  const size_t start = normalized.find("-- type N");
  ASSERT_NE(start, std::string::npos) << out;
  EXPECT_EQ(normalized.substr(start), kGolden);
}

// A K=3 chain whose link keys overlap only in part, so every chain-join
// step's merge window both retires inner tuples and stops early.
constexpr const char* kChainExplainSetup = R"(
CREATE TABLE R (C0 FUZZY, C1 FUZZY, C2 FUZZY);
CREATE TABLE S (C0 FUZZY, C1 FUZZY);
CREATE TABLE T (C0 FUZZY, C1 FUZZY);
INSERT INTO R VALUES (1, ABOUT(5, 1), ABOUT(3, 1));
INSERT INTO R VALUES (2, ABOUT(9, 1), ABOUT(3, 1));
INSERT INTO R VALUES (3, ABOUT(14, 2), ABOUT(7, 1));
INSERT INTO R VALUES (4, ABOUT(20, 1), ABOUT(7, 1));
INSERT INTO R VALUES (5, ABOUT(6, 2), ABOUT(11, 1));
INSERT INTO R VALUES (6, ABOUT(31, 1), ABOUT(9, 1));
INSERT INTO S VALUES (ABOUT(6, 1), ABOUT(3, 1));
INSERT INTO S VALUES (ABOUT(9, 1), ABOUT(4, 1));
INSERT INTO S VALUES (ABOUT(15, 1), ABOUT(7, 1));
INSERT INTO S VALUES (ABOUT(25, 1), ABOUT(8, 1));
INSERT INTO S VALUES (ABOUT(5, 1), ABOUT(11, 1));
INSERT INTO S VALUES (ABOUT(30, 2), ABOUT(9, 1));
INSERT INTO T VALUES (ABOUT(6, 1), ABOUT(3, 1));
INSERT INTO T VALUES (ABOUT(10, 1), ABOUT(4, 1));
INSERT INTO T VALUES (ABOUT(15, 2), ABOUT(7, 1));
INSERT INTO T VALUES (ABOUT(30, 1), ABOUT(9, 1));
INSERT INTO T VALUES (ABOUT(2, 1), ABOUT(12, 1));
)";

TEST(ExplainAnalyzeTest, ChainGolden) {
  // Pins the chain-join steps' windowed pairs, degree evaluations and
  // comparisons, which the N and JA goldens above do not reach.
  const std::string out = RunShell(
      std::string(kChainExplainSetup) +
      "EXPLAIN ANALYZE SELECT R.C0 FROM R WHERE R.C1 IN "
      "(SELECT S.C0 FROM S WHERE S.C1 = R.C2 AND S.C0 IN "
      "(SELECT T.C0 FROM T WHERE T.C1 = S.C1));\n");

  const std::string kGolden =
      "-- type CHAIN\n"
      "plan: type CHAIN (Theorem 8.1)\n"
      "  scan R (6 tuples)\n"
      "  semijoin (IN) on R.C1\n"
      "    scan S (6 tuples)\n"
      "    correlation: S.C1 = outer(1)\n"
      "    semijoin (IN) on S.C0\n"
      "      scan T (5 tuples)\n"
      "      correlation: T.C1 = outer(1)\n"
      "execution trace:\n"
      "evaluate [CHAIN] wall=<t> rows=->4 "
      "cpu={pairs=11 degrees=21 cmp=72 subq=0}\n"
      "  filter [R] wall=<t> rows=6->6 est=6 "
      "cpu={pairs=0 degrees=0 cmp=0 subq=0}\n"
      "  filter [S] wall=<t> rows=6->6 est=6 "
      "cpu={pairs=0 degrees=0 cmp=0 subq=0}\n"
      "  filter [T] wall=<t> rows=5->5 est=5 "
      "cpu={pairs=0 degrees=0 cmp=0 subq=0}\n"
      "  plan-join-order [levels=3] wall=<t> "
      "cpu={pairs=0 degrees=0 cmp=0 subq=0}\n"
      "  chain-join [level=1 alg=merge] wall=<t> rows=5->4 est=8 "
      "cpu={pairs=5 degrees=10 cmp=35 subq=0}\n"
      "    interval-sort [outer-view col0] wall=<t> rows=5 "
      "cpu={pairs=0 degrees=0 cmp=7 subq=0}\n"
      "    interval-sort [col0] wall=<t> rows=6 "
      "cpu={pairs=0 degrees=0 cmp=9 subq=0}\n"
      "    merge-window [inner=6] wall=<t> rows=5->5 batches=2 "
      "rows/batch=5 cpu={pairs=5 degrees=10 cmp=19 subq=0}\n"
      "  chain-join [level=0 alg=merge] wall=<t> rows=4->4 est=14 "
      "cpu={pairs=6 degrees=11 cmp=37 subq=0}\n"
      "    interval-sort [outer-view col0] wall=<t> rows=4 "
      "cpu={pairs=0 degrees=0 cmp=6 subq=0}\n"
      "    interval-sort [col1] wall=<t> rows=6 "
      "cpu={pairs=0 degrees=0 cmp=13 subq=0}\n"
      "    merge-window [inner=6] wall=<t> rows=4->6 batches=2 "
      "rows/batch=5 cpu={pairs=6 degrees=11 cmp=18 subq=0}\n"
      "  emit wall=<t> rows=4->4 cpu={pairs=0 degrees=0 cmp=0 subq=0}\n"
      "-- 4 answer tuples\n"
      "-- phases=plan=<t> filter=<t> sort=<t> window=<t> join=<t> "
      "emit=<t>\n";

  const std::string normalized = Normalize(out);
  const size_t start = normalized.find("-- type CHAIN");
  ASSERT_NE(start, std::string::npos) << out;
  EXPECT_EQ(normalized.substr(start), kGolden);
}

TEST(ExplainAnalyzeTest, NaiveEngineTracesToo) {
  const std::string out = RunShell(
      std::string(kExplainSetup) +
      ".engine naive\n"
      "EXPLAIN ANALYZE SELECT R.C0 FROM R WHERE R.C1 > "
      "(SELECT MAX(S.C0) FROM S WHERE S.C1 = R.C2);\n");
  EXPECT_NE(out.find("naive-evaluate [R]"), std::string::npos);
  EXPECT_NE(out.find("-- 2 answer tuples"), std::string::npos);
}

TEST(ExplainAnalyzeTest, NaiveReasonRunsOnlyTheNaivePlan) {
  // An inner GROUP BY sends type J to the naive evaluator before any
  // unnested operator runs: the trace holds the root and the naive
  // nested loop, nothing else.
  const std::string out = RunShell(
      std::string(kExplainSetup) +
      "EXPLAIN ANALYZE SELECT R.C0 FROM R WHERE R.C1 IN "
      "(SELECT S.C0 FROM S WHERE S.C1 = R.C2 GROUP BY S.C0);\n");
  const std::string kTraceHeader = "execution trace:\n";
  const size_t begin = out.find(kTraceHeader);
  ASSERT_NE(begin, std::string::npos) << out;
  const size_t end = out.find("\n-- ", begin);
  ASSERT_NE(end, std::string::npos) << out;
  std::istringstream trace(out.substr(begin + kTraceHeader.size(),
                                      end - begin - kTraceHeader.size()));
  std::vector<std::string> spans;
  for (std::string line; std::getline(trace, line);) {
    std::string name;
    std::istringstream(line) >> name;
    spans.push_back(name);
  }
  EXPECT_EQ(spans, (std::vector<std::string>{"evaluate", "naive-evaluate"}))
      << out;
}

TEST(ExplainAnalyzeTest, ThresholdCutsShowInTheTrace) {
  // The rows of degree 0.4 and 0.3 sit below the threshold: both
  // filters drop them, and the window runs on 0.5-cuts. The answer is
  // the naive one.
  const std::string setup = std::string(kExplainSetup) +
                            "INSERT INTO R VALUES (4, 7, 3) DEGREE 0.4;\n"
                            "INSERT INTO R VALUES (5, 5, 3) DEGREE 0.9;\n"
                            "INSERT INTO S VALUES (6, 3) DEGREE 0.3;\n";
  const std::string query =
      "SELECT R.C0 FROM R WHERE R.C1 IN "
      "(SELECT S.C0 FROM S WHERE S.C1 = R.C2) WITH D >= 0.5;\n";
  const std::string out =
      Normalize(RunShell(setup + "EXPLAIN ANALYZE " + query));
  EXPECT_NE(out.find("  filter [R cut=0.5] wall=<t> rows=5->4 "),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("    filter [S cut=0.5] wall=<t> rows=4->3 "),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("    merge-window [cut=0.5 inner=3] "),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("-- 1 answer tuple\n"), std::string::npos) << out;
  const std::string naive = RunShell(setup + ".engine naive\n" + query);
  const std::string unnested = RunShell(setup + query);
  const size_t answer = unnested.find("(anonymous)");
  ASSERT_NE(answer, std::string::npos) << unnested;
  EXPECT_EQ(unnested.substr(answer), naive.substr(naive.find("(anonymous)")));
}

TEST(ExplainAnalyzeTest, RejectsNonSelect) {
  const std::string out =
      RunShell("EXPLAIN CREATE TABLE T (A FUZZY);\n");
  EXPECT_NE(out.find("expected SELECT after EXPLAIN"), std::string::npos);
}

}  // namespace
}  // namespace fuzzydb
