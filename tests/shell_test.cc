#include "shell/shell.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "sql/statement.h"
#include "test_util.h"

namespace fuzzydb {
namespace {

// -------------------------- Statement parser ---------------------------

TEST(StatementParserTest, CreateTable) {
  ASSERT_OK_AND_ASSIGN(
      sql::Statement statement,
      sql::ParseStatement(
          "CREATE TABLE Emp (NAME STRING, AGE FUZZY, SALARY NUMBER)"));
  EXPECT_EQ(statement.kind, sql::Statement::Kind::kCreateTable);
  EXPECT_EQ(statement.create_table.name, "Emp");
  ASSERT_EQ(statement.create_table.schema.NumColumns(), 3u);
  EXPECT_EQ(statement.create_table.schema.ColumnAt(0).type,
            ValueType::kString);
  EXPECT_EQ(statement.create_table.schema.ColumnAt(2).type,
            ValueType::kFuzzy);
}

TEST(StatementParserTest, CreateTableRejectsBadType) {
  EXPECT_FALSE(sql::ParseStatement("CREATE TABLE T (A BLOB)").ok());
  EXPECT_FALSE(sql::ParseStatement("CREATE TABLE T ()").ok());
}

TEST(StatementParserTest, InsertWithAllLiteralKinds) {
  ASSERT_OK_AND_ASSIGN(
      sql::Statement statement,
      sql::ParseStatement("INSERT INTO T VALUES "
                          "('str', 3.5, -2, \"a term\", TRAP(1,2,3,4), "
                          "ABOUT(10, 2), NULL) DEGREE 0.75"));
  EXPECT_EQ(statement.kind, sql::Statement::Kind::kInsert);
  EXPECT_EQ(statement.insert.table, "T");
  ASSERT_EQ(statement.insert.values.size(), 7u);
  EXPECT_TRUE(statement.insert.values[0].value.is_string());
  EXPECT_DOUBLE_EQ(statement.insert.values[2].value.AsFuzzy().CrispValue(),
                   -2.0);
  EXPECT_EQ(statement.insert.values[3].term, "a term");
  EXPECT_EQ(statement.insert.values[4].value.AsFuzzy(), Trapezoid(1, 2, 3, 4));
  EXPECT_TRUE(statement.insert.values[6].value.is_null());
  EXPECT_DOUBLE_EQ(statement.insert.degree, 0.75);
}

TEST(StatementParserTest, InsertRejectsBadDegree) {
  EXPECT_FALSE(
      sql::ParseStatement("INSERT INTO T VALUES (1) DEGREE 0").ok());
  EXPECT_FALSE(
      sql::ParseStatement("INSERT INTO T VALUES (1) DEGREE 1.5").ok());
}

TEST(StatementParserTest, DefineTermAndDrop) {
  ASSERT_OK_AND_ASSIGN(
      sql::Statement term,
      sql::ParseStatement("DEFINE TERM \"warm\" AS TRAP(15, 20, 25, 30)"));
  EXPECT_EQ(term.kind, sql::Statement::Kind::kDefineTerm);
  EXPECT_EQ(term.define_term.name, "warm");
  EXPECT_EQ(term.define_term.value, Trapezoid(15, 20, 25, 30));

  ASSERT_OK_AND_ASSIGN(sql::Statement drop,
                       sql::ParseStatement("DROP TABLE Emp"));
  EXPECT_EQ(drop.kind, sql::Statement::Kind::kDropTable);
  EXPECT_EQ(drop.drop_table.name, "Emp");
}

TEST(StatementParserTest, SelectPassesThrough) {
  ASSERT_OK_AND_ASSIGN(sql::Statement statement,
                       sql::ParseStatement("SELECT R.X FROM R"));
  EXPECT_EQ(statement.kind, sql::Statement::Kind::kSelect);
  ASSERT_NE(statement.select, nullptr);
}

TEST(StatementParserTest, RejectsGarbage) {
  EXPECT_FALSE(sql::ParseStatement("UPDATE T SET x = 1").ok());
  EXPECT_FALSE(sql::ParseStatement("SELECT R.X FROM R WHERE 42").ok());
  EXPECT_FALSE(sql::ParseStatement("SELECT R.X FROM R; SELECT 2").ok());
}

// ------------------------------ Shell ----------------------------------

std::string RunScript(const std::string& script) {
  Shell shell;
  std::istringstream in(script);
  std::ostringstream out;
  shell.Run(in, out, /*interactive=*/false);
  return out.str();
}

TEST(ShellTest, CreateInsertSelectRoundTrip) {
  const std::string out = RunScript(R"(
CREATE TABLE People (NAME STRING, AGE FUZZY);
INSERT INTO People VALUES ('ana', 24);
INSERT INTO People VALUES ('bo', TRAP(20, 25, 30, 35)) DEGREE 0.9;
SELECT NAME FROM People WHERE AGE = "medium young" WITH D >= 0.5;
)");
  EXPECT_NE(out.find("created People"), std::string::npos);
  EXPECT_NE(out.find("'ana' | D=0.8"), std::string::npos);
  EXPECT_NE(out.find("'bo' | D=0.9"), std::string::npos);
}

TEST(ShellTest, MultiLineStatements) {
  const std::string out = RunScript(
      "CREATE TABLE T\n"
      "  (A FUZZY);\n"
      "INSERT INTO T\n"
      "  VALUES (7);\n"
      "SELECT A FROM T;\n");
  EXPECT_NE(out.find("created T"), std::string::npos);
  EXPECT_NE(out.find("[7 | D=1]"), std::string::npos);
}

TEST(ShellTest, DotCommands) {
  const std::string out = RunScript(R"(
CREATE TABLE T (A FUZZY);
.tables
.schema T
.explain on
SELECT A FROM T WHERE A IN (SELECT A FROM T);
)");
  EXPECT_NE(out.find("T (0 tuples)"), std::string::npos);
  EXPECT_NE(out.find("(A FUZZY)"), std::string::npos);
  EXPECT_NE(out.find("-- type N"), std::string::npos);
}

TEST(ShellTest, EngineSwitchAndIdenticalAnswers) {
  const std::string script = R"(
CREATE TABLE R (X FUZZY, Y FUZZY);
CREATE TABLE S (Z FUZZY, V FUZZY);
INSERT INTO R VALUES (1, 5);
INSERT INTO R VALUES (2, 9);
INSERT INTO S VALUES (5, 1);
SELECT X FROM R WHERE Y IN (SELECT Z FROM S);
.engine naive
SELECT X FROM R WHERE Y IN (SELECT Z FROM S);
)";
  const std::string out = RunScript(script);
  // Both engines report the same single answer.
  size_t first = out.find("[1 | D=1]");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(out.find("[1 | D=1]", first + 1), std::string::npos);
  EXPECT_EQ(out.find("[2 |"), std::string::npos);
}

TEST(ShellTest, ErrorsAreReportedNotFatal) {
  const std::string out = RunScript(R"(
SELECT X FROM Nowhere;
CREATE TABLE T (A FUZZY);
INSERT INTO T VALUES (1, 2);
SELECT A FROM T;
)");
  EXPECT_NE(out.find("NotFound"), std::string::npos);
  EXPECT_NE(out.find("InvalidArgument"), std::string::npos);
  // The session kept going.
  EXPECT_NE(out.find("[0 tuples]"), std::string::npos);
}

TEST(ShellTest, SaveAndOpen) {
  const std::string dir = ::testing::TempDir() + "/fuzzydb_shell_db";
  const std::string out = RunScript(
      "CREATE TABLE T (A FUZZY);\n"
      "INSERT INTO T VALUES (42);\n"
      ".save " + dir + "\n");
  EXPECT_NE(out.find("saved"), std::string::npos);

  const std::string out2 = RunScript(
      ".open " + dir + "\nSELECT A FROM T;\n");
  EXPECT_NE(out2.find("[42 | D=1]"), std::string::npos);
}

TEST(ShellTest, QuitStopsSession) {
  const std::string out = RunScript(".quit\n.tables\n");
  EXPECT_EQ(out.find("tuples"), std::string::npos);
}

// Every mutating statement takes one path, CommitMutation, whether or
// not a write-ahead log is attached: the error matrix answers the same
// statuses and leaves the same catalog either way.
TEST(ShellTest, MutationErrorMatrixIsTheSameWithAndWithoutWal) {
  const std::vector<std::string> kStatements = {
      "CREATE TABLE T (A FUZZY, B STRING);",
      "CREATE TABLE T (A FUZZY);",  // duplicate
      "INSERT INTO T VALUES (1, 'x');",
      "INSERT INTO T VALUES (2);",  // arity mismatch
      "INSERT INTO Nowhere VALUES (3);",
      "DROP TABLE Nowhere;",
      "DEFINE TERM \"warm\" AS TRAP(15, 20, 25, 30);",
      "DEFINE TERM \"warm\" AS TRAP(16, 21, 26, 31);",  // redefinition
      "INSERT INTO T VALUES (\"warm\", 'y') DEGREE 0.5;",
      "CREATE TABLE U (A FUZZY);",
      "DROP TABLE U;",
  };
  const auto run = [&](Shell* shell) {
    std::vector<std::string> statuses;
    std::ostringstream out;
    for (const std::string& statement : kStatements) {
      shell->FeedLine(statement, out);
      statuses.push_back(shell->last_status().ToString());
    }
    return statuses;
  };
  const auto dump = [](Shell* shell) {
    Catalog& catalog = shell->catalog();
    std::string text;
    for (const std::string& name : catalog.RelationNames()) {
      text += catalog.GetRelation(name).value()->ToString(100);
    }
    auto warm = catalog.terms().Lookup("warm");
    return text + (warm.ok() ? warm->ToString() : warm.status().ToString());
  };

  Shell plain;
  const std::vector<std::string> plain_statuses = run(&plain);

  const std::string dir = ::testing::TempDir() + "/fuzzydb_shell_wal_matrix";
  std::filesystem::remove_all(dir);
  Shell durable;
  std::ostringstream sink;
  ASSERT_OK(durable.EnableWal(dir, wal::WalOptions{}, sink));
  EXPECT_EQ(run(&durable), plain_statuses);
  EXPECT_EQ(dump(&durable), dump(&plain));

  const std::vector<std::string> kExpected = {
      "OK", "AlreadyExists", "OK", "InvalidArgument", "NotFound",
      "NotFound", "OK", "OK", "OK", "OK", "OK"};
  ASSERT_EQ(plain_statuses.size(), kExpected.size());
  for (size_t i = 0; i < kExpected.size(); ++i) {
    EXPECT_EQ(plain_statuses[i].rfind(kExpected[i], 0), 0u)
        << kStatements[i] << " -> " << plain_statuses[i];
  }
  EXPECT_NE(dump(&plain).find("D=0.5"), std::string::npos) << dump(&plain);
  std::filesystem::remove_all(dir);
}

TEST(ShellTest, CommentsAndBlankLinesIgnored) {
  const std::string out = RunScript(
      "# a comment\n"
      "-- another\n"
      "\n"
      "CREATE TABLE T (A FUZZY);\n");
  EXPECT_NE(out.find("created T"), std::string::npos);
}

}  // namespace
}  // namespace fuzzydb
