#include "storage/database.h"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>

#include "engine/unnested_evaluator.h"
#include "sql/binder.h"
#include "test_util.h"
#include "workload/generator.h"

namespace fuzzydb {
namespace {

std::string TempDir(const std::string& name) {
  return ::testing::TempDir() + "/fuzzydb_db_" + name;
}

TEST(DatabaseStoreTest, RoundTripsThePaperDatabase) {
  Catalog original = testing_util::MakePaperCatalog();
  BufferPool pool(16);
  const std::string dir = TempDir("paper");
  ASSERT_OK(SaveDatabase(original, dir, &pool));

  ASSERT_OK_AND_ASSIGN(Catalog loaded, LoadDatabase(dir, &pool));

  // Relations survive with identical tuples and degrees.
  for (const char* name : {"F", "M"}) {
    ASSERT_OK_AND_ASSIGN(const Relation* before, original.GetRelation(name));
    ASSERT_OK_AND_ASSIGN(const Relation* after, loaded.GetRelation(name));
    EXPECT_EQ(before->schema().ToString(), after->schema().ToString());
    EXPECT_TRUE(before->EquivalentTo(*after, 0.0)) << name;
  }

  // Terms survive.
  ASSERT_OK_AND_ASSIGN(Trapezoid term, loaded.terms().Lookup("medium young"));
  EXPECT_EQ(term, Trapezoid(20, 25, 30, 35));

  // And queries over the loaded database still reproduce Example 4.1.
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(R"sql(
      SELECT F.NAME FROM F
      WHERE F.AGE = "medium young" AND
            F.INCOME IN (SELECT M.INCOME FROM M WHERE M.AGE = "middle age"))sql",
                                                     loaded));
  UnnestingEvaluator engine;
  ASSERT_OK_AND_ASSIGN(Relation answer, engine.Evaluate(*bound));
  EXPECT_DOUBLE_EQ(testing_util::DegreeOf(answer, "Ann"), 0.7);
  EXPECT_DOUBLE_EQ(testing_util::DegreeOf(answer, "Betty"), 0.7);
}

TEST(DatabaseStoreTest, RoundTripsLargeGeneratedRelations) {
  Catalog original;
  ASSERT_OK(original.AddRelation(GenerateRandomRelation(9, "Big", 3, 2000)));
  BufferPool pool(8);
  const std::string dir = TempDir("large");
  ASSERT_OK(SaveDatabase(original, dir, &pool));
  ASSERT_OK_AND_ASSIGN(Catalog loaded, LoadDatabase(dir, &pool));
  ASSERT_OK_AND_ASSIGN(const Relation* before, original.GetRelation("Big"));
  ASSERT_OK_AND_ASSIGN(const Relation* after, loaded.GetRelation("Big"));
  ASSERT_EQ(before->NumTuples(), after->NumTuples());
  for (size_t i = 0; i < before->NumTuples(); ++i) {
    EXPECT_TRUE(before->TupleAt(i).SameValues(after->TupleAt(i)));
    EXPECT_DOUBLE_EQ(before->TupleAt(i).degree(), after->TupleAt(i).degree());
  }
}

TEST(DatabaseStoreTest, SaveReplacesExistingDatabase) {
  BufferPool pool(8);
  const std::string dir = TempDir("replace");
  Catalog first;
  ASSERT_OK(first.AddRelation(GenerateRandomRelation(1, "A", 1, 10)));
  ASSERT_OK(SaveDatabase(first, dir, &pool));

  Catalog second;
  ASSERT_OK(second.AddRelation(GenerateRandomRelation(2, "B", 2, 5)));
  ASSERT_OK(SaveDatabase(second, dir, &pool));

  ASSERT_OK_AND_ASSIGN(Catalog loaded, LoadDatabase(dir, &pool));
  EXPECT_FALSE(loaded.HasRelation("A"));
  EXPECT_TRUE(loaded.HasRelation("B"));
}

TEST(DatabaseStoreTest, LoadMissingDirectoryFails) {
  BufferPool pool(4);
  const auto result = LoadDatabase(TempDir("nonexistent_xyz"), &pool);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(DatabaseStoreTest, CorruptManifestFails) {
  BufferPool pool(4);
  const std::string dir = TempDir("corrupt");
  Catalog catalog;
  ASSERT_OK(catalog.AddRelation(GenerateRandomRelation(3, "C", 1, 4)));
  ASSERT_OK(SaveDatabase(catalog, dir, &pool));

  std::ofstream out(dir + "/catalog.meta", std::ios::trunc);
  out << "not a manifest\n";
  out.close();
  EXPECT_FALSE(LoadDatabase(dir, &pool).ok());
}

TEST(DatabaseStoreTest, TruncatedManifestFails) {
  BufferPool pool(4);
  const std::string dir = TempDir("truncated");
  Catalog catalog;
  ASSERT_OK(catalog.AddRelation(GenerateRandomRelation(4, "D", 1, 4)));
  ASSERT_OK(SaveDatabase(catalog, dir, &pool));

  // Drop the trailing "end" marker.
  std::ifstream in(dir + "/catalog.meta");
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  const size_t end_pos = content.rfind("end\n");
  ASSERT_NE(end_pos, std::string::npos);
  std::ofstream out(dir + "/catalog.meta", std::ios::trunc);
  out << content.substr(0, end_pos);
  out.close();
  const auto result = LoadDatabase(dir, &pool);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

// A one-tuple relation (1, ABOUT(5, 1)) with degree 0.75, saved to `dir`.
void SaveOneTuple(const std::string& dir, BufferPool* pool) {
  Relation rel("R", Schema({Column{"C0", ValueType::kFuzzy},
                            Column{"C1", ValueType::kFuzzy}}));
  ASSERT_OK(rel.Append(Tuple({Value::Number(1.0),
                              Value::Fuzzy(Trapezoid(4.0, 5.0, 5.0, 6.0))},
                             0.75)));
  Catalog catalog;
  ASSERT_OK(catalog.AddRelation(std::move(rel)));
  ASSERT_OK(SaveDatabase(catalog, dir, pool));
}

TEST(DatabaseStoreTest, UnorderedFuzzyCornersFailToLoad) {
  BufferPool pool(4);
  const std::string dir = TempDir("unordered");
  SaveOneTuple(dir, &pool);
  // trap(4, 5, 5, 6) becomes trap(9, 5, 5, 6).
  ASSERT_TRUE(testing_util::PatchFile(
      dir + "/rel_0.fdb", testing_util::DoubleBytes({4.0, 5.0, 5.0, 6.0}),
      testing_util::DoubleBytes({9.0, 5.0, 5.0, 6.0})));
  const auto result = LoadDatabase(dir, &pool);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("corners"), std::string::npos)
      << result.status().ToString();
}

TEST(DatabaseStoreTest, DegreeAboveOneFailsToLoad) {
  BufferPool pool(4);
  const std::string dir = TempDir("degree");
  SaveOneTuple(dir, &pool);
  // The degree follows the last fuzzy value's corners.
  ASSERT_TRUE(testing_util::PatchFile(
      dir + "/rel_0.fdb", testing_util::DoubleBytes({6.0, 0.75}),
      testing_util::DoubleBytes({6.0, 1.5})));
  const auto result = LoadDatabase(dir, &pool);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("degree"), std::string::npos)
      << result.status().ToString();
}

TEST(DatabaseStoreTest, OrderedInfiniteCornersLoad) {
  // ABOUT(1e308, 1e308) stores trap(0, 1e308, 1e308, inf).
  BufferPool pool(4);
  const std::string dir = TempDir("infinite");
  Relation rel("R", Schema({Column{"C0", ValueType::kFuzzy}}));
  const Trapezoid huge(0.0, 1e308, 1e308,
                       std::numeric_limits<double>::infinity());
  ASSERT_OK(rel.Append(Tuple({Value::Fuzzy(huge)}, 1.0)));
  Catalog catalog;
  ASSERT_OK(catalog.AddRelation(std::move(rel)));
  ASSERT_OK(SaveDatabase(catalog, dir, &pool));
  ASSERT_OK_AND_ASSIGN(Catalog loaded, LoadDatabase(dir, &pool));
  ASSERT_OK_AND_ASSIGN(auto relation, loaded.GetRelation("R"));
  ASSERT_EQ(relation->NumTuples(), 1u);
  EXPECT_EQ(relation->TupleAt(0).ValueAt(0).AsFuzzy().d(),
            std::numeric_limits<double>::infinity());
}

TEST(DatabaseStoreTest, EmptyCatalogRoundTrips) {
  BufferPool pool(4);
  const std::string dir = TempDir("empty");
  Catalog catalog;
  catalog.mutable_terms() = TermDictionary();  // nothing at all
  ASSERT_OK(SaveDatabase(catalog, dir, &pool));
  ASSERT_OK_AND_ASSIGN(Catalog loaded, LoadDatabase(dir, &pool));
  EXPECT_TRUE(loaded.RelationNames().empty());
}

}  // namespace
}  // namespace fuzzydb
