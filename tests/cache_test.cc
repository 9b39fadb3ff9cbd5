// The cross-query cache (src/cache/): correctness under concurrency,
// invalidation, theta-subsumption, budget admission, and fault
// injection. The overriding invariant is the repo-wide one: with the
// cache on, every query must return exactly the tuples and degrees of a
// cache-off run, at every thread count -- the cache may only change wall
// time.
//
// Run this binary under TSan (-DFUZZYDB_SANITIZE=thread) to validate
// the locking; see README.md.
#include "cache/cache_manager.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/query_context.h"
#include "engine/naive_evaluator.h"
#include "engine/unnested_evaluator.h"
#include "sql/binder.h"
#include "test_util.h"
#include "workload/generator.h"

namespace fuzzydb {
namespace {

const char* kTypeJQuery =
    "SELECT R.C0 FROM R WHERE R.C1 IN "
    "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)";

Catalog MakeCatalog(uint64_t seed) {
  Catalog catalog;
  EXPECT_OK(catalog.AddRelation(
      GenerateRandomRelation(seed * 11 + 1, "R", 3, 40)));
  EXPECT_OK(catalog.AddRelation(
      GenerateRandomRelation(seed * 13 + 2, "S", 2, 40)));
  return catalog;
}

/// Runs `query` through the unnesting evaluator with the given cache
/// (null = cache off), thread count, and batch size.
Result<Relation> RunQuery(const std::string& query, const Catalog& catalog,
                     CacheManager* cache, size_t threads = 1,
                     QueryContext* context = nullptr,
                     size_t batch_size = 1024) {
  auto bound = sql::ParseAndBind(query, catalog);
  if (!bound.ok()) return bound.status();
  ExecOptions options;
  options.num_threads = threads;
  options.batch_size = batch_size;
  options.cache = cache;
  options.context = context;
  UnnestingEvaluator engine(options);
  return engine.Evaluate(**bound);
}

// ---------------------------------------------------------------------
// CacheManager unit behavior
// ---------------------------------------------------------------------

TEST(CacheManagerTest, CapacityZeroIsCompletelyInert) {
  CacheManager cache;
  EXPECT_FALSE(cache.enabled());
  auto perm = std::make_shared<CacheManager::Permutation>(
      CacheManager::Permutation{0, 1, 2});
  EXPECT_FALSE(cache.InsertPermutation("k", perm, {}, nullptr));
  EXPECT_EQ(cache.LookupPermutation("k"), nullptr);
  std::string path;
  EXPECT_FALSE(cache.LookupSortedFile("f", &path));
  // Nothing is recorded: a cache-off run leaves no metric footprint.
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(CacheManagerTest, LruEvictsLeastRecentlyUsed) {
  CacheManager cache;
  cache.set_capacity_bytes(1 << 20);
  auto perm = [](size_t n) {
    auto p = std::make_shared<CacheManager::Permutation>();
    p->resize(n);
    return p;
  };
  // Three entries of ~64KiB each into a 1MiB cache; then shrink so only
  // two fit. "a" is oldest but gets touched, so "b" must go.
  ASSERT_TRUE(cache.InsertPermutation("a", perm(16384), {}, nullptr));
  ASSERT_TRUE(cache.InsertPermutation("b", perm(16384), {}, nullptr));
  ASSERT_TRUE(cache.InsertPermutation("c", perm(16384), {}, nullptr));
  EXPECT_NE(cache.LookupPermutation("a"), nullptr);
  cache.set_capacity_bytes(2 * 70 * 1024);
  EXPECT_NE(cache.LookupPermutation("a"), nullptr);
  EXPECT_EQ(cache.LookupPermutation("b"), nullptr);
  EXPECT_NE(cache.LookupPermutation("c"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.Clear();
  EXPECT_EQ(cache.used_bytes(), 0u);
  // Stats survive Clear.
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheManagerTest, SysCacheRelationListsEntriesSortedByKey) {
  CacheManager cache;
  cache.set_capacity_bytes(1 << 20);
  auto perm = std::make_shared<CacheManager::Permutation>(
      CacheManager::Permutation{0});
  ASSERT_TRUE(cache.InsertPermutation("zz", perm, {}, nullptr));
  ASSERT_TRUE(cache.InsertPermutation("aa", perm, {}, nullptr));
  const Relation rel = cache.ToRelation();
  ASSERT_EQ(rel.NumTuples(), 2u);
  EXPECT_EQ(rel.tuples()[0].ValueAt(0).AsString(), "aa");
  EXPECT_EQ(rel.tuples()[1].ValueAt(0).AsString(), "zz");
}

// ---------------------------------------------------------------------
// Determinism: warm results == cold results == cache-off results, and
// cache stats are identical at every thread count.
// ---------------------------------------------------------------------

TEST(CacheDeterminismTest, WarmRunsMatchCacheOffAtEveryThreadCount) {
  const Catalog catalog = MakeCatalog(7);
  ASSERT_OK_AND_ASSIGN(Relation expected,
                       RunQuery(kTypeJQuery, catalog, nullptr));

  CacheStats reference;
  bool have_reference = false;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    // The batch-kernel knob joins the matrix: cached filter replays and
    // cold batched scans at every batch size must agree exactly.
    for (size_t batch_size : {1u, 7u, 1024u}) {
      const std::string label = "threads=" + std::to_string(threads) +
                                " batch=" + std::to_string(batch_size);
      CacheManager cache;
      cache.set_capacity_bytes(32 << 20);
      ASSERT_OK_AND_ASSIGN(Relation cold,
                           RunQuery(kTypeJQuery, catalog, &cache, threads,
                                    nullptr, batch_size));
      ASSERT_OK_AND_ASSIGN(Relation warm,
                           RunQuery(kTypeJQuery, catalog, &cache, threads,
                                    nullptr, batch_size));
      EXPECT_TRUE(expected.EquivalentTo(cold, 1e-12)) << label;
      EXPECT_TRUE(expected.EquivalentTo(warm, 1e-12)) << label;
      const CacheStats stats = cache.stats();
      EXPECT_GT(stats.hits, 0u) << label;
      EXPECT_GT(stats.inserts, 0u) << label;
      if (!have_reference) {
        reference = stats;
        have_reference = true;
      } else {
        // Cache behavior is part of the determinism contract: the hit,
        // miss, and insert sequence must not depend on the thread count
        // or on the batch size.
        EXPECT_EQ(stats.hits, reference.hits) << label;
        EXPECT_EQ(stats.misses, reference.misses) << label;
        EXPECT_EQ(stats.inserts, reference.inserts) << label;
      }
    }
  }
}

TEST(CacheDeterminismTest, EveryQueryTypeSurvivesAWarmCache) {
  const char* kQueries[] = {
      "SELECT R.C0 FROM R WHERE R.C1 IN (SELECT S.C0 FROM S)",
      kTypeJQuery,
      "SELECT R.C0 FROM R WHERE R.C1 NOT IN "
      "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)",
      "SELECT R.C0 FROM R WHERE R.C1 > (SELECT MAX(S.C0) FROM S)",
      "SELECT R.C0 FROM R WHERE R.C1 > "
      "(SELECT MAX(S.C0) FROM S WHERE S.C1 = R.C2)",
      "SELECT R.C0 FROM R WHERE R.C1 <= ALL "
      "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)",
  };
  const Catalog catalog = MakeCatalog(3);
  CacheManager cache;
  cache.set_capacity_bytes(32 << 20);
  for (const char* query : kQueries) {
    ASSERT_OK_AND_ASSIGN(Relation expected, RunQuery(query, catalog, nullptr));
    // Twice each: the second run exercises the hit paths.
    for (int round = 0; round < 2; ++round) {
      ASSERT_OK_AND_ASSIGN(Relation got, RunQuery(query, catalog, &cache, 4));
      EXPECT_TRUE(expected.EquivalentTo(got, 1e-12))
          << query << " round " << round;
    }
  }
  EXPECT_GT(cache.stats().hits, 0u);
}

// Over relations whose link and correlation columns repeat heavily,
// the cache's replays -- cached filters, cached permutations, whole
// answers -- feed the distinct steps the same rows: answers, pairs and
// degree evaluations match a cache-off run. One cache serves the whole
// list, so later queries replay the inner filters and permutations
// earlier ones cached.
TEST(CacheDeterminismTest, DuplicateBindingsMatchCacheOff) {
  const char* kQueries[] = {
      "SELECT R.C0 FROM R WHERE R.C1 IN (SELECT S.C0 FROM S)",
      kTypeJQuery,
      "SELECT R.C0 FROM R WHERE R.C1 NOT IN "
      "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)",
      "SELECT R.C0 FROM R WHERE R.C1 < SOME "
      "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)",
      "SELECT R.C0 FROM R WHERE R.C1 <= ALL "
      "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)",
      "SELECT R.C0 FROM R WHERE R.C1 > "
      "(SELECT MAX(S.C0) FROM S WHERE S.C1 = R.C2)",
      "SELECT R.C0 FROM R WHERE "
      "R.C1 IN (SELECT S.C0 FROM S WHERE S.C1 = R.C2) AND "
      "R.C2 NOT IN (SELECT S.C1 FROM S WHERE S.C0 <= R.C1)",
  };
  Catalog catalog;
  ASSERT_OK(catalog.AddRelation(testing_util::MakeDuplicateHeavyRelation(
      41, "R", {false, true, true}, 200)));
  ASSERT_OK(catalog.AddRelation(testing_util::MakeDuplicateHeavyRelation(
      42, "S", {false, true}, 200)));
  const auto run = [&](const char* query, CacheManager* cache,
                       CpuStats* cpu) -> Result<Relation> {
    auto bound = sql::ParseAndBind(query, catalog);
    if (!bound.ok()) return bound.status();
    ExecOptions options;
    options.num_threads = 4;
    options.cache = cache;
    UnnestingEvaluator engine(options, cpu);
    return engine.Evaluate(**bound);
  };
  CacheManager cache;
  cache.set_capacity_bytes(32 << 20);
  for (const char* query : kQueries) {
    CpuStats off_cpu;
    ASSERT_OK_AND_ASSIGN(Relation expected, run(query, nullptr, &off_cpu));
    CpuStats on_cpu;
    ASSERT_OK_AND_ASSIGN(Relation cold, run(query, &cache, &on_cpu));
    EXPECT_TRUE(expected.EquivalentTo(cold, 0.0)) << query;
    EXPECT_GT(off_cpu.tuple_pairs, 0u) << query;
    EXPECT_EQ(on_cpu.tuple_pairs, off_cpu.tuple_pairs) << query;
    EXPECT_EQ(on_cpu.degree_evaluations, off_cpu.degree_evaluations)
        << query;
    ASSERT_OK_AND_ASSIGN(Relation warm, run(query, &cache, nullptr));
    EXPECT_TRUE(expected.EquivalentTo(warm, 0.0)) << query;
  }
  EXPECT_GT(cache.stats().hits, 0u);
}

// ---------------------------------------------------------------------
// Invalidation on write
// ---------------------------------------------------------------------

TEST(CacheInvalidationTest, VersionKeysMakeStaleHitsImpossible) {
  Catalog catalog = MakeCatalog(11);
  CacheManager cache;
  cache.set_capacity_bytes(32 << 20);
  ASSERT_OK(RunQuery(kTypeJQuery, catalog, &cache).status());

  // Mutate S through the catalog; the version bump alone must keep every
  // subsequent cached read consistent, with no explicit invalidation.
  ASSERT_OK_AND_ASSIGN(Relation * s, catalog.GetMutableRelation("S"));
  ASSERT_OK(s->Append((*s).tuples()[0]));

  NaiveEvaluator naive;
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kTypeJQuery, catalog));
  ASSERT_OK_AND_ASSIGN(Relation expected, naive.Evaluate(*bound));
  ASSERT_OK_AND_ASSIGN(Relation got, RunQuery(kTypeJQuery, catalog, &cache));
  EXPECT_TRUE(expected.EquivalentTo(got, 1e-12));
}

TEST(CacheInvalidationTest, InvalidateRelationFreesDependentEntries) {
  Catalog catalog = MakeCatalog(11);
  CacheManager cache;
  cache.set_capacity_bytes(32 << 20);
  ASSERT_OK(RunQuery(kTypeJQuery, catalog, &cache).status());
  ASSERT_GT(cache.used_bytes(), 0u);

  ASSERT_OK_AND_ASSIGN(const Relation* r, catalog.GetRelation("R"));
  ASSERT_OK_AND_ASSIGN(const Relation* s, catalog.GetRelation("S"));
  cache.InvalidateRelation(r->id());
  cache.InvalidateRelation(s->id());
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_GT(cache.stats().invalidated, 0u);
}

// ---------------------------------------------------------------------
// Theta-subsumption
// ---------------------------------------------------------------------

TEST(CacheThetaSubsumptionTest, LowerThresholdEntryAnswersHigher) {
  const Catalog catalog = MakeCatalog(5);
  const std::string thresholded = std::string(kTypeJQuery) +
                                  " WITH D >= 0.4";
  CacheManager cache;
  cache.set_capacity_bytes(32 << 20);

  // Populate at theta = 0 (no WITH clause), then query at theta = 0.4:
  // the cached general result must be filtered, not recomputed.
  ASSERT_OK(RunQuery(kTypeJQuery, catalog, &cache).status());
  const uint64_t hits_before = cache.stats().hits;
  ASSERT_OK_AND_ASSIGN(Relation got, RunQuery(thresholded, catalog, &cache));
  EXPECT_GT(cache.stats().hits, hits_before);

  ASSERT_OK_AND_ASSIGN(Relation expected,
                       RunQuery(thresholded, catalog, nullptr));
  EXPECT_TRUE(expected.EquivalentTo(got, 1e-12));
}

TEST(CacheThetaSubsumptionTest, HigherThresholdEntryCannotAnswerLower) {
  const Catalog catalog = MakeCatalog(5);
  const std::string thresholded = std::string(kTypeJQuery) +
                                  " WITH D >= 0.4";
  CacheManager cache;
  cache.set_capacity_bytes(32 << 20);

  // Populate at theta = 0.4 first. The later theta = 0 query must not be
  // served from it (tuples below 0.4 are missing there).
  ASSERT_OK(RunQuery(thresholded, catalog, &cache).status());
  ASSERT_OK_AND_ASSIGN(Relation got, RunQuery(kTypeJQuery, catalog, &cache));
  ASSERT_OK_AND_ASSIGN(Relation expected,
                       RunQuery(kTypeJQuery, catalog, nullptr));
  EXPECT_TRUE(expected.EquivalentTo(got, 1e-12));

  // And the general result must now have replaced the thresholded entry:
  // a repeat of either query hits.
  const uint64_t hits_before = cache.stats().hits;
  ASSERT_OK(RunQuery(thresholded, catalog, &cache).status());
  EXPECT_GT(cache.stats().hits, hits_before);
}

TEST(CacheThetaSubsumptionTest, ThresholdCutEntriesCarryTheirCut) {
  // WITH D >= theta cuts the positive link's inner filter and windows on
  // theta-cuts. At 0.9 the inner filter entry keeps only S tuples of
  // degree >= 0.9; the 0.3 query cannot reuse the 0.9 result and must
  // not reuse that entry either. The projection of R.C1 is a second
  // query over the same inner block: its run at 0.3 must not reorder by
  // the support-order permutation the unthresholded run cached.
  const Catalog catalog = MakeCatalog(5);
  const std::string kProjectC1 =
      "SELECT R.C1 FROM R WHERE R.C1 IN "
      "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)";
  CacheManager cache;
  cache.set_capacity_bytes(32 << 20);
  const std::string queries[] = {
      std::string(kTypeJQuery) + " WITH D >= 0.9",
      std::string(kTypeJQuery) + " WITH D >= 0.3",
      kProjectC1,
      kProjectC1 + " WITH D >= 0.3",
  };
  for (const std::string& query : queries) {
    ASSERT_OK_AND_ASSIGN(Relation got, RunQuery(query, catalog, &cache));
    ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(query, catalog));
    NaiveEvaluator naive;
    ASSERT_OK_AND_ASSIGN(Relation expected, naive.Evaluate(*bound));
    EXPECT_GT(expected.NumTuples(), 0u) << query;
    EXPECT_TRUE(expected.EquivalentTo(got, 0.0))
        << query << "\nnaive:\n"
        << expected.ToString(100) << "\ncached:\n"
        << got.ToString(100);
  }
}

// ---------------------------------------------------------------------
// Budget admission
// ---------------------------------------------------------------------

TEST(CacheBudgetTest, DirectDenialIsObservableAndBalanced) {
  CacheManager cache;
  cache.set_capacity_bytes(1 << 20);
  QueryContext query;
  query.memory().set_limit(1);  // denies any non-trivial charge
  auto perm = std::make_shared<CacheManager::Permutation>(
      CacheManager::Permutation{0, 1, 2, 3});
  EXPECT_FALSE(cache.InsertPermutation("k", perm, {}, &query));
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_GE(cache.stats().denied, 1u);
  // Charge/Release are balanced even on the denial path.
  EXPECT_EQ(query.memory().used(), 0u);
  EXPECT_GT(query.memory().denied_bytes(), 0u);
}

TEST(CacheBudgetTest, DeniedInsertNeverFailsTheQuery) {
  const Catalog catalog = MakeCatalog(9);
  CacheManager cache;
  cache.set_capacity_bytes(32 << 20);
  QueryContext query;
  query.memory().set_limit(1);
  ASSERT_OK_AND_ASSIGN(Relation got,
                       RunQuery(kTypeJQuery, catalog, &cache, 1, &query));
  ASSERT_OK_AND_ASSIGN(Relation expected,
                       RunQuery(kTypeJQuery, catalog, nullptr));
  EXPECT_TRUE(expected.EquivalentTo(got, 1e-12));
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_GT(cache.stats().denied, 0u);
  EXPECT_EQ(query.memory().used(), 0u);
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

TEST(CacheFailPointTest, EvictionUnderFaultStaysBalanced) {
  FailPoints::DisarmAll();
  CacheManager cache;
  auto perm = [](size_t n) {
    auto p = std::make_shared<CacheManager::Permutation>();
    p->resize(n);
    return p;
  };
  // Capacity fits two ~64KiB entries; the third insert must evict.
  cache.set_capacity_bytes(2 * 70 * 1024);
  ASSERT_TRUE(cache.InsertPermutation("a", perm(16384), {}, nullptr));
  ASSERT_TRUE(cache.InsertPermutation("b", perm(16384), {}, nullptr));

  FailPoints::Arm("cache/evict", /*failures=*/1);
  // The eviction completes (LRU "a" leaves, bytes balanced); the insert
  // in flight is abandoned.
  EXPECT_FALSE(cache.InsertPermutation("c", perm(16384), {}, nullptr));
  FailPoints::DisarmAll();

  EXPECT_EQ(cache.LookupPermutation("a"), nullptr);
  EXPECT_EQ(cache.LookupPermutation("c"), nullptr);
  EXPECT_NE(cache.LookupPermutation("b"), nullptr);
  EXPECT_LE(cache.used_bytes(), cache.capacity_bytes());
  // Zero-leak: dropping everything returns the accounting to zero.
  cache.Clear();
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(CacheFailPointTest, SortedFileInsertUnderFaultLeavesNoFile) {
  FailPoints::DisarmAll();
  CacheManager cache;
  cache.set_capacity_bytes(1 << 20);
  const std::string path =
      ::testing::TempDir() + "/fuzzydb_cache_sorted_run";
  {
    std::ofstream file(path);
    file << "sorted payload";
  }
  FailPoints::Arm("cache/insert", /*failures=*/1);
  // The cache takes the file (rename) before admission runs; on the
  // injected fault it deletes its copy and reports the path consumed.
  EXPECT_TRUE(cache.InsertSortedFile("srun|x", path, 4096, nullptr));
  FailPoints::DisarmAll();

  std::string cached_path;
  EXPECT_FALSE(cache.LookupSortedFile("srun|x", &cached_path));
  EXPECT_EQ(cache.used_bytes(), 0u);
  std::ifstream gone(path);
  EXPECT_FALSE(gone.good()) << "original path should be consumed";
}

TEST(CacheFailPointTest, ClearUnlinksCachedSortedFiles) {
  CacheManager cache;
  cache.set_capacity_bytes(1 << 20);
  const std::string path =
      ::testing::TempDir() + "/fuzzydb_cache_sorted_run2";
  {
    std::ofstream file(path);
    file << "sorted payload";
  }
  ASSERT_TRUE(cache.InsertSortedFile("srun|y", path, 4096, nullptr));
  std::string cached_path;
  ASSERT_TRUE(cache.LookupSortedFile("srun|y", &cached_path));
  {
    std::ifstream present(cached_path);
    ASSERT_TRUE(present.good());
  }
  cache.Clear();
  std::ifstream gone(cached_path);
  EXPECT_FALSE(gone.good()) << "Clear() must unlink cache-owned files";
}

}  // namespace
}  // namespace fuzzydb
