// The cross-query answer cache (src/cache/): correctness under
// concurrency, invalidation, theta-subsumption, budget admission, and
// fault injection. The overriding invariant is the repo-wide one: with
// the cache on, every query must return exactly the tuples and degrees
// of a cache-off run, at every thread count, and a query that is not a
// whole-answer hit does exactly the work of a cache-off run.
//
// Run this binary under TSan (-DFUZZYDB_SANITIZE=thread) to validate
// the locking; see README.md.
#include "cache/cache_manager.h"

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/query_context.h"
#include "engine/naive_evaluator.h"
#include "engine/unnested_evaluator.h"
#include "obs/trace.h"
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

/// An answer of `rows` one-column tuples: 64 + 96 * rows bytes under
/// EstimateRelationBytes.
std::shared_ptr<const Relation> Answer(size_t rows) {
  auto answer = std::make_shared<Relation>(
      "answer", Schema{Column{"X", ValueType::kFuzzy}});
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_OK(answer->Append(
        Tuple({Value::Number(static_cast<double>(i))}, 1.0)));
  }
  return answer;
}

// ---------------------------------------------------------------------
// CacheManager unit behavior
// ---------------------------------------------------------------------

TEST(CacheManagerTest, CapacityZeroIsCompletelyInert) {
  CacheManager cache;
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.InsertResult("k", 0.0, Answer(3), {}, nullptr));
  EXPECT_EQ(cache.LookupResult("k", 0.0), nullptr);
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
  // Three answers of ~64KiB each into a 1MiB cache; then shrink so only
  // two fit. "a" is oldest but gets touched, so "b" must go.
  ASSERT_TRUE(cache.InsertResult("a", 0.0, Answer(680), {}, nullptr));
  ASSERT_TRUE(cache.InsertResult("b", 0.0, Answer(680), {}, nullptr));
  ASSERT_TRUE(cache.InsertResult("c", 0.0, Answer(680), {}, nullptr));
  EXPECT_NE(cache.LookupResult("a", 0.0), nullptr);
  cache.set_capacity_bytes(2 * 70 * 1024);
  EXPECT_NE(cache.LookupResult("a", 0.0), nullptr);
  EXPECT_EQ(cache.LookupResult("b", 0.0), nullptr);
  EXPECT_NE(cache.LookupResult("c", 0.0), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.Clear();
  EXPECT_EQ(cache.used_bytes(), 0u);
  // Stats survive Clear.
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheManagerTest, SysCacheRelationListsEntriesSortedByKey) {
  CacheManager cache;
  cache.set_capacity_bytes(1 << 20);
  ASSERT_TRUE(cache.InsertResult("zz", 0.0, Answer(1), {}, nullptr));
  ASSERT_TRUE(cache.InsertResult("aa", 0.0, Answer(2), {}, nullptr));
  ASSERT_NE(cache.LookupResult("zz", 0.5), nullptr);
  const Relation rel = cache.ToRelation();
  ASSERT_EQ(rel.schema().NumColumns(), 3u);
  ASSERT_EQ(rel.NumTuples(), 2u);
  EXPECT_EQ(rel.tuples()[0].ValueAt(0).AsString(), "aa");
  EXPECT_EQ(rel.tuples()[1].ValueAt(0).AsString(), "zz");
  // (key, bytes, hits): every entry is an answer, so no kind column.
  EXPECT_EQ(rel.tuples()[0].ValueAt(1).AsFuzzy().CrispValue(), 64.0 + 2 * 96);
  EXPECT_EQ(rel.tuples()[1].ValueAt(2).AsFuzzy().CrispValue(), 1.0);
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
    // The batch-kernel knob joins the matrix: cold batched scans and
    // warm answers at every batch size must agree exactly.
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

// Over relations whose link and correlation columns repeat heavily, a
// cold run with a cache that already holds other queries' answers does
// the distinct steps' work exactly: answers, pairs and degree
// evaluations match a cache-off run, and the warm repeat matches its
// answer.
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

TEST(CacheThetaSubsumptionTest, OnlyLowerThresholdAnswersServeARepeat) {
  // WITH D >= theta cuts the positive link's inner filter and windows on
  // theta-cuts, so an answer computed at 0.9 lacks tuples the 0.3 query
  // needs: the 0.3 query must run, not reuse it. The projection of R.C1
  // is a second query over the same inner block with its own answer;
  // its run at 0.3 is served from its unthresholded answer.
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
  EXPECT_FALSE(cache.InsertResult("k", 0.0, Answer(4), {}, &query));
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
  // Capacity fits two ~64KiB answers; the third insert must evict.
  cache.set_capacity_bytes(2 * 70 * 1024);
  ASSERT_TRUE(cache.InsertResult("a", 0.0, Answer(680), {}, nullptr));
  ASSERT_TRUE(cache.InsertResult("b", 0.0, Answer(680), {}, nullptr));

  FailPoints::Arm("cache/evict", /*failures=*/1);
  // The eviction completes (LRU "a" leaves, bytes balanced); the insert
  // in flight is abandoned.
  EXPECT_FALSE(cache.InsertResult("c", 0.0, Answer(680), {}, nullptr));
  FailPoints::DisarmAll();

  EXPECT_EQ(cache.LookupResult("a", 0.0), nullptr);
  EXPECT_EQ(cache.LookupResult("c", 0.0), nullptr);
  EXPECT_NE(cache.LookupResult("b", 0.0), nullptr);
  EXPECT_LE(cache.used_bytes(), cache.capacity_bytes());
  // Zero-leak: dropping everything returns the accounting to zero.
  cache.Clear();
  EXPECT_EQ(cache.used_bytes(), 0u);
}

// ---------------------------------------------------------------------
// Invisibility: the cache changes nothing but whole-answer repeats
// ---------------------------------------------------------------------

/// One traced run: its answer, its counters, and its span signature
/// (name, rows in, rows out, in preorder).
struct TracedRun {
  Relation answer;
  CpuStats cpu;
  std::vector<std::tuple<std::string, uint64_t, uint64_t>> spans;
  /// The root evaluate span was served from a cached answer.
  bool answer_hit = false;
};

Result<TracedRun> RunTraced(const std::string& query, const Catalog& catalog,
                            CacheManager* cache) {
  auto bound = sql::ParseAndBind(query, catalog);
  if (!bound.ok()) return bound.status();
  ExecTrace trace;
  ExecOptions options;
  options.num_threads = 2;
  options.cache = cache;
  options.trace = &trace;
  TracedRun run;
  UnnestingEvaluator engine(options, &run.cpu);
  auto answer = engine.Evaluate(**bound);
  if (!answer.ok()) return answer.status();
  run.answer = *std::move(answer);
  for (const TraceNode& node : trace.nodes()) {
    run.spans.emplace_back(node.name, node.input_rows, node.output_rows);
  }
  run.answer_hit = trace.nodes().at(0).detail.ends_with(" (cached)");
  return run;
}

// One cache serves a list of different queries that share an inner block
// with a local predicate. A run that is not a whole-answer hit must do
// exactly the work of a cache-off run: the same answer bits, the same
// CpuStats, the same spans with the same rows. Only the final repeat,
// served from the 0.3 answer, may differ, and only in work.
TEST(CacheInvisibilityTest, EveryRunButAnAnswerHitMatchesCacheOff) {
  const std::string kIn =
      "SELECT R.C0 FROM R WHERE R.C1 IN "
      "(SELECT S.C0 FROM S WHERE S.C1 >= 2)";
  const std::string kNotIn =
      "SELECT R.C0 FROM R WHERE R.C1 NOT IN "
      "(SELECT S.C0 FROM S WHERE S.C1 >= 2)";
  const std::string kProjectC2 =
      "SELECT R.C2 FROM R WHERE R.C1 IN "
      "(SELECT S.C0 FROM S WHERE S.C1 >= 2)";
  const std::string queries[] = {
      kIn + " WITH D >= 0.9",
      kNotIn + " WITH D >= 0.9",
      kProjectC2 + " WITH D >= 0.9",
      kIn + " WITH D >= 0.3",
      kNotIn + " WITH D >= 0.3",
      kProjectC2 + " WITH D >= 0.3",
      kIn + " WITH D >= 0.9",
  };
  const Catalog catalog = MakeCatalog(17);
  CacheManager cache;
  cache.set_capacity_bytes(32 << 20);
  size_t answer_hits = 0;
  for (const std::string& query : queries) {
    ASSERT_OK_AND_ASSIGN(TracedRun off, RunTraced(query, catalog, nullptr));
    ASSERT_OK_AND_ASSIGN(TracedRun on, RunTraced(query, catalog, &cache));
    EXPECT_TRUE(off.answer.EquivalentTo(on.answer, 0.0)) << query;
    EXPECT_EQ(off.answer.NumTuples(), on.answer.NumTuples()) << query;
    if (on.answer_hit) {
      ++answer_hits;
      continue;
    }
    EXPECT_GT(off.cpu.degree_evaluations, 0u) << query;
    EXPECT_EQ(on.cpu, off.cpu) << query;
    EXPECT_EQ(on.spans, off.spans) << query;
  }
  // Only the last query repeats one at a threshold a cached answer
  // subsumes.
  EXPECT_EQ(answer_hits, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

// A warm repeat is one cached evaluate span that examines nothing.
TEST(CacheInvisibilityTest, WarmRepeatIsOneCachedEvaluateSpan) {
  const Catalog catalog = MakeCatalog(19);
  CacheManager cache;
  cache.set_capacity_bytes(32 << 20);
  ASSERT_OK_AND_ASSIGN(TracedRun cold,
                       RunTraced(kTypeJQuery, catalog, &cache));
  EXPECT_FALSE(cold.answer_hit);
  EXPECT_GT(cold.cpu.tuple_pairs, 0u);
  ASSERT_OK_AND_ASSIGN(TracedRun warm,
                       RunTraced(kTypeJQuery, catalog, &cache));
  EXPECT_TRUE(warm.answer_hit);
  ASSERT_EQ(warm.spans.size(), 1u);
  EXPECT_EQ(std::get<0>(warm.spans[0]), "evaluate");
  EXPECT_EQ(std::get<2>(warm.spans[0]), cold.answer.NumTuples());
  EXPECT_EQ(warm.cpu.tuple_pairs, 0u);
  EXPECT_EQ(warm.cpu.degree_evaluations, 0u);
  EXPECT_TRUE(cold.answer.EquivalentTo(warm.answer, 0.0));
}

}  // namespace
}  // namespace fuzzydb
