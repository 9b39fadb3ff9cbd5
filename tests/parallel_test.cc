// The parallel execution layer: thread pool, morsel scheduling,
// ParallelFor/ParallelSort, and the determinism guarantee of the
// morsel-driven operators -- every query type must produce identical
// tuples, degrees, AND CpuStats counters for every thread count.
//
// Run this binary under TSan (-DFUZZYDB_SANITIZE=thread) to validate the
// synchronization; see README.md.
#include "parallel/parallel_for.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/naive_evaluator.h"
#include "engine/partitioned_join.h"
#include "engine/unnested_evaluator.h"
#include "fuzzy/interval_order.h"
#include "obs/trace.h"
#include "parallel/morsel.h"
#include "parallel/thread_pool.h"
#include "sort/external_sort.h"
#include "test_util.h"
#include "workload/generator.h"

namespace fuzzydb {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/fuzzydb_parallel_" + name;
}

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  auto future = pool.Submit([] {});
  future.get();
}

TEST(ThreadPoolTest, ExceptionReachesTheFuture) {
  ThreadPool pool(2);
  auto ok = pool.Submit([] {});
  auto bad = pool.Submit([] { throw std::runtime_error("boom"); });
  ok.get();
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool survives a throwing task.
  std::atomic<int> count{0};
  pool.Submit([&count] { ++count; }).get();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      (void)pool.Submit([&count] { ++count; });
    }
    // Destruction must complete all 50 submitted tasks before joining.
  }
  EXPECT_EQ(count.load(), 50);
}

// ---------------------------------------------------------------------
// MorselCursor
// ---------------------------------------------------------------------

TEST(MorselCursorTest, SequentialRangesAreExact) {
  MorselCursor cursor(10, 4);
  EXPECT_EQ(cursor.NumMorsels(), 3u);
  size_t b = 0, e = 0;
  ASSERT_TRUE(cursor.Next(&b, &e));
  EXPECT_EQ(b, 0u);
  EXPECT_EQ(e, 4u);
  ASSERT_TRUE(cursor.Next(&b, &e));
  EXPECT_EQ(b, 4u);
  EXPECT_EQ(e, 8u);
  ASSERT_TRUE(cursor.Next(&b, &e));
  EXPECT_EQ(b, 8u);
  EXPECT_EQ(e, 10u);  // last morsel is short
  EXPECT_FALSE(cursor.Next(&b, &e));
  EXPECT_FALSE(cursor.Next(&b, &e));  // stays exhausted
}

TEST(MorselCursorTest, EmptyInputHandsOutNothing) {
  MorselCursor cursor(0, 8);
  EXPECT_EQ(cursor.NumMorsels(), 0u);
  size_t b = 0, e = 0;
  EXPECT_FALSE(cursor.Next(&b, &e));
}

TEST(MorselCursorTest, ZeroMorselSizeClampsToOne) {
  MorselCursor cursor(3, 0);
  EXPECT_EQ(cursor.NumMorsels(), 3u);
  EXPECT_EQ(cursor.morsel_size(), 1u);
}

TEST(MorselCursorTest, ConcurrentDrainCoversEveryIndexOnce) {
  const size_t total = 10000;
  MorselCursor cursor(total, 7);
  std::vector<std::atomic<int>> hits(total);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      size_t b = 0, e = 0;
      while (cursor.Next(&b, &e)) {
        for (size_t i = b; i < e; ++i) ++hits[i];
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t i = 0; i < total; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(MorselRangesTest, MatchesTheCursorDecomposition) {
  const auto ranges = MorselRanges(10, 4);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0], (std::pair<size_t, size_t>{0, 4}));
  EXPECT_EQ(ranges[1], (std::pair<size_t, size_t>{4, 8}));
  EXPECT_EQ(ranges[2], (std::pair<size_t, size_t>{8, 10}));
  EXPECT_TRUE(MorselRanges(0, 4).empty());
}

// ---------------------------------------------------------------------
// ParallelFor / ParallelSort
// ---------------------------------------------------------------------

class ParallelForTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  const size_t threads = GetParam();
  ThreadPool pool(threads);
  ParallelContext ctx{threads > 1 ? &pool : nullptr, /*morsel_size=*/64};

  const size_t total = 5000;
  std::vector<std::atomic<int>> hits(total);
  ParallelFor(ctx, total, [&](size_t worker, size_t begin, size_t end) {
    EXPECT_LT(worker, WorkerSlots(ctx));
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (size_t i = 0; i < total; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_P(ParallelForTest, PropagatesTheBodyException) {
  const size_t threads = GetParam();
  ThreadPool pool(threads);
  ParallelContext ctx{threads > 1 ? &pool : nullptr, /*morsel_size=*/8};
  EXPECT_THROW(
      ParallelFor(ctx, 100,
                  [&](size_t, size_t begin, size_t) {
                    if (begin == 48) throw std::runtime_error("morsel 6");
                  }),
      std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelForTest,
                         ::testing::Values<size_t>(1, 2, 4, 8));

TEST(ParallelForTest, EmptyRangeNeverCallsTheBody) {
  ThreadPool pool(2);
  ParallelContext ctx{&pool, 16};
  ParallelFor(ctx, 0, [&](size_t, size_t, size_t) { FAIL(); });
}

// make_less factory for ParallelSort over ints.
auto CountingIntLess() {
  return [](uint64_t* count) {
    return [count](int a, int b) {
      ++*count;
      return a < b;
    };
  };
}

TEST(ParallelSortTest, MatchesStdSortOracle) {
  std::mt19937 rng(7);
  for (size_t n : {0u, 1u, 5u, 100u, 3000u, 10000u}) {
    std::vector<int> values(n);
    // Narrow domain so duplicates are common.
    std::uniform_int_distribution<int> dist(0, 97);
    for (auto& v : values) v = dist(rng);
    std::vector<int> expected = values;
    std::sort(expected.begin(), expected.end());

    ThreadPool pool(4);
    ParallelContext ctx{&pool, /*morsel_size=*/128};
    uint64_t comparisons = 0;
    ASSERT_OK(ParallelSort(ctx, &values, &comparisons, CountingIntLess()));
    EXPECT_EQ(values, expected) << "n=" << n;
    if (n > 1) {
      EXPECT_GT(comparisons, 0u);
    }
  }
}

TEST(ParallelSortTest, OrderAndCountInvariantAcrossThreadCounts) {
  std::mt19937 rng(11);
  std::vector<int> input(5000);
  std::uniform_int_distribution<int> dist(0, 999);
  for (auto& v : input) v = dist(rng);

  std::vector<int> reference;
  uint64_t reference_count = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    ParallelContext ctx{threads > 1 ? &pool : nullptr, /*morsel_size=*/256};
    std::vector<int> values = input;
    uint64_t comparisons = 0;
    ASSERT_OK(ParallelSort(ctx, &values, &comparisons, CountingIntLess()));
    if (reference.empty()) {
      reference = values;
      reference_count = comparisons;
    } else {
      EXPECT_EQ(values, reference) << threads << " threads";
      EXPECT_EQ(comparisons, reference_count) << threads << " threads";
    }
  }
}

// A stop inside a merge round leaves default-constructed elements in the
// merge buffer, so ParallelSort must report the stop rather than hand
// that buffer back as the sorted output.
TEST(ParallelSortTest, StopInsideAMergeRoundReturnsTheStopStatus) {
  constexpr size_t kMorsel = 4;
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> dist(0, 99);
  std::vector<int> input(8 * kMorsel);
  for (auto& v : input) v = dist(rng);
  // The per-run sorts make exactly these comparator calls (the same
  // std::sort over the same runs), so the next call is the first one
  // of the first merge round.
  uint64_t run_calls = 0;
  for (auto run = input.begin(); run != input.end(); run += kMorsel) {
    std::vector<int> copy(run, run + kMorsel);
    std::sort(copy.begin(), copy.end(), CountingIntLess()(&run_calls));
  }

  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    ParallelContext ctx{threads > 1 ? &pool : nullptr, kMorsel};
    QueryContext query;
    ctx.query = &query;
    std::atomic<uint64_t> calls{0};
    auto cancel_inside_merge = [&](uint64_t* count) {
      return [&, count](int a, int b) {
        ++*count;
        if (calls.fetch_add(1) == run_calls) query.Cancel();
        return a < b;
      };
    };
    std::vector<int> values = input;
    const Status status =
        ParallelSort(ctx, &values, nullptr, cancel_inside_merge);
    EXPECT_EQ(status.code(), StatusCode::kCancelled) << threads << " threads";
    EXPECT_GT(calls.load(), run_calls) << threads << " threads";
  }
}

// ---------------------------------------------------------------------
// Whole-query determinism: serial and parallel runs of the unnesting
// evaluator must agree exactly -- tuples, degrees, and CpuStats.
// ---------------------------------------------------------------------

struct DeterminismCase {
  const char* name;
  const char* query;
};

// Everything about a trace that must be thread-count-invariant: tree
// shape, operator names/details, cardinalities, and every counter
// delta. Wall times and the threads= annotation are the only fields
// allowed to differ, so they are the only fields left out.
void AppendTraceSignature(const ExecTrace& trace, size_t id, int depth,
                          std::string* out) {
  const TraceNode& node = trace.nodes()[id];
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += node.name;
  if (!node.detail.empty()) *out += " [" + node.detail + "]";
  if (node.input_rows != TraceNode::kNoCount) {
    *out += " in=" + std::to_string(node.input_rows);
  }
  if (node.output_rows != TraceNode::kNoCount) {
    *out += " out=" + std::to_string(node.output_rows);
  }
  *out += " pairs=" + std::to_string(node.cpu.tuple_pairs);
  *out += " degrees=" + std::to_string(node.cpu.degree_evaluations);
  *out += " cmp=" + std::to_string(node.cpu.comparisons);
  *out += " subq=" + std::to_string(node.cpu.subquery_evaluations);
  *out += " reads=" + std::to_string(node.io.page_reads);
  *out += " writes=" + std::to_string(node.io.page_writes);
  if (node.clamped) *out += " CLAMPED";
  *out += "\n";
  for (size_t child : node.children) {
    AppendTraceSignature(trace, child, depth + 1, out);
  }
}

std::string TraceSignature(const ExecTrace& trace) {
  std::string out;
  for (size_t root : trace.roots()) {
    AppendTraceSignature(trace, root, 0, &out);
  }
  return out;
}

const DeterminismCase kDeterminismCases[] = {
    {"TypeN",
     "SELECT R.C0 FROM R WHERE R.C1 IN (SELECT S.C0 FROM S WHERE S.C1 >= 5)"},
    {"TypeJ",
     "SELECT R.C0 FROM R WHERE R.C1 IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)"},
    {"TypeJ_TwoCorrelations",
     "SELECT R.C0 FROM R WHERE R.C1 IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2 AND S.C0 >= R.C0)"},
    {"TypeJX",
     "SELECT R.C0 FROM R WHERE R.C1 NOT IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)"},
    {"TypeJA_Max",
     "SELECT R.C0 FROM R WHERE R.C1 > "
     "(SELECT MAX(S.C0) FROM S WHERE S.C1 = R.C2)"},
    {"TypeJA_Count",
     "SELECT R.C0 FROM R WHERE R.C1 >= "
     "(SELECT COUNT(S.C0) FROM S WHERE S.C1 = R.C2)"},
    {"TypeJALL",
     "SELECT R.C0 FROM R WHERE R.C1 <= ALL "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)"},
    {"TypeJSOME",
     "SELECT R.C0 FROM R WHERE R.C1 < SOME "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)"},
    {"TypeJEXISTS",
     "SELECT R.C0 FROM R WHERE EXISTS "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)"},
    {"Multi_MixedKinds",
     "SELECT R.C0 FROM R WHERE "
     "R.C1 IN (SELECT S.C0 FROM S WHERE S.C1 = R.C2) AND "
     "R.C0 <= (SELECT MAX(S.C0) FROM S WHERE S.C1 = R.C1) AND "
     "R.C2 < SOME (SELECT S.C1 FROM S)"},
    {"Chain3",
     "SELECT R.C0 FROM R WHERE R.C1 IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2 AND S.C0 IN "
     "(SELECT T3.C0 FROM T3 WHERE T3.C1 = S.C1))"},
};

class DeterminismTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DeterminismTest, IdenticalAnswerAndStatsForEveryThreadCount) {
  const DeterminismCase& test_case = kDeterminismCases[GetParam()];

  // Relations large enough that every operator spans many 16-tuple
  // morsels (filter, sort runs, merge windows).
  Catalog catalog;
  ASSERT_OK(catalog.AddRelation(GenerateRandomRelation(101, "R", 3, 300)));
  ASSERT_OK(catalog.AddRelation(GenerateRandomRelation(202, "S", 2, 300)));
  ASSERT_OK(catalog.AddRelation(GenerateRandomRelation(303, "T3", 2, 120)));
  ASSERT_OK_AND_ASSIGN(auto bound,
                       sql::ParseAndBind(test_case.query, catalog));

  // The serial run is the reference; the naive evaluator guards its
  // correctness.
  NaiveEvaluator naive;
  ASSERT_OK_AND_ASSIGN(Relation oracle, naive.Evaluate(*bound));

  // The reference is the serial one-lane run: one thread, batch size 1.
  // Every (threads, batch_size) combination must reproduce it exactly
  // -- tuples, degrees, counters, and trace.
  ExecOptions options;
  options.morsel_size = 16;
  options.num_threads = 1;
  options.batch_size = 1;
  ExecTrace reference_trace;
  options.trace = &reference_trace;
  CpuStats reference_cpu;
  UnnestingEvaluator reference(options, &reference_cpu);
  ASSERT_OK_AND_ASSIGN(Relation expected, reference.Evaluate(*bound));
  EXPECT_TRUE(reference.last_was_unnested()) << test_case.query;
  EXPECT_TRUE(oracle.EquivalentTo(expected, 1e-12)) << test_case.name;
  const std::string reference_signature = TraceSignature(reference_trace);
  ASSERT_FALSE(reference_signature.empty());

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    // Batch sizes chosen to exercise the degenerate one-lane batch (1),
    // a ragged morsel-interior size (7), and the full SoA capacity
    // (1024).
    for (size_t batch_size : {1u, 7u, 1024u}) {
      if (threads == 1 && batch_size == 1) continue;  // the reference
      options.num_threads = threads;
      options.batch_size = batch_size;
      ExecTrace trace;
      options.trace = &trace;
      CpuStats cpu;
      UnnestingEvaluator parallel(options, &cpu);
      ASSERT_OK_AND_ASSIGN(Relation actual, parallel.Evaluate(*bound));
      const std::string label = test_case.name + std::string(" with ") +
                                std::to_string(threads) + " threads, batch " +
                                std::to_string(batch_size);
      // Tuples and degrees: exact, not approximate -- the parallel and
      // batch plans perform the same arithmetic on the same operands.
      EXPECT_TRUE(expected.EquivalentTo(actual, 0.0))
          << label << "\nserial:\n"
          << expected.ToString(20) << "\nparallel:\n" << actual.ToString(20);
      // Work counters: identical, field by field.
      EXPECT_EQ(cpu.tuple_pairs, reference_cpu.tuple_pairs) << label;
      EXPECT_EQ(cpu.degree_evaluations, reference_cpu.degree_evaluations)
          << label;
      EXPECT_EQ(cpu.comparisons, reference_cpu.comparisons) << label;
      EXPECT_EQ(cpu.subquery_evaluations,
                reference_cpu.subquery_evaluations)
          << label;
      // The execution trace -- operator tree, cardinalities, and every
      // per-span counter delta -- is invariant across the whole matrix
      // (batch annotations live outside the signature by design).
      EXPECT_EQ(TraceSignature(trace), reference_signature) << label;
    }
  }
}

std::string DeterminismCaseName(
    const ::testing::TestParamInfo<size_t>& info) {
  return kDeterminismCases[info.param].name;
}

INSTANTIATE_TEST_SUITE_P(AllTypes, DeterminismTest,
                         ::testing::Range<size_t>(
                             0, std::size(kDeterminismCases)),
                         DeterminismCaseName);

// ---------------------------------------------------------------------
// File operators: partitioned join and external sort
// ---------------------------------------------------------------------

TEST(ParallelPartitionedJoinTest, EmitSequenceAndStatsMatchSerial) {
  WorkloadConfig config;
  config.seed = 91;
  config.num_r = 300;
  config.num_s = 300;
  config.join_fanout = 5;
  config.partial_membership_fraction = 0.5;
  TypeJDataset dataset = GenerateTypeJDataset(config);

  BufferPool pool(32);
  ASSERT_OK_AND_ASSIGN(
      auto r_file, WriteRelationToFile(dataset.r, TempPath("pj_r"), &pool, 128));
  ASSERT_OK_AND_ASSIGN(
      auto s_file, WriteRelationToFile(dataset.s, TempPath("pj_s"), &pool, 128));

  FuzzyJoinSpec spec;
  spec.outer_key = 1;
  spec.inner_key = 0;
  spec.residuals.push_back({2, 1, CompareOp::kEq});

  struct Emitted {
    std::string r, s;
    double d;
    bool operator==(const Emitted&) const = default;
  };
  auto run = [&](const ParallelContext* ctx, std::vector<Emitted>* out,
                 CpuStats* cpu) {
    return FilePartitionedJoin(
        r_file.get(), s_file.get(), &pool, spec, /*num_partitions=*/8,
        TempPath("pj_tmp"), cpu,
        [&](const Tuple& r, const Tuple& s, double d) {
          out->push_back({r.ToString(), s.ToString(), d});
          return Status::OK();
        },
        /*stats=*/nullptr, ctx);
  };

  std::vector<Emitted> serial;
  CpuStats serial_cpu;
  ASSERT_OK(run(nullptr, &serial, &serial_cpu));
  EXPECT_GT(serial.size(), 0u);

  for (size_t threads : {2u, 4u}) {
    ThreadPool workers(threads);
    ParallelContext ctx{&workers, /*morsel_size=*/16};
    std::vector<Emitted> parallel;
    CpuStats cpu;
    ASSERT_OK(run(&ctx, &parallel, &cpu));
    EXPECT_EQ(parallel, serial) << threads << " threads";
    EXPECT_EQ(cpu, serial_cpu) << threads << " threads";
  }

  r_file.reset();
  s_file.reset();
  RemoveFileIfExists(TempPath("pj_r"));
  RemoveFileIfExists(TempPath("pj_s"));
}

TEST(ParallelExternalSortTest, OutputAndCountInvariantAcrossThreadCounts) {
  Relation relation = GenerateRandomRelation(55, "R", 2, 1200, 0, 500);
  BufferPool pool(8);
  ASSERT_OK_AND_ASSIGN(
      auto input, WriteRelationToFile(relation, TempPath("es_in"), &pool, 128));

  TupleLess less = [](const Tuple& a, const Tuple& b) {
    return IntervalOrderLess(a.ValueAt(0).AsFuzzy(), b.ValueAt(0).AsFuzzy());
  };

  std::vector<std::string> reference;
  uint64_t reference_comparisons = 0;
  for (size_t threads : {1u, 2u, 4u}) {
    ThreadPool workers(threads);
    ParallelContext ctx{threads > 1 ? &workers : nullptr, /*morsel_size=*/64};
    const std::string out_path =
        TempPath("es_out" + std::to_string(threads));
    SortStats stats;
    ASSERT_OK_AND_ASSIGN(
        auto sorted,
        ExternalSort(input.get(), &pool, less, TempPath("es_tmp"), out_path,
                     /*buffer_pages=*/4, /*min_record_size=*/128, &stats,
                     &ctx));
    ASSERT_OK_AND_ASSIGN(
        Relation result,
        ReadRelationFromFile(sorted.get(), &pool, "sorted", relation.schema()));
    ASSERT_EQ(result.NumTuples(), relation.NumTuples());
    std::vector<std::string> sequence;
    for (const Tuple& t : result.tuples()) sequence.push_back(t.ToString());

    if (reference.empty()) {
      reference = std::move(sequence);
      reference_comparisons = stats.comparisons;
    } else {
      EXPECT_EQ(sequence, reference) << threads << " threads";
      EXPECT_EQ(stats.comparisons, reference_comparisons)
          << threads << " threads";
    }
    pool.Invalidate(sorted.get());
    sorted.reset();
    RemoveFileIfExists(out_path);
  }
  input.reset();
  RemoveFileIfExists(TempPath("es_in"));
}

}  // namespace
}  // namespace fuzzydb
