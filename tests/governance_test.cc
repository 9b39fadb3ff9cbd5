// Query-lifecycle governance end to end: cancellation, deadlines, and
// memory budgets surface as well-formed statuses at every thread count,
// and injected IO faults propagate cleanly -- no leaked temporaries, no
// unbalanced budget accounting.
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/query_context.h"
#include "engine/exec_options.h"
#include "engine/merge_join.h"
#include "engine/naive_evaluator.h"
#include "engine/nested_loop_join.h"
#include "engine/partitioned_join.h"
#include "engine/unnested_evaluator.h"
#include "fuzzy/interval_order.h"
#include "obs/metrics.h"
#include "sort/external_sort.h"
#include "sql/binder.h"
#include "storage/io_stats.h"
#include "test_util.h"
#include "workload/generator.h"

namespace fuzzydb {
namespace {

namespace fs = std::filesystem;

// A fresh directory for one test's files, so leak assertions can list
// exactly what a failed operator left behind.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(fs::path(::testing::TempDir()) / ("fuzzydb_gov_" + name)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }

  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

  // Names of files in the directory containing `substr`.
  std::vector<std::string> FilesContaining(const std::string& substr) const {
    std::vector<std::string> out;
    for (const auto& entry : fs::directory_iterator(path_)) {
      const std::string name = entry.path().filename().string();
      if (name.find(substr) != std::string::npos) out.push_back(name);
    }
    return out;
  }

 private:
  fs::path path_;
};

TupleLess IntervalLessOn(size_t col) {
  return [col](const Tuple& a, const Tuple& b) {
    return IntervalOrderLess(a.ValueAt(col).AsFuzzy(),
                             b.ValueAt(col).AsFuzzy());
  };
}

JoinEmit DiscardEmit() {
  return [](const Tuple&, const Tuple&, double) { return Status::OK(); };
}

// A Type J query over morsel-spanning relations; every governed operator
// (filter, sort, merge join) is on its plan.
constexpr char kJoinQuery[] =
    "SELECT R.C0 FROM R WHERE R.C1 IN "
    "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)";

Catalog MakeJoinCatalog() {
  Catalog catalog;
  EXPECT_OK(catalog.AddRelation(GenerateRandomRelation(11, "R", 3, 400)));
  EXPECT_OK(catalog.AddRelation(GenerateRandomRelation(22, "S", 2, 400)));
  return catalog;
}

class GovernanceTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPoints::DisarmAll(); }
  void TearDown() override { FailPoints::DisarmAll(); }
};

// ---------------------------------------------------------------------
// Cancellation and deadlines through the evaluators, at 1/2/4/8 threads.

TEST_F(GovernanceTest, CancelledQueryFailsAtEveryThreadCount) {
  Catalog catalog = MakeJoinCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kJoinQuery, catalog));
  EngineMetrics* metrics = EngineMetrics::Instance();
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    QueryContext qctx;
    qctx.Cancel();
    ExecOptions options;
    options.num_threads = threads;
    options.morsel_size = 16;
    options.context = &qctx;
    const uint64_t cancelled_before = metrics->queries_cancelled->Value();
    UnnestingEvaluator engine(options);
    Result<Relation> answer = engine.Evaluate(*bound);
    ASSERT_FALSE(answer.ok()) << threads << " threads";
    EXPECT_EQ(answer.status().code(), StatusCode::kCancelled)
        << threads << " threads: " << answer.status().ToString();
    // Budget accounting balances even on the abandoned path.
    EXPECT_EQ(qctx.memory().used(), 0) << threads << " threads";
    EXPECT_GE(metrics->queries_cancelled->Value(), cancelled_before + 1);
  }
}

// A query stopped before it starts still reports its own plan decision,
// not the previous statement's.
TEST_F(GovernanceTest, CancelledQueryReportsItsOwnClassification) {
  Catalog catalog = MakeJoinCatalog();
  ASSERT_OK_AND_ASSIGN(auto flat, sql::ParseAndBind("SELECT R.C0 FROM R",
                                                    catalog));
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kJoinQuery, catalog));
  QueryContext qctx;
  ExecOptions options;
  options.context = &qctx;
  UnnestingEvaluator engine(options);
  ASSERT_OK(engine.Evaluate(*flat).status());
  EXPECT_FALSE(engine.last_was_unnested());
  qctx.Cancel();
  EXPECT_EQ(engine.Evaluate(*bound).status().code(), StatusCode::kCancelled);
  EXPECT_EQ(engine.last_type(), QueryType::kTypeJ);
  EXPECT_TRUE(engine.last_was_unnested());
}

TEST_F(GovernanceTest, ExpiredDeadlineFailsAtEveryThreadCount) {
  Catalog catalog = MakeJoinCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kJoinQuery, catalog));
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    QueryContext qctx;
    qctx.set_deadline_after_ms(0.0);  // already expired
    ExecOptions options;
    options.num_threads = threads;
    options.morsel_size = 16;
    options.context = &qctx;
    UnnestingEvaluator engine(options);
    Result<Relation> answer = engine.Evaluate(*bound);
    ASSERT_FALSE(answer.ok()) << threads << " threads";
    EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded)
        << threads << " threads: " << answer.status().ToString();
    EXPECT_EQ(qctx.memory().used(), 0) << threads << " threads";
  }
}

// A deadline past the steady clock's range saturates: it never fires,
// where an unchecked cast to the clock's integer ticks would overflow
// and land in the past.
TEST(QueryContextTest, DeadlinePastTheClockRangeNeverFires) {
  for (double ms : {1e13, 1e300, std::numeric_limits<double>::infinity()}) {
    QueryContext qctx;
    qctx.set_deadline_after_ms(ms);
    EXPECT_TRUE(qctx.has_deadline());
    EXPECT_FALSE(qctx.StopRequested()) << ms << " ms";
    EXPECT_OK(qctx.Check());
  }
  QueryContext expired;
  expired.set_deadline_after_ms(-1e300);
  EXPECT_TRUE(expired.StopRequested());
}

// A three-level chain whose second step joins ~212k partial rows of
// 3 tuple pointers plus a degree (~6.8 MB): the rows are charged to the
// query's budget, so a 1 MiB budget stops the chain instead of letting
// it grow, and the accounting balances afterwards.
TEST_F(GovernanceTest, ChainRowsObeyTheMemoryBudget) {
  Catalog catalog;
  ASSERT_OK(catalog.AddRelation(GenerateRandomRelation(11, "R", 3, 100)));
  ASSERT_OK(catalog.AddRelation(GenerateRandomRelation(13, "S", 2, 150)));
  ASSERT_OK(catalog.AddRelation(GenerateRandomRelation(17, "T3", 2, 60)));
  ASSERT_OK_AND_ASSIGN(
      auto bound,
      sql::ParseAndBind("SELECT R.C0 FROM R WHERE R.C1 IN "
                        "(SELECT S.C0 FROM S WHERE S.C1 = R.C2 AND S.C0 IN "
                        "(SELECT T3.C0 FROM T3 WHERE T3.C1 = S.C1))",
                        catalog));
  for (size_t threads : {1u, 4u}) {
    ExecOptions options;
    options.num_threads = threads;
    {
      QueryContext unlimited;
      options.context = &unlimited;
      UnnestingEvaluator engine(options);
      ASSERT_OK(engine.Evaluate(*bound).status());
      EXPECT_GT(unlimited.memory().peak(), 4 << 20) << threads << " threads";
      EXPECT_EQ(unlimited.memory().used(), 0) << threads << " threads";
    }
    QueryContext qctx;
    qctx.memory().set_limit(1 << 20);
    options.context = &qctx;
    UnnestingEvaluator engine(options);
    Result<Relation> answer = engine.Evaluate(*bound);
    ASSERT_FALSE(answer.ok()) << threads << " threads";
    EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted)
        << threads << " threads: " << answer.status().ToString();
    EXPECT_EQ(qctx.memory().used(), 0) << threads << " threads";
    EXPECT_GT(qctx.memory().denied_bytes(), 0u) << threads << " threads";
  }
}

TEST_F(GovernanceTest, NaiveEvaluatorHonoursGovernance) {
  Catalog catalog = MakeJoinCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kJoinQuery, catalog));
  {
    QueryContext qctx;
    qctx.Cancel();
    NaiveEvaluator naive(nullptr, nullptr, &qctx);
    Result<Relation> answer = naive.Evaluate(*bound);
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.status().code(), StatusCode::kCancelled);
  }
  {
    QueryContext qctx;
    qctx.set_deadline_after_ms(0.0);
    NaiveEvaluator naive(nullptr, nullptr, &qctx);
    Result<Relation> answer = naive.Evaluate(*bound);
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST_F(GovernanceTest, MidFlightCancelStopsWorkersCleanly) {
  Catalog catalog = MakeJoinCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kJoinQuery, catalog));
  // Race a cancel against the query: whichever wins, the evaluator must
  // return either a full answer or CANCELLED -- never crash, hang, or
  // leave the budget unbalanced.
  for (int round = 0; round < 5; ++round) {
    QueryContext qctx;
    ExecOptions options;
    options.num_threads = 4;
    options.morsel_size = 16;
    options.context = &qctx;
    std::thread canceller([&qctx] { qctx.Cancel(); });
    UnnestingEvaluator engine(options);
    Result<Relation> answer = engine.Evaluate(*bound);
    canceller.join();
    if (!answer.ok()) {
      EXPECT_EQ(answer.status().code(), StatusCode::kCancelled)
          << answer.status().ToString();
    }
    EXPECT_EQ(qctx.memory().used(), 0);
    // Once the cancel is visible, the next run must fail.
    UnnestingEvaluator again(options);
    Result<Relation> after = again.Evaluate(*bound);
    ASSERT_FALSE(after.ok());
    EXPECT_EQ(after.status().code(), StatusCode::kCancelled);
  }
}

// ---------------------------------------------------------------------
// Memory budgets.

TEST_F(GovernanceTest, SortBudgetDenialLeavesNoRunFiles) {
  ScratchDir dir("sort_budget");
  Relation relation = GenerateRandomRelation(7, "R", 2, 2000);
  BufferPool pool(8);
  ASSERT_OK_AND_ASSIGN(
      auto input, WriteRelationToFile(relation, dir.File("in"), &pool, 128));

  QueryContext qctx;
  qctx.memory().set_limit(64);  // far below one sort batch
  auto sorted = ExternalSort(input.get(), &pool, IntervalLessOn(0),
                             dir.File("tmp"), dir.File("out"),
                             /*buffer_pages=*/4, /*min_record_size=*/128,
                             nullptr, nullptr, nullptr, &qctx);
  ASSERT_FALSE(sorted.ok());
  EXPECT_EQ(sorted.status().code(), StatusCode::kResourceExhausted)
      << sorted.status().ToString();
  EXPECT_TRUE(dir.FilesContaining(".run").empty());
  EXPECT_EQ(qctx.memory().used(), 0);
  EXPECT_GT(qctx.memory().denied_bytes(), 0u);
}

// ---------------------------------------------------------------------
// Fault injection: every early-error path cleans up after itself.

TEST_F(GovernanceTest, SpillWriteFaultLeavesNoRunFiles) {
  ScratchDir dir("spill_write");
  Relation relation = GenerateRandomRelation(8, "R", 2, 2000);
  BufferPool pool(8);
  ASSERT_OK_AND_ASSIGN(
      auto input, WriteRelationToFile(relation, dir.File("in"), &pool, 128));

  FailPoints::Arm("sort/spill-write", /*failures=*/1);
  auto sorted = ExternalSort(input.get(), &pool, IntervalLessOn(0),
                             dir.File("tmp"), dir.File("out"),
                             /*buffer_pages=*/4, /*min_record_size=*/128);
  ASSERT_FALSE(sorted.ok());
  EXPECT_EQ(sorted.status().code(), StatusCode::kIoError);
  EXPECT_NE(sorted.status().message().find("sort/spill-write"),
            std::string::npos);
  EXPECT_GE(FailPoints::Hits("sort/spill-write"), 1u);
  EXPECT_TRUE(dir.FilesContaining(".run").empty());
}

TEST_F(GovernanceTest, MidSpillFaultLeavesNoRunFiles) {
  // Let the first spills succeed so run files exist when the fault
  // fires; the sort must remove the earlier runs on its way out.
  ScratchDir dir("mid_spill");
  Relation relation = GenerateRandomRelation(9, "R", 2, 4000);
  BufferPool pool(8);
  ASSERT_OK_AND_ASSIGN(
      auto input, WriteRelationToFile(relation, dir.File("in"), &pool, 128));

  FailPoints::Arm("sort/spill-write", /*failures=*/1, /*skip=*/2);
  auto sorted = ExternalSort(input.get(), &pool, IntervalLessOn(0),
                             dir.File("tmp"), dir.File("out"),
                             /*buffer_pages=*/4, /*min_record_size=*/128);
  ASSERT_FALSE(sorted.ok());
  EXPECT_EQ(sorted.status().code(), StatusCode::kIoError);
  EXPECT_TRUE(dir.FilesContaining(".run").empty());
}

TEST_F(GovernanceTest, RunOpenFaultDuringMergeLeavesNoRunFiles) {
  ScratchDir dir("run_open");
  Relation relation = GenerateRandomRelation(10, "R", 2, 4000);
  BufferPool pool(8);
  ASSERT_OK_AND_ASSIGN(
      auto input, WriteRelationToFile(relation, dir.File("in"), &pool, 128));

  FailPoints::Arm("sort/run-open", /*failures=*/1);
  auto sorted = ExternalSort(input.get(), &pool, IntervalLessOn(0),
                             dir.File("tmp"), dir.File("out"),
                             /*buffer_pages=*/4, /*min_record_size=*/128);
  ASSERT_FALSE(sorted.ok());
  EXPECT_EQ(sorted.status().code(), StatusCode::kIoError);
  EXPECT_NE(sorted.status().message().find("sort/run-open"),
            std::string::npos);
  EXPECT_GE(FailPoints::Hits("sort/run-open"), 1u);
  EXPECT_TRUE(dir.FilesContaining(".run").empty());
}

TEST_F(GovernanceTest, FileCreateFaultFailsSortCleanly) {
  ScratchDir dir("file_create");
  Relation relation = GenerateRandomRelation(12, "R", 2, 500);
  BufferPool pool(8);
  ASSERT_OK_AND_ASSIGN(
      auto input, WriteRelationToFile(relation, dir.File("in"), &pool, 128));

  FailPoints::Arm("storage/file-create", /*failures=*/1);
  auto sorted = ExternalSort(input.get(), &pool, IntervalLessOn(0),
                             dir.File("tmp"), dir.File("out"),
                             /*buffer_pages=*/4, /*min_record_size=*/128);
  ASSERT_FALSE(sorted.ok());
  EXPECT_EQ(sorted.status().code(), StatusCode::kIoError);
  EXPECT_NE(sorted.status().message().find("storage/file-create"),
            std::string::npos);
  EXPECT_TRUE(dir.FilesContaining(".run").empty());
}

// Shared Type J file-join setup for the per-join fault tests.
struct JoinFiles {
  BufferPool pool{16};
  std::unique_ptr<PageFile> r_file;
  std::unique_ptr<PageFile> s_file;
  FuzzyJoinSpec spec;
};

void MakeJoinFiles(const ScratchDir& dir, JoinFiles* files) {
  WorkloadConfig config;
  config.seed = 5;
  config.num_r = 300;
  config.num_s = 300;
  config.join_fanout = 6;
  TypeJDataset dataset = GenerateTypeJDataset(config);
  ASSERT_OK_AND_ASSIGN(
      files->r_file,
      WriteRelationToFile(dataset.r, dir.File("R"), &files->pool, 128));
  ASSERT_OK_AND_ASSIGN(
      files->s_file,
      WriteRelationToFile(dataset.s, dir.File("S"), &files->pool, 128));
  files->spec.outer_key = 1;  // R.Y
  files->spec.inner_key = 0;  // S.Z
}

TEST_F(GovernanceTest, PageReadFaultFailsNestedLoopJoin) {
  ScratchDir dir("nl_fault");
  JoinFiles files;
  MakeJoinFiles(dir, &files);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  FailPoints::Arm("storage/page-read", /*failures=*/1);
  IoStats io;
  const Status status =
      FileNestedLoopJoin(files.r_file.get(), files.s_file.get(), &io,
                         /*buffer_pages=*/4, files.spec, nullptr,
                         DiscardEmit());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("storage/page-read"), std::string::npos);
  EXPECT_GE(FailPoints::Hits("storage/page-read"), 1u);
}

TEST_F(GovernanceTest, PageFetchFaultFailsMergeJoin) {
  ScratchDir dir("mj_fault");
  JoinFiles files;
  MakeJoinFiles(dir, &files);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  ASSERT_OK_AND_ASSIGN(
      auto r_sorted,
      ExternalSort(files.r_file.get(), &files.pool, IntervalLessOn(1),
                   dir.File("rs"), dir.File("R.sorted"), 8, 128));
  ASSERT_OK_AND_ASSIGN(
      auto s_sorted,
      ExternalSort(files.s_file.get(), &files.pool, IntervalLessOn(0),
                   dir.File("ss"), dir.File("S.sorted"), 8, 128));

  // bufferpool/get-page fires on cached pages too, so the fault is
  // deterministic regardless of what sorting left in the pool.
  FailPoints::Arm("bufferpool/get-page", /*failures=*/1);
  const Status status =
      FileMergeJoin(r_sorted.get(), s_sorted.get(), &files.pool, files.spec,
                    nullptr, DiscardEmit());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("bufferpool/get-page"), std::string::npos);
}

TEST_F(GovernanceTest, PageFetchFaultFailsPartitionedJoinWithoutLeaks) {
  ScratchDir dir("pj_fault");
  JoinFiles files;
  MakeJoinFiles(dir, &files);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  // Measure how many page fetches a clean run performs (an armed point
  // with a huge skip budget counts hits without ever failing)...
  FailPoints::Arm("bufferpool/get-page", /*failures=*/1,
                  /*skip=*/1'000'000'000);
  ASSERT_OK(FilePartitionedJoin(files.r_file.get(), files.s_file.get(),
                                &files.pool, files.spec,
                                /*num_partitions=*/4, dir.File("part"),
                                nullptr, DiscardEmit()));
  const uint64_t total_fetches = FailPoints::Hits("bufferpool/get-page");
  ASSERT_GT(total_fetches, 2u);
  EXPECT_TRUE(dir.FilesContaining(".p").empty()) << "clean run leaked";

  // ... then fail halfway through a second run: partition temporaries
  // exist at that point and must be removed on the error path.
  FailPoints::Arm("bufferpool/get-page", /*failures=*/1,
                  /*skip=*/static_cast<int64_t>(total_fetches / 2));
  const Status status = FilePartitionedJoin(
      files.r_file.get(), files.s_file.get(), &files.pool, files.spec,
      /*num_partitions=*/4, dir.File("part"), nullptr, DiscardEmit());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("bufferpool/get-page"), std::string::npos);
  EXPECT_TRUE(dir.FilesContaining(".p").empty()) << "error path leaked";
}

TEST_F(GovernanceTest, MergeJoinBudgetDenialBalances) {
  ScratchDir dir("mj_budget");
  JoinFiles files;
  MakeJoinFiles(dir, &files);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  ASSERT_OK_AND_ASSIGN(
      auto r_sorted,
      ExternalSort(files.r_file.get(), &files.pool, IntervalLessOn(1),
                   dir.File("rs"), dir.File("R.sorted"), 8, 128));
  ASSERT_OK_AND_ASSIGN(
      auto s_sorted,
      ExternalSort(files.s_file.get(), &files.pool, IntervalLessOn(0),
                   dir.File("ss"), dir.File("S.sorted"), 8, 128));

  QueryContext qctx;
  qctx.memory().set_limit(16);  // below a single window tuple
  const Status status =
      FileMergeJoin(r_sorted.get(), s_sorted.get(), &files.pool, files.spec,
                    nullptr, DiscardEmit(), nullptr, &qctx);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
      << status.ToString();
  EXPECT_EQ(qctx.memory().used(), 0);
  EXPECT_GT(qctx.memory().denied_bytes(), 0u);
}

TEST_F(GovernanceTest, EnvSpecDrivesInjection) {
  // The env path itself is covered by ArmFromSpec (failpoint_test); here
  // the spec string arms a storage point and a real IO site trips it.
  ScratchDir dir("env_spec");
  Relation relation = GenerateRandomRelation(13, "R", 2, 200);
  BufferPool pool(8);
  ASSERT_OK_AND_ASSIGN(
      auto input, WriteRelationToFile(relation, dir.File("in"), &pool, 128));

  ASSERT_TRUE(FailPoints::ArmFromSpec("storage/file-open=1"));
  auto reopened = PageFile::Open(dir.File("in"));
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kIoError);
  EXPECT_NE(reopened.status().message().find("storage/file-open"),
            std::string::npos);
  // Spent after one failure: the reopen now succeeds.
  ASSERT_OK_AND_ASSIGN(auto ok_file, PageFile::Open(dir.File("in")));
  EXPECT_NE(ok_file, nullptr);
}

}  // namespace
}  // namespace fuzzydb
