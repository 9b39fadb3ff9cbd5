// Live query introspection end to end: the active-query registry
// (SHOW QUERIES / sys.queries / KILL), per-phase accounting and its
// thread-count-invariant determinism signature, the structured query
// journal (sampling, rotation, fault injection), and the observability
// surfaces that ride on them. The concurrent tests double as the TSan
// workload for QueryProgress and ActiveQueryRegistry.
#include "obs/query_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/query_context.h"
#include "engine/exec_options.h"
#include "engine/unnested_evaluator.h"
#include "obs/metrics.h"
#include "obs/query_journal.h"
#include "shell/shell.h"
#include "sql/binder.h"
#include "test_util.h"
#include "workload/generator.h"

namespace fuzzydb {
namespace {

namespace fs = std::filesystem;

// The governance_test workload: a Type J query whose relations span
// many morsels, so every phase (plan, filter, sort, window, emit) and
// the parallel barriers are exercised.
constexpr char kJoinQuery[] =
    "SELECT R.C0 FROM R WHERE R.C1 IN "
    "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)";

Catalog MakeJoinCatalog() {
  Catalog catalog;
  EXPECT_OK(catalog.AddRelation(GenerateRandomRelation(11, "R", 3, 400)));
  EXPECT_OK(catalog.AddRelation(GenerateRandomRelation(22, "S", 2, 400)));
  return catalog;
}

class IntrospectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::DisarmAll();
    // Disable any journal a previous test left open.
    ASSERT_OK(QueryJournal::Global().SetPath(""));
  }
  void TearDown() override {
    FailPoints::DisarmAll();
    ASSERT_OK(QueryJournal::Global().SetPath(""));
  }
};

// ---------------------------------------------------------------------
// QueryProgress / PhaseScope unit semantics
// ---------------------------------------------------------------------

TEST_F(IntrospectionTest, PhaseScopeCountsEntersAndRestoresNesting) {
  QueryProgress progress;
  EXPECT_EQ(progress.phase(), QueryPhase::kNone);
  {
    PhaseScope plan(&progress, QueryPhase::kPlan);
    EXPECT_EQ(progress.phase(), QueryPhase::kPlan);
    {
      PhaseScope sort(&progress, QueryPhase::kSort);
      EXPECT_EQ(progress.phase(), QueryPhase::kSort);
    }
    // The inner scope restored the enclosing phase without counting a
    // second plan enter.
    EXPECT_EQ(progress.phase(), QueryPhase::kPlan);
  }
  progress.FinishPhases();
  EXPECT_EQ(progress.phase(), QueryPhase::kNone);
  EXPECT_EQ(progress.PhaseEnters(QueryPhase::kPlan), 1u);
  EXPECT_EQ(progress.PhaseEnters(QueryPhase::kSort), 1u);
  EXPECT_EQ(progress.PhaseEnters(QueryPhase::kJoin), 0u);
  // The annotation lists entered phases in pipeline order.
  const std::string text = progress.PhasesText();
  EXPECT_NE(text.find("plan="), std::string::npos) << text;
  EXPECT_NE(text.find("sort="), std::string::npos) << text;
  EXPECT_EQ(text.find("join="), std::string::npos) << text;
  EXPECT_LT(text.find("plan="), text.find("sort=")) << text;
}

TEST_F(IntrospectionTest, NullProgressIsANoOp) {
  // The whole engine runs with progress == nullptr; the scope must cost
  // one pointer test and nothing else.
  PhaseScope scope(nullptr, QueryPhase::kJoin);
  QueryProgress progress;
  progress.AddMorsel(10);
  progress.AddRows(3);
  progress.AddPairs(7);
  EXPECT_EQ(progress.items_done(), 10u);
  EXPECT_EQ(progress.morsels_done(), 1u);
  EXPECT_EQ(progress.rows_emitted(), 3u);
  EXPECT_EQ(progress.pairs_considered(), 7u);
}

// ---------------------------------------------------------------------
// Registry lifecycle
// ---------------------------------------------------------------------

TEST_F(IntrospectionTest, RegistrationIsVisibleWhileHeldAndGoneAfter) {
  ActiveQueryRegistry& registry = ActiveQueryRegistry::Global();
  const size_t size_before = registry.Size();
  uint64_t id = 0;
  {
    QueryContext qctx;
    QueryProgress progress;
    ActiveQueryRegistration reg(kJoinQuery, &qctx, &progress, 4);
    id = reg.id();
    ASSERT_GT(id, 0u);
    EXPECT_EQ(progress.query_id(), id);
    EXPECT_EQ(registry.Size(), size_before + 1);

    progress.AddRows(42);
    std::vector<ActiveQueryInfo> snapshot = registry.Snapshot();
    bool found = false;
    for (const ActiveQueryInfo& info : snapshot) {
      if (info.id != id) continue;
      found = true;
      EXPECT_EQ(info.sql, kJoinQuery);
      EXPECT_EQ(info.phase, "none");  // no phase entered yet
      EXPECT_EQ(info.rows_emitted, 42u);
      EXPECT_EQ(info.threads, 4u);
      EXPECT_FALSE(info.cancel_requested);
    }
    EXPECT_TRUE(found);

    // The text and relation surfaces render the same entry.
    EXPECT_NE(registry.ToText().find(kJoinQuery), std::string::npos);
    Relation relation = registry.ToRelation();
    EXPECT_EQ(relation.name(), "sys.queries");
    EXPECT_EQ(relation.schema().NumColumns(), 10u);
    EXPECT_GE(relation.NumTuples(), 1u);
  }
  EXPECT_EQ(registry.Size(), size_before);
  // A finished id is no longer killable.
  EXPECT_FALSE(registry.Kill(id));
}

TEST_F(IntrospectionTest, ConcurrentReaderSeesLiveQuery) {
  Catalog catalog = MakeJoinCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kJoinQuery, catalog));
  ActiveQueryRegistry& registry = ActiveQueryRegistry::Global();

  std::atomic<bool> observed{false};
  std::atomic<uint64_t> query_id{0};
  std::thread worker([&] {
    QueryContext qctx;
    QueryProgress progress;
    ActiveQueryRegistration reg(kJoinQuery, &qctx, &progress, 4);
    query_id.store(reg.id());
    ExecOptions options;
    options.num_threads = 4;
    options.morsel_size = 16;
    options.context = &qctx;
    options.progress = &progress;
    UnnestingEvaluator engine(options);
    Result<Relation> answer = engine.Evaluate(*bound);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    // Hold the registration until the reader has sampled the finished
    // query, so the observation below is deterministic.
    while (!observed.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });

  // Sample the registry while the query runs and after it finishes;
  // every snapshot must be coherent (this loop is the TSan workload for
  // reader-vs-worker races on QueryProgress).
  bool saw_finished = false;
  while (!saw_finished) {
    for (const ActiveQueryInfo& info : registry.Snapshot()) {
      if (info.id != query_id.load()) continue;
      EXPECT_EQ(info.sql, kJoinQuery);
      EXPECT_EQ(info.threads, 4u);
      if (info.rows_emitted > 0 && info.phase == "none") {
        // All phases closed and rows published: the query is done.
        EXPECT_GT(info.items_done, 0u);
        saw_finished = true;
      }
    }
    std::this_thread::yield();
  }
  observed.store(true, std::memory_order_release);
  worker.join();
}

// ---------------------------------------------------------------------
// KILL
// ---------------------------------------------------------------------

TEST_F(IntrospectionTest, KillFromSecondThreadCancelsTheQuery) {
  Catalog catalog = MakeJoinCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kJoinQuery, catalog));
  EngineMetrics* metrics = EngineMetrics::Instance();
  const uint64_t killed_before = metrics->queries_killed->Value();

  QueryContext qctx;
  QueryProgress progress;
  ActiveQueryRegistration reg(kJoinQuery, &qctx, &progress, 4);
  std::thread killer([&] {
    EXPECT_TRUE(ActiveQueryRegistry::Global().Kill(reg.id()));
  });
  killer.join();
  EXPECT_TRUE(qctx.cancel_requested());
  EXPECT_EQ(metrics->queries_killed->Value(), killed_before + 1);

  ExecOptions options;
  options.num_threads = 4;
  options.morsel_size = 16;
  options.context = &qctx;
  options.progress = &progress;
  UnnestingEvaluator engine(options);
  Result<Relation> answer = engine.Evaluate(*bound);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kCancelled)
      << answer.status().ToString();
  EXPECT_EQ(qctx.memory().used(), 0);
}

TEST_F(IntrospectionTest, KillRacingAMidFlightQueryNeverCrashes) {
  Catalog catalog = MakeJoinCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kJoinQuery, catalog));
  for (int round = 0; round < 5; ++round) {
    QueryContext qctx;
    QueryProgress progress;
    ActiveQueryRegistration reg(kJoinQuery, &qctx, &progress, 4);
    std::thread killer([&] { ActiveQueryRegistry::Global().Kill(reg.id()); });
    ExecOptions options;
    options.num_threads = 4;
    options.morsel_size = 16;
    options.context = &qctx;
    options.progress = &progress;
    UnnestingEvaluator engine(options);
    Result<Relation> answer = engine.Evaluate(*bound);
    killer.join();
    if (!answer.ok()) {
      EXPECT_EQ(answer.status().code(), StatusCode::kCancelled)
          << answer.status().ToString();
    }
    EXPECT_EQ(qctx.memory().used(), 0);
  }
}

TEST_F(IntrospectionTest, KillUnknownIdFails) {
  EXPECT_FALSE(ActiveQueryRegistry::Global().Kill(0));
  EXPECT_FALSE(ActiveQueryRegistry::Global().Kill(~0ull));
}

// ---------------------------------------------------------------------
// Determinism across thread counts, introspection on and off
// ---------------------------------------------------------------------

TEST_F(IntrospectionTest, SignatureAndAnswersInvariantAcrossThreadCounts) {
  Catalog catalog = MakeJoinCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kJoinQuery, catalog));

  // Reference: one thread, introspection off.
  ExecOptions options;
  options.num_threads = 1;
  options.morsel_size = 16;
  UnnestingEvaluator reference(options);
  ASSERT_OK_AND_ASSIGN(Relation expected, reference.Evaluate(*bound));

  std::string reference_signature;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    // Introspection on: the progress counters and phase enter counts
    // are pure functions of the plan and morsel decomposition, so the
    // signature (no times) matches at every thread count.
    QueryProgress progress;
    options.num_threads = threads;
    options.progress = &progress;
    UnnestingEvaluator with(options);
    ASSERT_OK_AND_ASSIGN(Relation observed, with.Evaluate(*bound));
    EXPECT_TRUE(expected.EquivalentTo(observed, 0.0))
        << threads << " threads (introspection on)";
    progress.FinishPhases();
    const std::string signature = progress.DeterminismSignature();
    EXPECT_NE(signature.find("rows="), std::string::npos) << signature;
    if (reference_signature.empty()) {
      reference_signature = signature;
      EXPECT_GT(progress.rows_emitted(), 0u);
    } else {
      EXPECT_EQ(signature, reference_signature) << threads << " threads";
    }

    // Introspection off: bit-identical answers -- observation must not
    // perturb the computation.
    options.progress = nullptr;
    UnnestingEvaluator without(options);
    ASSERT_OK_AND_ASSIGN(Relation plain, without.Evaluate(*bound));
    EXPECT_TRUE(expected.EquivalentTo(plain, 0.0))
        << threads << " threads (introspection off)";
  }
}

// ---------------------------------------------------------------------
// The structured query journal
// ---------------------------------------------------------------------

class JournalTest : public IntrospectionTest {
 protected:
  void SetUp() override {
    IntrospectionTest::SetUp();
    // One directory per test: ctest runs the cases as concurrent
    // processes, which must not rotate or remove each other's journal.
    dir_ = fs::path(::testing::TempDir()) /
           ("fuzzydb_journal_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "journal.jsonl").string();
  }
  void TearDown() override {
    IntrospectionTest::TearDown();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::vector<std::string> Lines() const {
    std::vector<std::string> lines;
    std::ifstream in(path_);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
    return lines;
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(JournalTest, OneWellFormedRecordPerQuery) {
  Catalog catalog = MakeJoinCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kJoinQuery, catalog));
  ASSERT_OK(QueryJournal::Global().SetPath(path_));
  QueryJournal::Global().set_sample_every(1);
  const uint64_t written_before = QueryJournal::Global().records_written();

  QueryProgress progress;
  ExecOptions options;
  options.num_threads = 2;
  options.morsel_size = 16;
  options.progress = &progress;
  options.query_text = kJoinQuery;
  UnnestingEvaluator engine(options);
  ASSERT_OK_AND_ASSIGN(Relation answer, engine.Evaluate(*bound));

  EXPECT_EQ(QueryJournal::Global().records_written(), written_before + 1);
  std::vector<std::string> lines = Lines();
  ASSERT_EQ(lines.size(), 1u);
  const std::string& record = lines[0];
  // Identity, outcome, and resource fields all present.
  for (const char* key :
       {"\"id\":", "\"query_id\":", "\"sql\":", "\"fingerprint\":",
        "\"type\":", "\"engine\":\"unnested\"", "\"status\":\"OK\"",
        "\"rows\":", "\"est_rows\":", "\"elapsed_ms\":",
        "\"queue_wait_ms\":", "\"threads\":2", "\"phases_us\":",
        "\"plan\":", "\"cpu\":", "\"pairs\":", "\"io\":",
        "\"mem_peak_bytes\":", "\"cache_hits\":", "\"cache_misses\":"}) {
    EXPECT_NE(record.find(key), std::string::npos) << key << "\n" << record;
  }
  EXPECT_NE(record.find(kJoinQuery), std::string::npos);
  const std::string rows =
      "\"rows\":" + std::to_string(answer.NumTuples());
  EXPECT_NE(record.find(rows), std::string::npos) << record;
}

TEST_F(JournalTest, CancelledQueriesJournalTheirStatus) {
  Catalog catalog = MakeJoinCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kJoinQuery, catalog));
  ASSERT_OK(QueryJournal::Global().SetPath(path_));
  QueryJournal::Global().set_sample_every(1);

  QueryContext qctx;
  qctx.Cancel();
  ExecOptions options;
  options.num_threads = 2;
  options.morsel_size = 16;
  options.context = &qctx;
  options.query_text = kJoinQuery;
  UnnestingEvaluator engine(options);
  Result<Relation> answer = engine.Evaluate(*bound);
  ASSERT_FALSE(answer.ok());

  std::vector<std::string> lines = Lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"status\":\"CANCELLED\""), std::string::npos)
      << lines[0];
}

TEST_F(JournalTest, SamplingKeepsEveryNthQueryAndMonotonicIds) {
  Catalog catalog = MakeJoinCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kJoinQuery, catalog));
  ASSERT_OK(QueryJournal::Global().SetPath(path_));
  QueryJournal::Global().set_sample_every(3);

  for (int i = 0; i < 6; ++i) {
    ExecOptions options;
    options.num_threads = 1;
    options.query_text = kJoinQuery;
    UnnestingEvaluator engine(options);
    ASSERT_OK(engine.Evaluate(*bound).status());
  }
  QueryJournal::Global().set_sample_every(1);

  // SetPath started a new id session (ids 1..6) and the sampling epoch
  // with it, so the first record always logs: ids 1 and 4 survive and
  // the skipped ids stay visible as gaps.
  std::vector<std::string> lines = Lines();
  ASSERT_EQ(lines.size(), 2u);
  uint64_t prev_id = 0;
  for (const std::string& line : lines) {
    const size_t at = line.find("\"id\":");
    ASSERT_NE(at, std::string::npos);
    const uint64_t id = std::strtoull(line.c_str() + at + 5, nullptr, 10);
    EXPECT_EQ(id % 3, 1u) << line;
    EXPECT_GT(id, prev_id);
    prev_id = id;
  }
}

TEST_F(JournalTest, SamplingSurvivesIdRestartAndRateChanges) {
  // Regression: the old decision (id % N != 1) went silent for a whole
  // epoch whenever the cadence and the id stream fell out of phase --
  // e.g. after a rate change mid-stream. The decision now comes from a
  // monotonic per-process record counter that restarts with the epoch,
  // so the first record after SetPath or set_sample_every always logs.
  Catalog catalog = MakeJoinCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kJoinQuery, catalog));
  auto run_one = [&]() {
    ExecOptions options;
    options.num_threads = 1;
    options.query_text = kJoinQuery;
    UnnestingEvaluator engine(options);
    ASSERT_OK(engine.Evaluate(*bound).status());
  };

  ASSERT_OK(QueryJournal::Global().SetPath(path_));
  QueryJournal::Global().set_sample_every(1);
  run_one();
  run_one();  // ids 1, 2 -- both logged
  // Rate change mid-stream: under the old id-phase rule the next logged
  // id would have to satisfy id % 5 == 1, i.e. nothing until id 6.
  QueryJournal::Global().set_sample_every(5);
  run_one();  // id 3 -- first record of the new epoch, must log
  run_one();  // id 4 -- sampled out
  std::vector<std::string> lines = Lines();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[2].find("\"id\":3,"), std::string::npos) << lines[2];

  // Process restart simulation: a new SetPath session appends to the
  // same file with ids restarting at 1, and its first record logs even
  // though the sampling rate is still 5.
  ASSERT_OK(QueryJournal::Global().SetPath(path_));
  run_one();  // id 1 of the new session
  lines = Lines();
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[3].find("\"id\":1,"), std::string::npos) << lines[3];
  QueryJournal::Global().set_sample_every(1);
}

TEST_F(JournalTest, RotationBoundsTheLogAndKeepsNGenerations) {
  Catalog catalog = MakeJoinCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kJoinQuery, catalog));
  ASSERT_OK(QueryJournal::Global().SetPath(path_));
  QueryJournal::Global().set_sample_every(1);
  QueryJournal::Global().set_max_bytes(1024);
  QueryJournal::Global().set_keep_files(2);
  EngineMetrics* metrics = EngineMetrics::Instance();
  const uint64_t rotations_before = metrics->journal_rotations->Value();
  const uint64_t dropped_before =
      metrics->journal_rotations_dropped->Value();

  // Each record is a few hundred bytes; two dozen queries forces at
  // least four rotations at a 1 KiB threshold, so with keep_files=2 at
  // least one generation must fall off the end and be dropped.
  for (int i = 0; i < 24; ++i) {
    ExecOptions options;
    options.num_threads = 1;
    options.query_text = kJoinQuery;
    UnnestingEvaluator engine(options);
    ASSERT_OK(engine.Evaluate(*bound).status());
  }
  QueryJournal::Global().set_max_bytes(64ull << 20);
  QueryJournal::Global().set_keep_files(3);

  const uint64_t rotations =
      metrics->journal_rotations->Value() - rotations_before;
  EXPECT_GE(rotations, 4u);
  // Both kept generations exist, nothing past the keep limit survives,
  // and every file shifted off the end was counted as dropped.
  EXPECT_TRUE(fs::exists(path_ + ".1"));
  EXPECT_TRUE(fs::exists(path_ + ".2"));
  EXPECT_FALSE(fs::exists(path_ + ".3"));
  EXPECT_EQ(metrics->journal_rotations_dropped->Value() - dropped_before,
            rotations - 2);
  // Disk stays bounded: live file under threshold plus one record.
  EXPECT_LE(fs::file_size(path_), 1024u + 1024u);
  // Generation continuity: ids across PATH.2, PATH.1, PATH read as one
  // strictly increasing sequence (rotation never reorders or drops
  // records inside the kept window).
  uint64_t prev_id = 0;
  for (const std::string& file :
       {path_ + ".2", path_ + ".1", path_}) {
    std::ifstream in(file);
    std::string line;
    while (std::getline(in, line)) {
      const size_t at = line.find("\"id\":");
      ASSERT_NE(at, std::string::npos);
      const uint64_t id = std::strtoull(line.c_str() + at + 5, nullptr, 10);
      if (prev_id != 0) {
        EXPECT_EQ(id, prev_id + 1) << file << ": " << line;
      }
      prev_id = id;
    }
  }
}

TEST_F(JournalTest, WriteFaultNeverFailsTheQueryAndRecovers) {
  Catalog catalog = MakeJoinCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kJoinQuery, catalog));
  ASSERT_OK(QueryJournal::Global().SetPath(path_));
  QueryJournal::Global().set_sample_every(1);
  EngineMetrics* metrics = EngineMetrics::Instance();
  const uint64_t errors_before = metrics->journal_errors->Value();

  FailPoints::Arm("journal/write", /*failures=*/1);
  ExecOptions options;
  options.num_threads = 2;
  options.morsel_size = 16;
  options.query_text = kJoinQuery;
  {
    // The journal is observability, not durability: the injected write
    // failure is counted and the query still succeeds.
    UnnestingEvaluator engine(options);
    ASSERT_OK_AND_ASSIGN(Relation answer, engine.Evaluate(*bound));
    EXPECT_GT(answer.NumTuples(), 0u);
  }
  EXPECT_EQ(metrics->journal_errors->Value(), errors_before + 1);
  EXPECT_GE(FailPoints::Hits("journal/write"), 1u);
  EXPECT_TRUE(Lines().empty());

  // The sink recovered: the next query journals normally.
  UnnestingEvaluator engine(options);
  ASSERT_OK(engine.Evaluate(*bound).status());
  EXPECT_EQ(Lines().size(), 1u);
}

// ---------------------------------------------------------------------
// Shell and metrics surfaces
// ---------------------------------------------------------------------

TEST_F(IntrospectionTest, ShellShowQueriesAndKill) {
  Shell shell;
  std::ostringstream show;
  shell.FeedLine("SHOW QUERIES;", show);
  EXPECT_NE(show.str().find("-- 0 active queries"), std::string::npos)
      << show.str();

  std::ostringstream kill;
  shell.FeedLine("KILL 123456789;", kill);
  EXPECT_NE(kill.str().find("no active query with id 123456789"),
            std::string::npos)
      << kill.str();

  std::ostringstream bad;
  shell.FeedLine("KILL abc;", bad);
  EXPECT_NE(bad.str().find("expected query id"), std::string::npos)
      << bad.str();
}

TEST_F(IntrospectionTest, ShellSystemRelationsExist) {
  Shell shell;
  std::ostringstream setup;
  shell.FeedLine("CREATE TABLE t (name STRING, score FUZZY);", setup);
  shell.FeedLine("INSERT INTO t VALUES ('a', ABOUT(10, 2));", setup);
  shell.FeedLine("SELECT name FROM t WITH D >= 0.1;", setup);

  // sys.queries: empty between statements (the SELECT reading it is not
  // itself registered as active while the relation snapshot is taken).
  std::ostringstream queries;
  shell.FeedLine("SELECT id, phase FROM sys.queries WITH D >= 0.0;", queries);
  EXPECT_NE(queries.str().find("0 tuples"), std::string::npos)
      << queries.str();

  // sys.slowlog mirrors the slow-query ring (empty: no threshold set).
  std::ostringstream slowlog;
  shell.FeedLine("SELECT elapsed_ms, query FROM sys.slowlog WITH D >= 0.0;",
                 slowlog);
  EXPECT_NE(slowlog.str().find("tuples"), std::string::npos) << slowlog.str();
}

TEST_F(IntrospectionTest, SlowlogRelationCapturesSlowQueries) {
  SlowQueryLog::Global().Clear();
  Shell shell;
  shell.set_slow_query_ms(0.0001);  // everything is "slow"
  std::ostringstream setup;
  shell.FeedLine("CREATE TABLE ts (name STRING, score FUZZY);", setup);
  shell.FeedLine("INSERT INTO ts VALUES ('a', ABOUT(10, 2));", setup);
  shell.FeedLine("SELECT name FROM ts WITH D >= 0.1;", setup);

  Relation slowlog = SlowQueryLog::Global().ToRelation();
  EXPECT_EQ(slowlog.name(), "sys.slowlog");
  ASSERT_GE(slowlog.NumTuples(), 1u);
  EXPECT_EQ(slowlog.schema().NumColumns(), 3u);
  SlowQueryLog::Global().Clear();
}

TEST_F(IntrospectionTest, PhaseMetricsFoldOnUnregister) {
  Catalog catalog = MakeJoinCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kJoinQuery, catalog));
  EngineMetrics* metrics = EngineMetrics::Instance();
  uint64_t sort_before = 0;
  if (metrics->phase_seconds[static_cast<size_t>(QueryPhase::kSort)] !=
      nullptr) {
    sort_before =
        metrics->phase_seconds[static_cast<size_t>(QueryPhase::kSort)]
            ->Value();
  }
  {
    QueryContext qctx;
    QueryProgress progress;
    ActiveQueryRegistration reg(kJoinQuery, &qctx, &progress, 2);
    ExecOptions options;
    options.num_threads = 2;
    options.morsel_size = 16;
    options.context = &qctx;
    options.progress = &progress;
    UnnestingEvaluator engine(options);
    ASSERT_OK(engine.Evaluate(*bound).status());
    EXPECT_GT(progress.PhaseEnters(QueryPhase::kSort), 0u);
  }
  // Unregistration folded the per-query timers into the cumulative
  // fuzzydb_phase_seconds_total counters (micros under the hood).
  ASSERT_NE(metrics->phase_seconds[static_cast<size_t>(QueryPhase::kSort)],
            nullptr);
  EXPECT_GE(
      metrics->phase_seconds[static_cast<size_t>(QueryPhase::kSort)]->Value(),
      sort_before);
}

TEST_F(IntrospectionTest, PrometheusTextDeduplicatesLabeledTypeLines) {
  // Force the labeled families into existence.
  (void)EngineMetrics::Instance();
  const std::string text = MetricsRegistry::Global().ToPrometheusText();

  // Six phase series, one TYPE header, and the header carries the bare
  // family name (no labels).
  size_t type_lines = 0;
  size_t series_lines = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE fuzzydb_phase_seconds_total", 0) == 0) {
      ++type_lines;
      EXPECT_EQ(line, "# TYPE fuzzydb_phase_seconds_total counter");
    }
    if (line.rfind("fuzzydb_phase_seconds_total{phase=", 0) == 0) {
      ++series_lines;
    }
    if (line.rfind("# TYPE", 0) == 0) {
      EXPECT_EQ(line.find('{'), std::string::npos) << line;
    }
  }
  EXPECT_EQ(type_lines, 1u);
  EXPECT_EQ(series_lines, 6u);
  EXPECT_NE(text.find("fuzzydb_build_info{git_sha="), std::string::npos);
}

TEST_F(IntrospectionTest, BuildInfoGaugeSurvivesMetricsReset) {
  Shell shell;
  std::ostringstream reset;
  shell.FeedLine("SHOW METRICS RESET;", reset);
  EXPECT_NE(reset.str().find("-- metrics reset"), std::string::npos);

  std::ostringstream show;
  shell.FeedLine("SHOW METRICS;", show);
  const size_t at = show.str().find("fuzzydb_build_info{");
  ASSERT_NE(at, std::string::npos) << show.str();
  const std::string line =
      show.str().substr(at, show.str().find('\n', at) - at);
  // Still stamped to 1 after the reset drained every other metric.
  EXPECT_EQ(line.substr(line.size() - 2), " 1") << line;
  for (const char* label :
       {"git_sha=", "compiler=", "batch_size=", "cost_based="}) {
    EXPECT_NE(line.find(label), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace fuzzydb
