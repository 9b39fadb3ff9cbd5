// The observability layer (src/obs/): span trees, checked counter
// deltas, the disabled-path guarantee, and the acceptance criterion of
// the layer -- per-operator counter deltas that sum to the whole-query
// totals at every thread count.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/naive_evaluator.h"
#include "engine/unnested_evaluator.h"
#include "obs/op_scope.h"
#include "test_util.h"
#include "workload/generator.h"

namespace fuzzydb {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/fuzzydb_trace_" + name;
}

// ---------------------------------------------------------------------
// Span tree mechanics
// ---------------------------------------------------------------------

TEST(ExecTraceTest, SpansNestLifo) {
  ExecTrace trace;
  const size_t a = trace.OpenSpan("a");
  const size_t b = trace.OpenSpan("b", "inner");
  trace.CloseSpan(b);
  const size_t c = trace.OpenSpan("c");
  trace.CloseSpan(c);
  trace.CloseSpan(a);
  const size_t d = trace.OpenSpan("d");
  trace.CloseSpan(d);

  ASSERT_EQ(trace.nodes().size(), 4u);
  ASSERT_EQ(trace.roots(), (std::vector<size_t>{a, d}));
  EXPECT_EQ(trace.node(a).children, (std::vector<size_t>{b, c}));
  EXPECT_TRUE(trace.node(b).children.empty());
  EXPECT_EQ(trace.node(b).detail, "inner");
  // Every closed span recorded a wall time and a start offset ordered
  // with its open order.
  for (const TraceNode& node : trace.nodes()) {
    EXPECT_GE(node.wall_seconds, 0.0);
  }
  EXPECT_LE(trace.node(a).start_seconds, trace.node(b).start_seconds);
  EXPECT_LE(trace.node(b).start_seconds, trace.node(c).start_seconds);
}

TEST(ExecTraceTest, OpScopeRecordsCounterDeltas) {
  ExecTrace trace;
  CpuStats cpu;
  IoStats io;
  cpu.comparisons = 100;  // pre-span work must not leak into the span
  io.page_reads = 7;
  {
    OpScope outer(Op::kSubquery, &trace, nullptr, &cpu, &io);
    cpu.tuple_pairs += 10;
    io.page_writes += 3;
    {
      OpScope inner(Op::kFilter, &trace, nullptr, &cpu);
      cpu.tuple_pairs += 5;
      cpu.degree_evaluations += 2;
      inner.SetInputRows(20);
      inner.SetOutputRows(15);
      inner.SetThreads(4);
    }
    cpu.comparisons += 1;
  }
  ASSERT_EQ(trace.nodes().size(), 2u);
  const TraceNode& outer = trace.nodes()[0];
  const TraceNode& inner = trace.nodes()[1];

  EXPECT_EQ(outer.cpu.tuple_pairs, 15u);  // inclusive of the child
  EXPECT_EQ(outer.cpu.comparisons, 1u);
  EXPECT_EQ(outer.io.page_writes, 3u);
  EXPECT_EQ(outer.io.page_reads, 0u);
  EXPECT_FALSE(outer.clamped);

  EXPECT_EQ(inner.cpu.tuple_pairs, 5u);
  EXPECT_EQ(inner.cpu.degree_evaluations, 2u);
  EXPECT_EQ(inner.input_rows, 20u);
  EXPECT_EQ(inner.output_rows, 15u);
  EXPECT_EQ(inner.threads, 4u);

  // Exclusive share: outer minus inner.
  EXPECT_EQ(trace.SelfCpu(0).tuple_pairs, 10u);
  EXPECT_EQ(trace.SelfCpu(1).tuple_pairs, 5u);
  EXPECT_EQ(trace.TotalCpu().tuple_pairs, 15u);
}

TEST(ExecTraceTest, NullTraceOpScopeIsInert) {
  CpuStats cpu;
  OpScope scope(Op::kSubquery, nullptr, nullptr, &cpu);
  EXPECT_FALSE(scope.traced());
  scope.SetInputRows(1);
  scope.SetOutputRows(2);
  scope.SetThreads(3);
  scope.SetDetail("x");
  scope.Close();  // idempotent no-op
}

TEST(ExecTraceTest, ThrowingOperatorClosesSpansAndFoldsWorkers) {
  // An operator that throws mid-span must still close the span (so
  // partial traces of failed queries are well-formed trees) and fold its
  // per-worker stats first, so the span's delta includes worker activity.
  // The ordering comes from declaration order: the CpuStatsFolder is
  // declared after the OpScope, so it destructs (folds) first.
  ExecTrace trace;
  CpuStats total;
  std::vector<CpuStats> workers(2);
  try {
    OpScope span(Op::kMergeWindow, &trace, nullptr, &total);
    CpuStatsFolder folder(&workers, &total);
    workers[0].comparisons = 3;
    workers[1].comparisons = 4;
    throw std::runtime_error("operator failed");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(trace.open_span_count(), 0u);
  ASSERT_EQ(trace.nodes().size(), 1u);
  EXPECT_EQ(trace.nodes()[0].name, "merge-window");
  // The worker fold landed inside the span's counter delta.
  EXPECT_EQ(trace.nodes()[0].cpu.comparisons, 7u);
  EXPECT_EQ(total.comparisons, 7u);
  EXPECT_GE(trace.nodes()[0].wall_seconds, 0.0);
}

TEST(ExecTraceTest, CloseIsIdempotent) {
  ExecTrace trace;
  CpuStats cpu;
  OpScope scope(Op::kSubquery, &trace, nullptr, &cpu);
  cpu.comparisons = 4;
  scope.Close();
  cpu.comparisons = 400;  // must not be re-recorded
  scope.Close();
  EXPECT_EQ(trace.nodes()[0].cpu.comparisons, 4u);
}

// ---------------------------------------------------------------------
// Checked deltas: clamp and flag instead of wrapping
// ---------------------------------------------------------------------

TEST(CheckedDeltaTest, CpuClampsAndFlags) {
  CpuStats now;
  now.tuple_pairs = 5;
  now.comparisons = 10;
  CpuStats earlier;
  earlier.tuple_pairs = 2;
  earlier.comparisons = 30;  // "earlier" is ahead: snapshot misuse

  bool clamped = false;
  const CpuStats delta = now.CheckedDelta(earlier, &clamped);
  EXPECT_EQ(delta.tuple_pairs, 3u);   // normal field still exact
  EXPECT_EQ(delta.comparisons, 0u);   // clamped, not 2^64 - 20
  EXPECT_TRUE(clamped);

  clamped = false;
  const CpuStats ok = now.CheckedDelta(CpuStats{}, &clamped);
  EXPECT_EQ(ok.comparisons, 10u);
  EXPECT_FALSE(clamped);
}

TEST(CheckedDeltaTest, IoClampsAndFlags) {
  IoStats now;
  now.page_reads = 4;
  IoStats earlier;
  earlier.page_reads = 1;
  earlier.buffer_hits = 9;

  bool clamped = false;
  const IoStats delta = now.CheckedDelta(earlier, &clamped);
  EXPECT_EQ(delta.page_reads, 3u);
  EXPECT_EQ(delta.buffer_hits, 0u);
  EXPECT_TRUE(clamped);
}

TEST(CheckedDeltaTest, MisNestedSpanReportsClampedNotGarbage) {
  // A span whose accumulator goes backwards (reset mid-span) must mark
  // the node instead of reporting a near-2^64 delta.
  ExecTrace trace;
  CpuStats cpu;
  cpu.degree_evaluations = 50;
  {
    OpScope scope(Op::kSubquery, &trace, nullptr, &cpu);
    cpu.degree_evaluations = 10;  // reset-style misuse
  }
  EXPECT_EQ(trace.nodes()[0].cpu.degree_evaluations, 0u);
  EXPECT_TRUE(trace.nodes()[0].clamped);
  EXPECT_NE(trace.ToString().find("CLAMPED"), std::string::npos);
}

// ---------------------------------------------------------------------
// Renderings
// ---------------------------------------------------------------------

TEST(ExecTraceTest, RenderingsAreWellFormed) {
  ExecTrace trace;
  CpuStats cpu;
  {
    OpScope outer(Op::kEvaluate, &trace, nullptr, &cpu, nullptr, "JA");
    cpu.tuple_pairs = 3;
    OpScope inner(Op::kMergeWindow, &trace, nullptr, &cpu);
    inner.SetInputRows(8);
    inner.SetOutputRows(6);
  }

  const std::string text = trace.ToString();
  EXPECT_NE(text.find("evaluate [JA]"), std::string::npos);
  EXPECT_NE(text.find("wall="), std::string::npos);
  EXPECT_NE(text.find("\n  merge-window"), std::string::npos);  // indented
  EXPECT_NE(text.find("rows=8->6"), std::string::npos);
  // The golden-test mode drops the nondeterministic timing fields.
  EXPECT_EQ(trace.ToString(/*include_timing=*/false).find("wall="),
            std::string::npos);

  const std::string chrome = trace.ToChromeTraceJson();
  EXPECT_EQ(chrome.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"merge-window\""), std::string::npos);
  EXPECT_NE(chrome.find("\"rows_out\":6"), std::string::npos);

  const std::string summary = trace.ToJsonSummary();
  EXPECT_EQ(summary.front(), '[');
  EXPECT_EQ(summary.back(), ']');
  EXPECT_NE(summary.find("\"op\":\"evaluate\""), std::string::npos);
  EXPECT_NE(summary.find("\"depth\":1"), std::string::npos);
}

// ---------------------------------------------------------------------
// In-memory engine: disabled tracing changes nothing; enabled tracing
// accounts for every counter at every thread count (the acceptance
// criterion of the layer).
// ---------------------------------------------------------------------

constexpr const char* kTypeJaQuery =
    "SELECT R.C0 FROM R WHERE R.C1 > "
    "(SELECT MAX(S.C0) FROM S WHERE S.C1 = R.C2)";

Catalog MakeWorkloadCatalog() {
  Catalog catalog;
  EXPECT_TRUE(
      catalog.AddRelation(GenerateRandomRelation(401, "R", 3, 200)).ok());
  EXPECT_TRUE(
      catalog.AddRelation(GenerateRandomRelation(402, "S", 2, 200)).ok());
  return catalog;
}

TEST(TraceEngineTest, DisabledTracingAddsNoCounters) {
  Catalog catalog = MakeWorkloadCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kTypeJaQuery, catalog));

  ExecOptions options;
  options.num_threads = 2;
  options.morsel_size = 16;
  CpuStats untraced_cpu;
  UnnestingEvaluator untraced(options, &untraced_cpu);
  ASSERT_OK_AND_ASSIGN(Relation expected, untraced.Evaluate(*bound));

  ExecTrace trace;
  options.trace = &trace;
  CpuStats traced_cpu;
  UnnestingEvaluator traced(options, &traced_cpu);
  ASSERT_OK_AND_ASSIGN(Relation actual, traced.Evaluate(*bound));

  EXPECT_TRUE(expected.EquivalentTo(actual, 0.0));
  EXPECT_EQ(traced_cpu, untraced_cpu);
  EXPECT_FALSE(trace.empty());
}

TEST(TraceEngineTest, TypeJaOperatorDeltasSumToWholeQueryTotals) {
  Catalog catalog = MakeWorkloadCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kTypeJaQuery, catalog));

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ExecOptions options;
    options.num_threads = threads;
    options.morsel_size = 16;
    ExecTrace trace;
    options.trace = &trace;
    CpuStats cpu;
    UnnestingEvaluator evaluator(options, &cpu);
    ASSERT_OK_AND_ASSIGN(Relation answer, evaluator.Evaluate(*bound));
    ASSERT_TRUE(evaluator.last_was_unnested());
    ASSERT_FALSE(trace.empty());

    // Root spans' inclusive deltas == the whole-query accumulator.
    EXPECT_EQ(trace.TotalCpu(), cpu) << threads << " threads";
    // And the exclusive per-operator shares partition those totals.
    CpuStats self_sum;
    for (size_t id = 0; id < trace.nodes().size(); ++id) {
      EXPECT_FALSE(trace.nodes()[id].clamped)
          << trace.nodes()[id].name << " at " << threads << " threads";
      self_sum += trace.SelfCpu(id);
    }
    EXPECT_EQ(self_sum, cpu) << threads << " threads";

    // The root span reports the query type and the answer cardinality.
    const TraceNode& root = trace.nodes()[trace.roots()[0]];
    EXPECT_EQ(root.name, "evaluate");
    EXPECT_EQ(root.detail, "JA");
    EXPECT_EQ(root.output_rows, answer.NumTuples());
    EXPECT_GT(cpu.degree_evaluations, 0u);
  }
}

TEST(TraceEngineTest, NaiveEvaluatorOpensASpan) {
  Catalog catalog = MakeWorkloadCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kTypeJaQuery, catalog));

  ExecTrace trace;
  CpuStats cpu;
  NaiveEvaluator naive(&cpu, &trace);
  ASSERT_OK_AND_ASSIGN(Relation answer, naive.Evaluate(*bound));
  ASSERT_EQ(trace.roots().size(), 1u);
  const TraceNode& root = trace.nodes()[trace.roots()[0]];
  EXPECT_EQ(root.name, "naive-evaluate");
  EXPECT_EQ(root.output_rows, answer.NumTuples());
  EXPECT_EQ(trace.TotalCpu(), cpu);
}

// ---------------------------------------------------------------------
// File executor: the trace also balances the I/O ledger.
// ---------------------------------------------------------------------

TEST(TraceFileExecutorTest, MergeJoinTraceBalancesCpuAndIo) {
  WorkloadConfig config;
  config.seed = 77;
  config.num_r = 200;
  config.num_s = 200;
  config.join_fanout = 4;
  TypeJDataset dataset = GenerateTypeJDataset(config);

  BufferPool setup_pool(16);
  ASSERT_OK_AND_ASSIGN(
      auto r_file,
      WriteRelationToFile(dataset.r, TempPath("mj_r"), &setup_pool, 128));
  ASSERT_OK_AND_ASSIGN(
      auto s_file,
      WriteRelationToFile(dataset.s, TempPath("mj_s"), &setup_pool, 128));

  TypeJQuerySpec spec;
  ASSERT_OK_AND_ASSIGN(
      RunResult untraced,
      RunTypeJMergeJoin(r_file.get(), s_file.get(), spec, 8, TempPath("mj_tmp"),
                        128));

  ExecTrace trace;
  ExecOptions options;
  options.num_threads = 1;
  options.trace = &trace;
  ASSERT_OK_AND_ASSIGN(
      RunResult traced,
      RunTypeJMergeJoin(r_file.get(), s_file.get(), spec, 8, TempPath("mj_tmp"),
                        128, &options));

  // Tracing perturbs nothing: answer and both stat ledgers identical.
  EXPECT_TRUE(untraced.answer.EquivalentTo(traced.answer, 0.0));
  EXPECT_EQ(traced.stats.cpu, untraced.stats.cpu);
  EXPECT_EQ(traced.stats.io, untraced.stats.io);

  // The root "query" span's deltas equal the run's own ledgers.
  EXPECT_EQ(trace.TotalCpu(), traced.stats.cpu);
  EXPECT_EQ(trace.TotalIo(), traced.stats.io);
  EXPECT_GT(trace.TotalIo().page_reads, 0u);

  // The expected operators appear: two external sorts and the merge join
  // under the query root.
  const TraceNode& root = trace.nodes()[trace.roots()[0]];
  EXPECT_EQ(root.name, "query");
  std::vector<std::string> child_names;
  for (size_t child : root.children) {
    child_names.push_back(trace.nodes()[child].name);
  }
  EXPECT_EQ(child_names,
            (std::vector<std::string>{"external-sort", "external-sort",
                                      "merge-join"}));

  r_file.reset();
  s_file.reset();
  RemoveFileIfExists(TempPath("mj_r"));
  RemoveFileIfExists(TempPath("mj_s"));
}

}  // namespace
}  // namespace fuzzydb
