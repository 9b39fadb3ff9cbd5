// One hook, one clock: every operator's OpScope hands the same two
// clock readings to its trace span and to its phase slice, so the time
// QueryProgress charges a phase is exactly the summed self time of
// that phase's spans -- for every query shape and thread count.
#include "obs/op_scope.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <sstream>
#include <string>

#include "engine/exec_options.h"
#include "engine/unnested_evaluator.h"
#include "obs/metrics.h"
#include "shell/shell.h"
#include "sql/binder.h"
#include "test_util.h"
#include "workload/generator.h"

namespace fuzzydb {
namespace {

struct Shape {
  const char* name;
  const char* sql;
};

// The paper's shapes that reach distinct operator mixes: the outer-view
// sort (N, J, JX, JALL), the group-aggregate (JA) and the chain steps.
constexpr Shape kShapes[] = {
    {"N",
     "SELECT R.C0 FROM R WHERE R.C1 IN (SELECT S.C0 FROM S WHERE S.C1 >= 5)"},
    {"J",
     "SELECT R.C0 FROM R WHERE R.C1 IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)"},
    {"JX",
     "SELECT R.C0 FROM R WHERE R.C1 NOT IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)"},
    {"JA",
     "SELECT R.C0 FROM R WHERE R.C1 > "
     "(SELECT MAX(S.C0) FROM S WHERE S.C1 = R.C2)"},
    {"JALL",
     "SELECT R.C0 FROM R WHERE R.C1 <= ALL "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2)"},
    {"CHAIN3",
     "SELECT R.C0 FROM R WHERE R.C1 IN "
     "(SELECT S.C0 FROM S WHERE S.C1 = R.C2 AND S.C0 IN "
     "(SELECT T3.C0 FROM T3 WHERE T3.C1 = S.C1))"},
};

Catalog MakeCatalog() {
  Catalog catalog;
  EXPECT_OK(catalog.AddRelation(GenerateRandomRelation(101, "R", 3, 300)));
  EXPECT_OK(catalog.AddRelation(GenerateRandomRelation(202, "S", 2, 300)));
  EXPECT_OK(catalog.AddRelation(GenerateRandomRelation(303, "T3", 2, 60)));
  return catalog;
}

/// The phase each span name charges, read from the op table.
std::map<std::string, QueryPhase> PhaseByName() {
  std::map<std::string, QueryPhase> out;
  for (size_t i = 0; i < kNumOps; ++i) {
    const OpSpec& spec = SpecOf(static_cast<Op>(i));
    EXPECT_TRUE(out.emplace(spec.name, spec.phase).second)
        << "duplicate op name " << spec.name;
  }
  return out;
}

TEST(OpScopeTest, CloseFoldsRowsBatchesAndQErrorPerTheOpTable) {
  EngineMetrics* m = EngineMetrics::Instance();
  const uint64_t rows_in = m->filter_rows_in->Value();
  const uint64_t rows_out = m->filter_rows_out->Value();
  const uint64_t batches = m->batch_batches->Value();
  const uint64_t lanes = m->batch_rows->Value();
  const uint64_t q_errors = m->planner_q_error->Snapshot().total_count;
  QueryProgress progress;
  {
    OpScope filter(Op::kFilter, nullptr, &progress);
    filter.SetInputRows(10);
    filter.SetOutputRows(4);
    filter.SetEstimatedRows(8);
    filter.AddBatches(2, 10);
  }
  {
    OpScope window(Op::kMergeWindow, nullptr, &progress);
    window.SetOutputRows(7);
  }
  {
    OpScope emit(Op::kEmit, nullptr, &progress);
    emit.SetOutputRows(3);
  }
  EXPECT_EQ(m->filter_rows_in->Value() - rows_in, 10u);
  EXPECT_EQ(m->filter_rows_out->Value() - rows_out, 4u);
  EXPECT_EQ(m->batch_batches->Value() - batches, 2u);
  EXPECT_EQ(m->batch_rows->Value() - lanes, 10u);
  EXPECT_EQ(m->planner_q_error->Snapshot().total_count - q_errors, 1u);
  // Merge-window rows are sys.queries pairs; emitted rows are its rows.
  EXPECT_EQ(progress.pairs_considered(), 7u);
  EXPECT_EQ(progress.rows_emitted(), 3u);
  EXPECT_EQ(progress.PhaseEnters(QueryPhase::kFilter), 1u);
  EXPECT_EQ(progress.PhaseEnters(QueryPhase::kWindow), 1u);
  EXPECT_EQ(progress.PhaseEnters(QueryPhase::kEmit), 1u);
}

TEST(OpScopeTest, PhaseTimeEqualsSpanSelfTime) {
  const Catalog catalog = MakeCatalog();
  const std::map<std::string, QueryPhase> phase_of = PhaseByName();
  for (const Shape& shape : kShapes) {
    ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(shape.sql, catalog));
    for (size_t threads : {1u, 4u}) {
      ExecTrace trace;
      QueryProgress progress;
      ExecOptions options;
      options.num_threads = threads;
      options.morsel_size = 32;
      options.trace = &trace;
      options.progress = &progress;
      UnnestingEvaluator engine(options);
      ASSERT_OK(engine.Evaluate(*bound).status());
      progress.FinishPhases();
      ASSERT_TRUE(engine.last_was_unnested()) << shape.name;

      // A span's self time is its wall time minus its children's: the
      // children cut it into (children + 1) slices, and the phase timer
      // truncates each slice to whole microseconds. So each phase may
      // trail its spans' self time by under 1 us per slice -- under
      // 2 us per span overall -- and never lead it.
      std::array<double, kNumQueryPhases> self_us{};
      std::array<double, kNumQueryPhases> slices{};
      for (size_t id = 0; id < trace.nodes().size(); ++id) {
        const TraceNode& node = trace.nodes()[id];
        const auto it = phase_of.find(node.name);
        ASSERT_NE(it, phase_of.end()) << node.name;
        double self_seconds = node.wall_seconds;
        for (size_t child : node.children) {
          self_seconds -= trace.nodes()[child].wall_seconds;
        }
        const size_t phase = static_cast<size_t>(it->second);
        self_us[phase] += self_seconds * 1e6;
        slices[phase] += static_cast<double>(node.children.size() + 1);
      }
      for (size_t p = 1; p < kNumQueryPhases; ++p) {
        const QueryPhase phase = static_cast<QueryPhase>(p);
        const double phase_us =
            static_cast<double>(progress.PhaseMicros(phase));
        EXPECT_LE(phase_us, self_us[p] + 0.01)
            << shape.name << " " << threads << " threads, phase "
            << QueryPhaseName(phase);
        EXPECT_GE(phase_us, self_us[p] - slices[p] - 0.01)
            << shape.name << " " << threads << " threads, phase "
            << QueryPhaseName(phase);
      }
    }
  }
}

TEST(OpScopeTest, NaiveEngineChargesTheJoinPhase) {
  // The naive evaluator is the nested loop: EXPLAIN ANALYZE under
  // `.engine naive` reports its time as the join phase.
  Shell shell;
  shell.set_num_threads(1);
  std::istringstream in(
      "CREATE TABLE R (C0 FUZZY, C1 FUZZY, C2 FUZZY);\n"
      "CREATE TABLE S (C0 FUZZY, C1 FUZZY);\n"
      "INSERT INTO R VALUES (1, 10, 3);\n"
      "INSERT INTO S VALUES (5, 3);\n"
      ".engine naive\n"
      "EXPLAIN ANALYZE SELECT R.C0 FROM R WHERE R.C1 > "
      "(SELECT MAX(S.C0) FROM S WHERE S.C1 = R.C2);\n");
  std::ostringstream out;
  shell.Run(in, out, /*interactive=*/false);
  EXPECT_NE(out.str().find("-- phases=join="), std::string::npos)
      << out.str();
}

}  // namespace
}  // namespace fuzzydb
