// File-based join operators: the extended merge-join must produce exactly
// the pairs of the nested-loop join, with identical degrees, while reading
// each input page a bounded number of times.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "engine/executor.h"
#include "engine/merge_join.h"
#include "engine/naive_evaluator.h"
#include "engine/nested_loop_join.h"
#include "fuzzy/interval_order.h"
#include "sort/external_sort.h"
#include "test_util.h"
#include "workload/generator.h"

namespace fuzzydb {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/fuzzydb_join_" + name;
}

/// All emitted pairs as a value->degree map (pairs keyed by the crisp
/// outer id in column 0 and the inner key corners).
using PairMap = std::map<std::pair<double, std::string>, double>;

class JoinOperatorsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinOperatorsTest, MergeJoinMatchesNestedLoopOracle) {
  const uint64_t seed = GetParam();
  WorkloadConfig config;
  config.seed = seed;
  config.num_r = 300;
  config.num_s = 300;
  config.join_fanout = 6;
  config.partial_membership_fraction = 0.5;
  TypeJDataset dataset = GenerateTypeJDataset(config);

  BufferPool pool(16);
  const std::string r_path = TempPath("R" + std::to_string(seed));
  const std::string s_path = TempPath("S" + std::to_string(seed));
  ASSERT_OK_AND_ASSIGN(auto r_file,
                       WriteRelationToFile(dataset.r, r_path, &pool, 128));
  ASSERT_OK_AND_ASSIGN(auto s_file,
                       WriteRelationToFile(dataset.s, s_path, &pool, 128));

  FuzzyJoinSpec spec;
  spec.outer_key = 1;  // R.Y
  spec.inner_key = 0;  // S.Z
  spec.residuals.push_back({2, 1, CompareOp::kEq});  // R.U = S.V

  auto key_of = [](const Tuple& r, const Tuple& s) {
    return std::make_pair(r.ValueAt(0).AsFuzzy().CrispValue(),
                          s.ValueAt(0).AsFuzzy().ToString() + "/" +
                              s.ValueAt(1).AsFuzzy().ToString());
  };

  // Oracle: nested loop.
  PairMap expected;
  IoStats nl_io;
  ASSERT_OK(FileNestedLoopJoin(r_file.get(), s_file.get(), &nl_io, 8, spec,
                               nullptr,
                               [&](const Tuple& r, const Tuple& s, double d) {
                                 auto key = key_of(r, s);
                                 auto [it, fresh] = expected.emplace(key, d);
                                 if (!fresh) it->second = std::max(it->second, d);
                                 return Status::OK();
                               }));
  EXPECT_GT(expected.size(), 0u);

  // Merge join over sorted copies.
  auto less_on = [](size_t col) {
    return TupleLess([col](const Tuple& a, const Tuple& b) {
      return IntervalOrderLess(a.ValueAt(col).AsFuzzy(),
                               b.ValueAt(col).AsFuzzy());
    });
  };
  ASSERT_OK_AND_ASSIGN(
      auto r_sorted,
      ExternalSort(r_file.get(), &pool, less_on(1),
                   TempPath("rs" + std::to_string(seed)),
                   TempPath("r_sorted" + std::to_string(seed)), 8, 128));
  ASSERT_OK_AND_ASSIGN(
      auto s_sorted,
      ExternalSort(s_file.get(), &pool, less_on(0),
                   TempPath("ss" + std::to_string(seed)),
                   TempPath("s_sorted" + std::to_string(seed)), 8, 128));

  PairMap actual;
  CpuStats cpu;
  ASSERT_OK(FileMergeJoin(r_sorted.get(), s_sorted.get(), &pool, spec, &cpu,
                          [&](const Tuple& r, const Tuple& s, double d) {
                            auto key = key_of(r, s);
                            auto [it, fresh] = actual.emplace(key, d);
                            if (!fresh) it->second = std::max(it->second, d);
                            return Status::OK();
                          }));

  EXPECT_EQ(expected.size(), actual.size());
  for (const auto& [key, degree] : expected) {
    auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << "missing pair for outer " << key.first;
    EXPECT_NEAR(degree, it->second, 1e-12);
  }

  // The merge-join examines far fewer pairs than the full cross product.
  EXPECT_LT(cpu.tuple_pairs,
            static_cast<uint64_t>(config.num_r) * config.num_s / 4);

  r_file.reset();
  s_file.reset();
  r_sorted.reset();
  s_sorted.reset();
  RemoveFileIfExists(r_path);
  RemoveFileIfExists(s_path);
  RemoveFileIfExists(TempPath("r_sorted" + std::to_string(seed)));
  RemoveFileIfExists(TempPath("s_sorted" + std::to_string(seed)));
}

// FileMergeJoin cuts each window into batch_size lanes for the batch
// kernels. The cut must change nothing observable: the same pairs in
// the same order, each with exactly FuzzyJoinSpec::PairDegree's degree,
// and the same CpuStats.
TEST_P(JoinOperatorsTest, MergeJoinIsBatchSizeInvariant) {
  const uint64_t seed = GetParam();
  WorkloadConfig config;
  config.seed = seed;
  config.num_r = 300;
  config.num_s = 300;
  config.join_fanout = 6;
  config.partial_membership_fraction = 0.5;
  TypeJDataset dataset = GenerateTypeJDataset(config);

  BufferPool pool(16);
  const std::string tag = "batch" + std::to_string(seed) + "_";
  ASSERT_OK_AND_ASSIGN(
      auto r_file,
      WriteRelationToFile(dataset.r, TempPath(tag + "R"), &pool, 128));
  ASSERT_OK_AND_ASSIGN(
      auto s_file,
      WriteRelationToFile(dataset.s, TempPath(tag + "S"), &pool, 128));
  auto less_on = [](size_t col) {
    return TupleLess([col](const Tuple& a, const Tuple& b) {
      return IntervalOrderLess(a.ValueAt(col).AsFuzzy(),
                               b.ValueAt(col).AsFuzzy());
    });
  };
  ASSERT_OK_AND_ASSIGN(
      auto r_sorted,
      ExternalSort(r_file.get(), &pool, less_on(1), TempPath(tag + "rs"),
                   TempPath(tag + "r_sorted"), 8, 128));
  ASSERT_OK_AND_ASSIGN(
      auto s_sorted,
      ExternalSort(s_file.get(), &pool, less_on(0), TempPath(tag + "ss"),
                   TempPath(tag + "s_sorted"), 8, 128));

  FuzzyJoinSpec spec;
  spec.outer_key = 1;  // R.Y
  spec.inner_key = 0;  // S.Z
  spec.residuals.push_back({2, 1, CompareOp::kEq});  // R.U = S.V

  // Each pair as (outer id, inner key/value corners, degree).
  using Pair = std::tuple<double, std::string, double>;
  std::vector<std::vector<Pair>> emitted;
  std::vector<CpuStats> stats;
  for (size_t batch : {1, 7, 1024}) {
    std::vector<Pair> pairs;
    CpuStats cpu;
    ASSERT_OK(FileMergeJoin(
        r_sorted.get(), s_sorted.get(), &pool, spec, &cpu,
        [&](const Tuple& r, const Tuple& s, double d) {
          EXPECT_EQ(d, spec.PairDegree(r, s, nullptr)) << "batch " << batch;
          pairs.emplace_back(r.ValueAt(0).AsFuzzy().CrispValue(),
                             s.ValueAt(0).AsFuzzy().ToString() + "/" +
                                 s.ValueAt(1).AsFuzzy().ToString(),
                             d);
          return Status::OK();
        },
        /*trace=*/nullptr, /*query=*/nullptr, batch));
    emitted.push_back(std::move(pairs));
    stats.push_back(cpu);
  }
  EXPECT_GT(emitted[0].size(), 0u);
  EXPECT_GT(stats[0].degree_evaluations, 0u);
  for (size_t i = 1; i < emitted.size(); ++i) {
    EXPECT_EQ(emitted[i], emitted[0]);
    EXPECT_EQ(stats[i], stats[0]);
  }

  r_file.reset();
  s_file.reset();
  r_sorted.reset();
  s_sorted.reset();
  for (const char* name : {"R", "S", "r_sorted", "s_sorted"}) {
    RemoveFileIfExists(TempPath(tag + name));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinOperatorsTest,
                         ::testing::Values(21, 22, 23, 24));

TEST(JoinIoTest, MergeJoinReadsEachInputOnceWhenWindowsFit) {
  WorkloadConfig config;
  config.seed = 7;
  config.num_r = 400;
  config.num_s = 400;
  config.join_fanout = 4;
  TypeJDataset dataset = GenerateTypeJDataset(config);

  IoStats io;
  BufferPool pool(32, &io);
  ASSERT_OK_AND_ASSIGN(
      auto r_file, WriteRelationToFile(dataset.r, TempPath("io_r"), &pool, 128));
  ASSERT_OK_AND_ASSIGN(
      auto s_file, WriteRelationToFile(dataset.s, TempPath("io_s"), &pool, 128));
  auto less_on = [](size_t col) {
    return TupleLess([col](const Tuple& a, const Tuple& b) {
      return IntervalOrderLess(a.ValueAt(col).AsFuzzy(),
                               b.ValueAt(col).AsFuzzy());
    });
  };
  ASSERT_OK_AND_ASSIGN(auto r_sorted,
                       ExternalSort(r_file.get(), &pool, less_on(1),
                                    TempPath("io_rs"), TempPath("io_rsd"), 8,
                                    128));
  ASSERT_OK_AND_ASSIGN(auto s_sorted,
                       ExternalSort(s_file.get(), &pool, less_on(0),
                                    TempPath("io_ss"), TempPath("io_ssd"), 8,
                                    128));

  pool.Clear();
  pool.ResetStats();
  FuzzyJoinSpec spec;
  spec.outer_key = 1;
  spec.inner_key = 0;
  spec.residuals.push_back({2, 1, CompareOp::kEq});
  ASSERT_OK(FileMergeJoin(r_sorted.get(), s_sorted.get(), &pool, spec,
                          nullptr, [](const Tuple&, const Tuple&, double) {
                            return Status::OK();
                          }));
  // O(b_R + b_S) behaviour: each page fetched exactly once.
  EXPECT_EQ(pool.stats().page_reads,
            r_sorted->NumPages() + s_sorted->NumPages());

  r_file.reset();
  s_file.reset();
  r_sorted.reset();
  s_sorted.reset();
  RemoveFileIfExists(TempPath("io_r"));
  RemoveFileIfExists(TempPath("io_s"));
  RemoveFileIfExists(TempPath("io_rsd"));
  RemoveFileIfExists(TempPath("io_ssd"));
}

TEST(JoinIoTest, NestedLoopIoMatchesFormula) {
  WorkloadConfig config;
  config.seed = 9;
  config.num_r = 500;
  config.num_s = 300;
  TypeJDataset dataset = GenerateTypeJDataset(config);

  BufferPool setup_pool(8);
  ASSERT_OK_AND_ASSIGN(
      auto r_file,
      WriteRelationToFile(dataset.r, TempPath("nl_r"), &setup_pool, 128));
  ASSERT_OK_AND_ASSIGN(
      auto s_file,
      WriteRelationToFile(dataset.s, TempPath("nl_s"), &setup_pool, 128));

  const size_t buffer_pages = 4;
  IoStats io;
  FuzzyJoinSpec spec;
  spec.outer_key = 1;
  spec.inner_key = 0;
  ASSERT_OK(FileNestedLoopJoin(r_file.get(), s_file.get(), &io, buffer_pages,
                               spec, nullptr,
                               [](const Tuple&, const Tuple&, double) {
                                 return Status::OK();
                               }));
  // Section 3: I/O = b_R + ceil(b_R / (M-1)) * b_S.
  const uint64_t b_r = r_file->NumPages();
  const uint64_t b_s = s_file->NumPages();
  const uint64_t blocks = (b_r + buffer_pages - 2) / (buffer_pages - 1);
  EXPECT_EQ(io.page_reads, b_r + blocks * b_s);

  r_file.reset();
  s_file.reset();
  RemoveFileIfExists(TempPath("nl_r"));
  RemoveFileIfExists(TempPath("nl_s"));
}

TEST(ExecutorTest, ThresholdPushdownKeepsAnswersAndShrinksWork) {
  // The [42] indicator optimization: WITH D >= z lets the merge window
  // run on z-cuts. Answers must match the unpushed plan filtered at the
  // end; the examined-pair count must not grow as z rises.
  WorkloadConfig config;
  config.seed = 55;
  config.num_r = 400;
  config.num_s = 400;
  config.join_fanout = 8;
  config.fuzzy_fraction = 1.0;  // all-fuzzy keys: cuts genuinely shrink
  config.partial_membership_fraction = 0.5;
  TypeJDataset dataset = GenerateTypeJDataset(config);

  BufferPool setup_pool(8);
  ASSERT_OK_AND_ASSIGN(
      auto r_file,
      WriteRelationToFile(dataset.r, TempPath("th_r"), &setup_pool, 128));
  ASSERT_OK_AND_ASSIGN(
      auto s_file,
      WriteRelationToFile(dataset.s, TempPath("th_s"), &setup_pool, 128));

  uint64_t previous_pairs = UINT64_MAX;
  for (double threshold : {0.0, 0.3, 0.6, 0.9}) {
    TypeJQuerySpec query;
    query.threshold = threshold;
    ASSERT_OK_AND_ASSIGN(
        RunResult nested,
        RunTypeJNestedLoop(r_file.get(), s_file.get(), query, 8));
    ASSERT_OK_AND_ASSIGN(
        RunResult merged,
        RunTypeJMergeJoin(r_file.get(), s_file.get(), query, 8,
                          TempPath("th_tmp"), 128));
    EXPECT_TRUE(nested.answer.EquivalentTo(merged.answer, 1e-12))
        << "threshold " << threshold;
    EXPECT_LE(merged.stats.cpu.tuple_pairs, previous_pairs)
        << "threshold " << threshold;
    previous_pairs = merged.stats.cpu.tuple_pairs;
  }

  r_file.reset();
  s_file.reset();
  RemoveFileIfExists(TempPath("th_r"));
  RemoveFileIfExists(TempPath("th_s"));
}

TEST(ExecutorTest, MergeJoinKeepsPairsThatRoundingSeparates) {
  // Each pair's equality degree computes to d, yet its alpha-cuts at d,
  // computed as a + d * (b - a) and d - d * (d - c), miss each other by
  // rounding (the pairs of PairJoinTest's
  // CutWindowKeepsPairsThatRoundingSeparates). At threshold d the file
  // merge-join must keep the answer row the nested loop keeps.
  const std::pair<Trapezoid, Trapezoid> kPairs[] = {
      {Trapezoid(-0.740944657821478, 0.38291527574883943,
                 0.59827362747664292, 2.5556872087520537),
       Trapezoid(-2.3835613268292386, -2.0984852739140862,
                 -1.1898305889164957, 2.9870231606929147)},
      {Trapezoid(-2136727.7850868306, -905272.27626099065,
                 373410.21998188359, 568665.55201045889),
       Trapezoid(-2750128.3783704871, -2242289.40467731,
                 -1016101.9582802539, 420274.78109537909)},
  };
  for (const auto& [y, z] : kPairs) {
    Relation r("R", Schema({Column{"X", ValueType::kFuzzy},
                            Column{"Y", ValueType::kFuzzy},
                            Column{"U", ValueType::kFuzzy}}));
    Relation s("S", Schema({Column{"Z", ValueType::kFuzzy},
                            Column{"V", ValueType::kFuzzy}}));
    ASSERT_OK(r.Append(Tuple(
        {Value::Number(1), Value::Fuzzy(y), Value::Number(0)}, 1.0)));
    ASSERT_OK(s.Append(Tuple({Value::Fuzzy(z), Value::Number(0)}, 1.0)));
    BufferPool setup_pool(8);
    ASSERT_OK_AND_ASSIGN(
        auto r_file, WriteRelationToFile(r, TempPath("rd_r"), &setup_pool, 128));
    ASSERT_OK_AND_ASSIGN(
        auto s_file, WriteRelationToFile(s, TempPath("rd_s"), &setup_pool, 128));

    TypeJQuerySpec query;
    query.threshold = Value::Fuzzy(y).Compare(CompareOp::kEq, Value::Fuzzy(z));
    ASSERT_OK_AND_ASSIGN(
        RunResult nested,
        RunTypeJNestedLoop(r_file.get(), s_file.get(), query, 8));
    ASSERT_OK_AND_ASSIGN(
        RunResult merged,
        RunTypeJMergeJoin(r_file.get(), s_file.get(), query, 8,
                          TempPath("rd_tmp"), 128));
    EXPECT_EQ(nested.answer.NumTuples(), 1u) << query.threshold;
    EXPECT_TRUE(nested.answer.EquivalentTo(merged.answer, 0.0))
        << "threshold " << query.threshold << ": merge join kept "
        << merged.answer.NumTuples() << " rows";

    r_file.reset();
    s_file.reset();
    RemoveFileIfExists(TempPath("rd_r"));
    RemoveFileIfExists(TempPath("rd_s"));
  }
}

TEST(ExecutorTest, NestedLoopAndMergeJoinRunnersAgree) {
  for (uint64_t seed : {31, 32}) {
    WorkloadConfig config;
    config.seed = seed;
    config.num_r = 250;
    config.num_s = 250;
    config.join_fanout = 5;
    config.partial_membership_fraction = 0.4;
    TypeJDataset dataset = GenerateTypeJDataset(config);

    BufferPool setup_pool(8);
    ASSERT_OK_AND_ASSIGN(
        auto r_file,
        WriteRelationToFile(dataset.r, TempPath("ex_r"), &setup_pool, 128));
    ASSERT_OK_AND_ASSIGN(
        auto s_file,
        WriteRelationToFile(dataset.s, TempPath("ex_s"), &setup_pool, 128));

    TypeJQuerySpec query;
    ASSERT_OK_AND_ASSIGN(
        RunResult nested,
        RunTypeJNestedLoop(r_file.get(), s_file.get(), query, 8));
    ASSERT_OK_AND_ASSIGN(
        RunResult merged,
        RunTypeJMergeJoin(r_file.get(), s_file.get(), query, 8,
                          TempPath("ex_tmp"), 128));

    EXPECT_GT(nested.answer.NumTuples(), 0u);
    EXPECT_TRUE(nested.answer.EquivalentTo(merged.answer, 1e-12))
        << "seed " << seed;
    EXPECT_GT(merged.stats.sort_seconds, 0.0);

    // The answers also match the in-memory naive evaluator on the same
    // data -- ties the file path to the executable specification.
    Catalog catalog;
    ASSERT_OK(catalog.AddRelation(dataset.r));
    ASSERT_OK(catalog.AddRelation(dataset.s));
    ASSERT_OK_AND_ASSIGN(
        auto bound,
        sql::ParseAndBind("SELECT R.X FROM R WHERE R.Y IN "
                          "(SELECT S.Z FROM S WHERE S.V = R.U)",
                          catalog));
    NaiveEvaluator naive;
    ASSERT_OK_AND_ASSIGN(Relation spec_answer, naive.Evaluate(*bound));
    EXPECT_TRUE(spec_answer.EquivalentTo(nested.answer, 1e-12));

    r_file.reset();
    s_file.reset();
    RemoveFileIfExists(TempPath("ex_r"));
    RemoveFileIfExists(TempPath("ex_s"));
  }
}

}  // namespace
}  // namespace fuzzydb
