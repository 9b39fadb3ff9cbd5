#include "engine/partitioned_join.h"

#include <gtest/gtest.h>

#include <map>

#include "engine/nested_loop_join.h"
#include "test_util.h"
#include "workload/generator.h"

namespace fuzzydb {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/fuzzydb_pjoin_" + name;
}

using PairMap = std::map<std::pair<double, std::string>, double>;

class PartitionedJoinTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(PartitionedJoinTest, MatchesNestedLoopOracleExactly) {
  const uint64_t seed = std::get<0>(GetParam());
  const size_t num_partitions = std::get<1>(GetParam());

  WorkloadConfig config;
  config.seed = seed;
  config.num_r = 300;
  config.num_s = 300;
  config.join_fanout = 5;
  config.partial_membership_fraction = 0.5;
  TypeJDataset dataset = GenerateTypeJDataset(config);

  BufferPool pool(32);
  const std::string tag = std::to_string(seed) + "_" +
                          std::to_string(num_partitions);
  ASSERT_OK_AND_ASSIGN(
      auto r_file,
      WriteRelationToFile(dataset.r, TempPath("R" + tag), &pool, 128));
  ASSERT_OK_AND_ASSIGN(
      auto s_file,
      WriteRelationToFile(dataset.s, TempPath("S" + tag), &pool, 128));

  FuzzyJoinSpec spec;
  spec.outer_key = 1;
  spec.inner_key = 0;
  spec.residuals.push_back({2, 1, CompareOp::kEq});

  auto key_of = [](const Tuple& r, const Tuple& s) {
    return std::make_pair(r.ValueAt(0).AsFuzzy().CrispValue(),
                          s.ValueAt(0).AsFuzzy().ToString() + "/" +
                              s.ValueAt(1).AsFuzzy().ToString());
  };

  // Oracle. (Distinct S tuples can carry identical values, so the map
  // dedups; raw emission counts are compared separately.)
  PairMap expected;
  uint64_t expected_emissions = 0;
  IoStats nl_io;
  CpuStats nl_cpu;
  ASSERT_OK(FileNestedLoopJoin(r_file.get(), s_file.get(), &nl_io, 8, spec,
                               &nl_cpu,
                               [&](const Tuple& r, const Tuple& s, double d) {
                                 ++expected_emissions;
                                 auto [it, fresh] =
                                     expected.emplace(key_of(r, s), d);
                                 if (!fresh) {
                                   it->second = std::max(it->second, d);
                                 }
                                 return Status::OK();
                               }));

  // Partitioned join: also counts raw emissions to prove no pair is
  // produced twice (each inner tuple lives in exactly one partition).
  PairMap actual;
  uint64_t emissions = 0;
  PartitionedJoinStats stats;
  CpuStats cpu;
  ASSERT_OK(FilePartitionedJoin(
      r_file.get(), s_file.get(), &pool, spec, num_partitions,
      TempPath("tmp" + tag), &cpu,
      [&](const Tuple& r, const Tuple& s, double d) {
        ++emissions;
        auto [it, fresh] = actual.emplace(key_of(r, s), d);
        if (!fresh) it->second = std::max(it->second, d);
        return Status::OK();
      },
      &stats));

  EXPECT_EQ(expected.size(), actual.size());
  EXPECT_EQ(emissions, expected_emissions)
      << "pair emitted a different number of times than the oracle";
  for (const auto& [key, degree] : expected) {
    auto it = actual.find(key);
    ASSERT_NE(it, actual.end());
    EXPECT_NEAR(degree, it->second, 1e-12);
  }
  EXPECT_GE(stats.partitions, 1u);
  EXPECT_LE(stats.partitions, num_partitions);

  // Exact counters, recorded from the serial window scan: partitioning
  // changes how many boundary comparisons the scans make, never which
  // pairs they examine.
  struct Expected {
    uint64_t seed;
    size_t partitions;
    uint64_t comparisons;
    uint64_t pairs;
    uint64_t degrees;
    uint64_t nested_loop_degrees;  // its pairs are always 300 x 300
  };
  static const Expected kExpected[] = {
      {81, 1, 7907, 1522, 3044, 91522},  {81, 4, 6810, 1522, 3044, 91522},
      {81, 16, 5810, 1522, 3044, 91522}, {82, 1, 8109, 1486, 2972, 91486},
      {82, 4, 6891, 1486, 2972, 91486},  {82, 16, 5919, 1486, 2972, 91486},
      {83, 1, 8061, 1473, 2946, 91473},  {83, 4, 6796, 1473, 2946, 91473},
      {83, 16, 5970, 1473, 2946, 91473},
  };
  const Expected* want = nullptr;
  for (const Expected& e : kExpected) {
    if (e.seed == seed && e.partitions == num_partitions) want = &e;
  }
  ASSERT_NE(want, nullptr);
  EXPECT_EQ(cpu.comparisons, want->comparisons);
  EXPECT_EQ(cpu.tuple_pairs, want->pairs);
  EXPECT_EQ(cpu.degree_evaluations, want->degrees);
  EXPECT_EQ(nl_cpu.tuple_pairs, 90000u);
  EXPECT_EQ(nl_cpu.degree_evaluations, want->nested_loop_degrees);

  r_file.reset();
  s_file.reset();
  RemoveFileIfExists(TempPath("R" + tag));
  RemoveFileIfExists(TempPath("S" + tag));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPartitions, PartitionedJoinTest,
    ::testing::Combine(::testing::Values<uint64_t>(81, 82, 83),
                       ::testing::Values<size_t>(1, 4, 16)));

TEST(PartitionedJoinEdgeTest, EmptyRelations) {
  BufferPool pool(8);
  Relation empty("E", Schema{Column{"Z", ValueType::kFuzzy},
                             Column{"V", ValueType::kFuzzy}});
  ASSERT_OK_AND_ASSIGN(auto r_file,
                       WriteRelationToFile(empty, TempPath("empty_r"), &pool));
  ASSERT_OK_AND_ASSIGN(auto s_file,
                       WriteRelationToFile(empty, TempPath("empty_s"), &pool));
  FuzzyJoinSpec spec;
  spec.outer_key = 0;
  spec.inner_key = 0;
  uint64_t emissions = 0;
  ASSERT_OK(FilePartitionedJoin(r_file.get(), s_file.get(), &pool, spec, 8,
                                TempPath("empty_tmp"), nullptr,
                                [&](const Tuple&, const Tuple&, double) {
                                  ++emissions;
                                  return Status::OK();
                                }));
  EXPECT_EQ(emissions, 0u);
  r_file.reset();
  s_file.reset();
  RemoveFileIfExists(TempPath("empty_r"));
  RemoveFileIfExists(TempPath("empty_s"));
}

TEST(PartitionedJoinEdgeTest, RejectsNonEquijoin) {
  BufferPool pool(8);
  Relation rel("R", Schema{Column{"Z", ValueType::kFuzzy}});
  ASSERT_OK(rel.Append(Tuple({Value::Number(1)}, 1.0)));
  ASSERT_OK_AND_ASSIGN(auto file,
                       WriteRelationToFile(rel, TempPath("ne"), &pool));
  FuzzyJoinSpec spec;
  spec.key_op = CompareOp::kLe;
  const Status status = FilePartitionedJoin(
      file.get(), file.get(), &pool, spec, 4, TempPath("ne_tmp"), nullptr,
      [](const Tuple&, const Tuple&, double) { return Status::OK(); });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  file.reset();
  RemoveFileIfExists(TempPath("ne"));
}

TEST(PartitionedJoinEdgeTest, WideOuterValuesReplicateButStayCorrect) {
  // One very wide outer value spans every partition.
  BufferPool pool(16);
  Relation r("R", Schema{Column{"X", ValueType::kFuzzy},
                         Column{"Y", ValueType::kFuzzy}});
  ASSERT_OK(r.Append(
      Tuple({Value::Number(0), Value::Fuzzy(Trapezoid(0, 10, 90, 100))}, 1.0)));
  ASSERT_OK(r.Append(Tuple({Value::Number(1), Value::Number(50)}, 1.0)));
  Relation s("S", Schema{Column{"Z", ValueType::kFuzzy}});
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(s.Append(Tuple({Value::Number(i)}, 1.0)));
  }
  ASSERT_OK_AND_ASSIGN(auto r_file,
                       WriteRelationToFile(r, TempPath("wide_r"), &pool));
  ASSERT_OK_AND_ASSIGN(auto s_file,
                       WriteRelationToFile(s, TempPath("wide_s"), &pool));

  FuzzyJoinSpec spec;
  spec.outer_key = 1;
  spec.inner_key = 0;
  uint64_t pairs = 0;
  PartitionedJoinStats stats;
  ASSERT_OK(FilePartitionedJoin(r_file.get(), s_file.get(), &pool, spec, 8,
                                TempPath("wide_tmp"), nullptr,
                                [&](const Tuple&, const Tuple&, double d) {
                                  EXPECT_GT(d, 0.0);
                                  ++pairs;
                                  return Status::OK();
                                },
                                &stats));
  // The wide tuple joins the 99 crisp values in (0, 100); the crisp one
  // joins exactly 50. (0 and 100 have membership 0 in the wide value.)
  EXPECT_EQ(pairs, 99u + 1u);
  EXPECT_GT(stats.outer_replicas, 2u);  // the wide tuple was replicated
  r_file.reset();
  s_file.reset();
  RemoveFileIfExists(TempPath("wide_r"));
  RemoveFileIfExists(TempPath("wide_s"));
}

}  // namespace
}  // namespace fuzzydb
