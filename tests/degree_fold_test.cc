// The batched degree fold (engine/degree_fold.h) against a per-lane
// Value::Compare oracle that states its contract independently: lanes
// at degree 0 take no part, degree_evaluations counts each lane that
// does, and a chunk is one kernel call exactly when one side is a
// column and every participating operand lane is fuzzy. Degrees must
// be bit-identical and every count exact, over fuzzy, crisp, string and
// null lanes, constants on either side, negation on and off, and batch
// sizes 1, 7 and 1024.
#include "engine/degree_fold.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"

namespace fuzzydb {
namespace {

// The columns of every lane tuple, local and outer alike.
constexpr size_t kFuzzy = 0;   // a random trapezoid on [0, 100)
constexpr size_t kCrisp = 1;   // a crisp integer in [0, 100]
constexpr size_t kString = 2;  // one of three words
constexpr size_t kMixed = 3;   // fuzzy, but null or a string in ~1/8

constexpr CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                              CompareOp::kLt, CompareOp::kLe,
                              CompareOp::kGt, CompareOp::kGe,
                              CompareOp::kApproxEq};

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

Trapezoid RandomTrapezoid(Rng* rng) {
  double c[4];
  for (double& x : c) x = rng->UniformDouble(0, 100);
  std::sort(c, c + 4);
  return Trapezoid(c[0], c[1], c[2], c[3]);
}

/// A lane tuple; a quarter of them start at degree 0.
Tuple RandomTuple(Rng* rng) {
  static const char* const kWords[] = {"ann", "bob", "cy"};
  std::vector<Value> values;
  values.push_back(Value::Fuzzy(RandomTrapezoid(rng)));
  values.push_back(Value::Number(
      static_cast<double>(rng->UniformInt(0, 100))));
  values.push_back(Value::String(kWords[rng->UniformInt(0, 2)]));
  if (rng->Bernoulli(1.0 / 8)) {
    values.push_back(rng->Bernoulli(0.5) ? Value::Null()
                                         : Value::String("ann"));
  } else {
    values.push_back(Value::Fuzzy(RandomTrapezoid(rng)));
  }
  const double degree =
      rng->Bernoulli(0.25) ? 0.0 : rng->UniformDouble(0.01, 1.0);
  return Tuple(std::move(values), degree);
}

std::vector<Tuple> RandomTuples(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < n; ++i) tuples.push_back(RandomTuple(&rng));
  return tuples;
}

/// Everything one run of a fold sequence reports.
struct FoldRun {
  std::vector<double> degrees;
  std::vector<size_t> live;  // the lanes taking part, per fold call
  uint64_t evaluations = 0;
  uint64_t batches = 0;
  uint64_t rows = 0;
};

/// Folds `terms` over the lanes (local[i], outer[i]) in chunks of
/// `batch`, each lane starting at its local tuple's degree, stopping a
/// chunk at the first fold that returns 0 -- as the engine does.
FoldRun RunFold(const std::vector<FoldTerm>& terms,
                const std::vector<Tuple>& local,
                const std::vector<Tuple>& outer, size_t batch) {
  auto scratch = std::make_unique<FoldScratch>();
  Histogram fill;
  BatchTally tally{&fill};
  CpuStats cpu;
  FoldRun run;
  for (size_t begin = 0; begin < local.size(); begin += batch) {
    const size_t count = std::min(batch, local.size() - begin);
    for (size_t k = 0; k < count; ++k) {
      scratch->degree[k] = local[begin + k].degree();
    }
    const auto lanes = [&](size_t k) {
      return LaneTuples{&local[begin + k], &outer[begin + k]};
    };
    for (const FoldTerm& term : terms) {
      const size_t live =
          FoldComparison(lanes, count, term, scratch.get(), &cpu, &tally);
      run.live.push_back(live);
      if (live == 0) break;
    }
    run.degrees.insert(run.degrees.end(), scratch->degree.begin(),
                       scratch->degree.begin() + count);
  }
  run.evaluations = cpu.degree_evaluations;
  run.batches = tally.batches;
  run.rows = tally.rows;
  // One fill sample per kernel call, of that call's lane count.
  const HistogramSnapshot samples = fill.Snapshot();
  EXPECT_EQ(samples.total_count, tally.batches);
  EXPECT_EQ(samples.sum, tally.rows);
  return run;
}

const Value& OracleValue(const FoldOperand& op, const Tuple& local,
                         const Tuple& outer) {
  switch (op.kind) {
    case FoldOperand::Kind::kLocalColumn:
      return local.ValueAt(op.column);
    case FoldOperand::Kind::kOuterColumn:
      return outer.ValueAt(op.column);
    case FoldOperand::Kind::kConstant:
      break;
  }
  return *op.constant;
}

/// The same run, one Value::Compare per participating lane, with the
/// kernel calls the contract predicts.
FoldRun OracleFold(const std::vector<FoldTerm>& terms,
                   const std::vector<Tuple>& local,
                   const std::vector<Tuple>& outer, size_t batch) {
  FoldRun run;
  for (size_t begin = 0; begin < local.size(); begin += batch) {
    const size_t end = std::min(local.size(), begin + batch);
    std::vector<double> degree;
    for (size_t i = begin; i < end; ++i) degree.push_back(local[i].degree());
    for (const FoldTerm& term : terms) {
      size_t live = 0;
      bool all_fuzzy = term.lhs.is_column() || term.rhs.is_column();
      for (size_t i = begin; i < end; ++i) {
        if (degree[i - begin] <= 0.0) continue;
        ++live;
        all_fuzzy = all_fuzzy &&
                    OracleValue(term.lhs, local[i], outer[i]).is_fuzzy() &&
                    OracleValue(term.rhs, local[i], outer[i]).is_fuzzy();
      }
      run.live.push_back(live);
      if (live == 0) break;
      run.evaluations += live;
      if (all_fuzzy) {
        ++run.batches;
        run.rows += live;
      }
      for (size_t i = begin; i < end; ++i) {
        double& d = degree[i - begin];
        if (d <= 0.0) continue;
        const Value& lhs = OracleValue(term.lhs, local[i], outer[i]);
        const Value& rhs = OracleValue(term.rhs, local[i], outer[i]);
        const double x = lhs.Compare(term.op, rhs, term.tolerance);
        d = std::min(d, term.negate ? 1.0 - x : x);
      }
    }
    run.degrees.insert(run.degrees.end(), degree.begin(), degree.end());
  }
  return run;
}

/// Runs `terms` at batch sizes 1, 7 and 1024 and holds each run to the
/// oracle. Returns the kernel calls made at batch size 1024.
uint64_t ExpectMatchesOracle(const std::vector<FoldTerm>& terms,
                             const std::vector<Tuple>& local,
                             const std::vector<Tuple>& outer,
                             const std::string& label) {
  uint64_t batches = 0;
  for (size_t batch : {1, 7, 1024}) {
    SCOPED_TRACE(label + ", batch " + std::to_string(batch));
    const FoldRun got = RunFold(terms, local, outer, batch);
    const FoldRun want = OracleFold(terms, local, outer, batch);
    EXPECT_EQ(got.degrees.size(), want.degrees.size());
    const size_t lanes = std::min(got.degrees.size(), want.degrees.size());
    for (size_t i = 0; i < lanes; ++i) {
      EXPECT_TRUE(SameBits(got.degrees[i], want.degrees[i]))
          << "lane " << i << ": " << got.degrees[i] << " vs "
          << want.degrees[i];
    }
    EXPECT_EQ(got.live, want.live);
    EXPECT_EQ(got.evaluations, want.evaluations);
    EXPECT_EQ(got.batches, want.batches);
    EXPECT_EQ(got.rows, want.rows);
    batches = got.batches;
  }
  return batches;
}

TEST(DegreeFoldTest, EveryOperandShapeMatchesThePerLaneFold) {
  const std::vector<Tuple> local = RandomTuples(300, 0x51u);
  const std::vector<Tuple> outer = RandomTuples(300, 0x52u);
  const Value fuzzy_constant = Value::Fuzzy(Trapezoid(30, 40, 55, 70));
  const Value crisp_constant = Value::Number(50);
  const Value string_constant = Value::String("bob");
  using F = FoldOperand;
  const struct {
    const char* name;
    FoldOperand lhs;
    FoldOperand rhs;
    bool kernel;  // whether batch 1024 must make kernel calls
  } shapes[] = {
      {"fuzzy column vs fuzzy constant", F::Local(kFuzzy),
       F::Constant(fuzzy_constant), true},
      {"crisp constant vs crisp column", F::Constant(crisp_constant),
       F::Local(kCrisp), true},
      {"local vs outer column", F::Local(kFuzzy), F::Outer(kCrisp), true},
      {"outer vs local column", F::Outer(kFuzzy), F::Local(kFuzzy), true},
      {"string column vs string constant", F::Local(kString),
       F::Constant(string_constant), false},
      {"string constant vs outer string", F::Constant(string_constant),
       F::Outer(kString), false},
      {"fuzzy column vs string constant", F::Local(kFuzzy),
       F::Constant(string_constant), false},
      {"constant vs constant", F::Constant(fuzzy_constant),
       F::Constant(crisp_constant), false},
  };
  for (const auto& shape : shapes) {
    for (CompareOp op : kOps) {
      for (bool negate : {false, true}) {
        const std::string label = std::string(shape.name) + " " +
                                  CompareOpName(op) +
                                  (negate ? " negated" : "");
        const FoldTerm term{shape.lhs, op, shape.rhs, /*tolerance=*/10.0,
                            negate};
        const uint64_t batches =
            ExpectMatchesOracle({term}, local, outer, label);
        EXPECT_EQ(batches > 0, shape.kernel) << label;
      }
    }
  }
}

TEST(DegreeFoldTest, FoldSequencesMatchThePerLaneFold) {
  const std::vector<Tuple> local = RandomTuples(500, 0x61u);
  const std::vector<Tuple> outer = RandomTuples(500, 0x62u);
  const Value low = Value::Fuzzy(Trapezoid(10, 20, 30, 45));
  const Value word = Value::String("cy");
  using F = FoldOperand;
  // A filter (column vs constants), a pair term (correlations, then the
  // ALL link), a mixed column whose null and string lanes send some
  // chunks per lane, and a string predicate in the middle of a sequence.
  const std::vector<std::vector<FoldTerm>> sequences = {
      {{F::Local(kFuzzy), CompareOp::kGe, F::Constant(low)},
       {F::Constant(low), CompareOp::kLt, F::Local(kCrisp)},
       {F::Local(kFuzzy), CompareOp::kApproxEq, F::Local(kCrisp), 25.0}},
      {{F::Local(kFuzzy), CompareOp::kEq, F::Outer(kFuzzy)},
       {F::Outer(kCrisp), CompareOp::kLe, F::Local(kCrisp)},
       {F::Outer(kFuzzy), CompareOp::kEq, F::Local(kMixed), 1.0, true}},
      {{F::Local(kMixed), CompareOp::kNe, F::Outer(kMixed)},
       {F::Constant(low), CompareOp::kLe, F::Local(kMixed), 1.0, true}},
      {{F::Local(kCrisp), CompareOp::kGt, F::Outer(kFuzzy)},
       {F::Local(kString), CompareOp::kNe, F::Constant(word)},
       {F::Outer(kFuzzy), CompareOp::kEq, F::Local(kFuzzy)}},
  };
  for (size_t i = 0; i < sequences.size(); ++i) {
    ExpectMatchesOracle(sequences[i], local, outer,
                        "sequence " + std::to_string(i));
  }
}

// Gathers are all-or-nothing over the lanes taking part: one non-fuzzy
// live lane sends the whole chunk down the per-lane path, while a
// non-fuzzy lane that has already left the fold does not.
TEST(DegreeFoldTest, NonFuzzyLiveLaneSendsTheChunkPerLane) {
  Rng rng(0x9999u);
  std::vector<Tuple> tuples;
  for (int i = 0; i < 100; ++i) {
    tuples.emplace_back(std::vector<Value>{Value::Fuzzy(RandomTrapezoid(&rng))},
                        1.0);
  }
  const Value probe = Value::Fuzzy(Trapezoid(20, 40, 60, 80));
  const FoldTerm term{FoldOperand::Local(0), CompareOp::kEq,
                      FoldOperand::Constant(probe)};
  auto fold = [&](const std::vector<Tuple>& lanes_in) {
    return RunFold({term}, lanes_in, lanes_in, /*batch=*/1024);
  };

  FoldRun run = fold(tuples);
  EXPECT_EQ(run.batches, 1u);
  EXPECT_EQ(run.rows, 100u);

  tuples.emplace_back(std::vector<Value>{Value::Null()}, 1.0);
  run = fold(tuples);
  EXPECT_EQ(run.batches, 0u);
  EXPECT_EQ(run.evaluations, 101u);
  EXPECT_EQ(run.degrees.back(), 0.0);  // NULL compares at degree 0
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(SameBits(
        run.degrees[i],
        std::min(1.0, tuples[i].ValueAt(0).Compare(CompareOp::kEq, probe))));
  }

  tuples.back().set_degree(0.0);
  run = fold(tuples);
  EXPECT_EQ(run.batches, 1u);
  EXPECT_EQ(run.rows, 100u);
  EXPECT_EQ(run.evaluations, 100u);
}

TEST(DegreeFoldTest, ChunkWithNoLiveLaneEvaluatesNothing) {
  std::vector<Tuple> tuples;
  for (int i = 0; i < 5; ++i) {
    tuples.emplace_back(std::vector<Value>{Value::Number(i)}, 0.0);
  }
  const FoldRun run = RunFold(
      {{FoldOperand::Local(0), CompareOp::kEq, FoldOperand::Local(0)},
       {FoldOperand::Local(0), CompareOp::kLt, FoldOperand::Local(0)}},
      tuples, tuples, /*batch=*/1024);
  EXPECT_EQ(run.live, std::vector<size_t>{0});
  EXPECT_EQ(run.evaluations, 0u);
  EXPECT_EQ(run.batches, 0u);
  EXPECT_EQ(run.degrees, std::vector<double>(5, 0.0));
}

}  // namespace
}  // namespace fuzzydb
