// PairJoin, the engine's one in-memory join, against brute force. Keyed
// and unkeyed, over seeded inputs whose key supports tie often and reach
// +-inf, at morsel sizes 16 and 2048, 1 and 4 threads, and batch sizes
// 1, 7 and 1024. The pairs handed to the sink are the brute-force ones,
// every batch keeps the batching contract of PairBatch, and the
// counters do not depend on the thread count. Keyed at a threshold cut,
// the window runs on alpha-cuts and still emits every pair whose
// equality degree reaches the cut.
#include "engine/pair_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "parallel/thread_pool.h"
#include "test_util.h"

namespace fuzzydb {
namespace {

const double kInf = std::numeric_limits<double>::infinity();

/// `n` tuples: column 0 an interval key drawn from few distinct corners
/// (ties, -0.0 beside 0.0 and infinite ends are frequent), column 1 a
/// crisp number, degrees in (0, 1].
Relation MakeSide(uint64_t seed, const std::string& name, size_t n) {
  const double corners[] = {-kInf, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0, kInf};
  Rng rng(seed);
  auto corner = [&] {
    return corners[rng.UniformInt(
        0, static_cast<int64_t>(std::size(corners)) - 1)];
  };
  Relation rel(name, Schema({Column{"K", ValueType::kFuzzy},
                             Column{"N", ValueType::kFuzzy}}));
  for (size_t i = 0; i < n; ++i) {
    double lo = corner();
    double hi = corner();
    if (hi < lo) std::swap(lo, hi);
    const double degree = 0.25 * static_cast<double>(rng.UniformInt(1, 4));
    EXPECT_OK(rel.Append(
        Tuple({Value::Fuzzy(Trapezoid::Interval(lo, hi)),
               Value::Number(static_cast<double>(rng.UniformInt(0, 5)))},
              degree)));
  }
  return rel;
}

std::vector<FT> Rows(const Relation& rel) {
  std::vector<FT> rows;
  for (const Tuple& t : rel.tuples()) rows.push_back(FT{&t, t.degree()});
  return rows;
}

/// The bounds PairJoin windows tuple t's key on at `cut`.
SupportBounds TupleBounds(const Tuple& t, double cut = 0.0) {
  return KeyBounds(t.ValueAt(0).AsFuzzy(), cut);
}

using Pair = std::pair<size_t, const Tuple*>;  // outer row, inner tuple

/// Definition 3.2's Rng(r) membership, from the bounds alone: s is not
/// wholly after r, and the sorted scan has not retired everything up to
/// s -- some s' no later than s in the interval order reaches b(r).
/// (Rng(r) can hold a short support wholly before r that sorts after a
/// long one reaching r; such a pair folds to degree 0.)
std::vector<Pair> BruteForce(const Relation& outer, const Relation& inner,
                             bool keyed, double cut = 0.0) {
  std::vector<Pair> pairs;
  for (size_t r = 0; r < outer.NumTuples(); ++r) {
    const SupportBounds rb = TupleBounds(outer.TupleAt(r), cut);
    for (const Tuple& s : inner.tuples()) {
      const SupportBounds sb = TupleBounds(s, cut);
      bool in_window = !keyed;
      if (keyed && sb.begin <= rb.end) {
        for (const Tuple& t : inner.tuples()) {
          const SupportBounds tb = TupleBounds(t, cut);
          const bool no_later = !BoundsLess(sb, tb);
          if (no_later && tb.end >= rb.begin) in_window = true;
        }
      }
      if (in_window) pairs.emplace_back(r, &s);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// What one worker saw: its batches in arrival order.
struct WorkerLog {
  struct Batch {
    size_t morsel = 0;
    size_t count = 0;
    bool morsel_end = false;
  };
  std::vector<Batch> batches;
  std::vector<Pair> pairs;
  size_t oversized = 0;        // batches over batch_size
  size_t misplaced = 0;        // pairs outside their batch's morsel
  size_t bad_lane_starts = 0;  // lanes not at min(weight, d_S(s))
};

struct JoinRun {
  std::vector<Pair> pairs;  // sorted
  std::vector<std::vector<WorkerLog::Batch>> morsels;  // batches per morsel
  size_t oversized = 0;
  size_t misplaced = 0;
  size_t bad_lane_starts = 0;
  CpuStats cpu;
};

JoinRun RunPairJoin(const Relation& outer_rel, const Relation& inner_rel,
                    bool keyed, const ParallelContext& ctx,
                    double cut = 0.0) {
  const std::vector<FT> outer = Rows(outer_rel);
  std::vector<FT> inner = Rows(inner_rel);
  const size_t morsel_size = ctx.morsel_size;
  // The sorted outer position of every row, from the same deterministic
  // sort PairJoin runs, so a keyed batch's morsel can be checked.
  std::vector<size_t> position(outer.size());
  for (size_t r = 0; r < outer.size(); ++r) position[r] = r;
  if (keyed) {
    struct Record {
      SupportBounds bounds;
      size_t row = 0;
    };
    std::vector<Record> records;
    for (size_t r = 0; r < outer.size(); ++r) {
      records.push_back({TupleBounds(*outer[r].tuple, cut), r});
    }
    EXPECT_OK(SortByBounds(ctx, &records, nullptr));
    for (size_t pos = 0; pos < records.size(); ++pos) {
      position[records[pos].row] = pos;
    }
  }
  // The sink's one fold: outer N <= inner N.
  const std::vector<FoldTerm> terms = {FoldTerm{
      FoldOperand::Outer(1), CompareOp::kLe, FoldOperand::Local(1)}};
  const size_t batch_size = EffectiveBatchSize(ctx);
  std::vector<WorkerLog> logs(WorkerSlots(ctx));
  const PairKey key{0, 0, cut};
  JoinRun run;
  EXPECT_OK(PairJoin(
      outer, &inner, keyed ? &key : nullptr, ctx, &run.cpu, nullptr,
      [&](const PairBatch& batch) {
        WorkerLog& log = logs[batch.worker];
        log.batches.push_back({batch.morsel, batch.count, batch.morsel_end});
        if (batch.count > batch_size) ++log.oversized;
        for (size_t k = 0; k < batch.count; ++k) {
          const PairEntry& e = batch.pairs[k];
          log.pairs.emplace_back(e.r, e.s->tuple);
          if (position[e.r] / morsel_size != batch.morsel) ++log.misplaced;
          if (batch.fold->degree[k] !=
              std::min(outer[e.r].degree, e.s->degree)) {
            ++log.bad_lane_starts;
          }
        }
        FoldComparisons(PairLanes(batch, outer), batch.count, terms,
                        batch.fold, batch.cpu, batch.tally);
        return Status::OK();
      }));
  run.morsels.resize((outer.size() + morsel_size - 1) / morsel_size);
  for (const WorkerLog& log : logs) {
    run.pairs.insert(run.pairs.end(), log.pairs.begin(), log.pairs.end());
    for (const WorkerLog::Batch& b : log.batches) {
      run.morsels.at(b.morsel).push_back(b);
    }
    run.oversized += log.oversized;
    run.misplaced += log.misplaced;
    run.bad_lane_starts += log.bad_lane_starts;
  }
  std::sort(run.pairs.begin(), run.pairs.end());
  return run;
}

TEST(PairJoinTest, MatchesBruteForceAndKeepsTheBatchContract) {
  const Relation outer = MakeSide(71, "R", 150);
  const Relation inner = MakeSide(72, "S", 120);
  for (bool keyed : {true, false}) {
    const std::vector<Pair> expected = BruteForce(outer, inner, keyed);
    if (keyed) {
      // Every pair with intersecting supports is in its window.
      size_t intersecting = 0;
      for (size_t r = 0; r < outer.NumTuples(); ++r) {
        const SupportBounds rb = TupleBounds(outer.TupleAt(r));
        for (const Tuple& s : inner.tuples()) {
          const SupportBounds sb = TupleBounds(s);
          if (sb.begin > rb.end || sb.end < rb.begin) continue;
          ++intersecting;
          EXPECT_TRUE(std::binary_search(expected.begin(), expected.end(),
                                         Pair{r, &s}));
        }
      }
      ASSERT_GT(intersecting, 0u);
      ASSERT_LT(expected.size(), outer.NumTuples() * inner.NumTuples());
    }
    for (size_t morsel : {16u, 2048u}) {
      for (size_t batch : {1u, 7u, 1024u}) {
        CpuStats serial_cpu;
        for (size_t threads : {1u, 4u}) {
          ThreadPool pool(threads);
          ParallelContext ctx{threads > 1 ? &pool : nullptr, morsel};
          ctx.batch_size = batch;
          const std::string label =
              std::string(keyed ? "keyed" : "unkeyed") + " morsel=" +
              std::to_string(morsel) + " batch=" + std::to_string(batch) +
              " threads=" + std::to_string(threads);
          const JoinRun run = RunPairJoin(outer, inner, keyed, ctx);
          EXPECT_EQ(run.pairs, expected) << label;
          EXPECT_EQ(run.cpu.tuple_pairs, expected.size()) << label;
          EXPECT_EQ(run.oversized, 0u) << label;
          EXPECT_EQ(run.misplaced, 0u) << label;
          EXPECT_EQ(run.bad_lane_starts, 0u) << label;
          for (size_t m = 0; m < run.morsels.size(); ++m) {
            const auto& batches = run.morsels[m];
            ASSERT_FALSE(batches.empty()) << label << " morsel " << m;
            for (size_t i = 0; i < batches.size(); ++i) {
              EXPECT_EQ(batches[i].morsel_end, i + 1 == batches.size())
                  << label << " morsel " << m << " batch " << i;
            }
          }
          EXPECT_GT(run.cpu.degree_evaluations, 0u) << label;
          if (threads == 1) {
            serial_cpu = run.cpu;
          } else {
            EXPECT_EQ(run.cpu, serial_cpu) << label;
          }
        }
      }
    }
  }
}

/// `n` tuples keyed by trapezoids with sloped edges: corners drawn from
/// few values, with infinite ends and -0.0 beside 0.0. Column 1 and the
/// degrees are as in MakeSide.
Relation MakeSlopedSide(uint64_t seed, const std::string& name, size_t n) {
  const double corners[] = {-kInf, -1.5, -0.0, 0.0, 0.5, 1.0,
                            1.25, 2.0, 3.5, kInf};
  Rng rng(seed);
  Relation rel(name, Schema({Column{"K", ValueType::kFuzzy},
                             Column{"N", ValueType::kFuzzy}}));
  for (size_t i = 0; i < n; ++i) {
    double c[4];
    for (double& x : c) {
      x = corners[rng.UniformInt(0, static_cast<int64_t>(std::size(corners)) -
                                        1)];
    }
    std::sort(c, c + 4);
    const double degree = 0.25 * static_cast<double>(rng.UniformInt(1, 4));
    EXPECT_OK(rel.Append(
        Tuple({Value::Fuzzy(Trapezoid(c[0], c[1], c[2], c[3])),
               Value::Number(static_cast<double>(rng.UniformInt(0, 5)))},
              degree)));
  }
  return rel;
}

/// Pairs whose key equality degree reaches `cut`: what a threshold-cut
/// window must never skip.
std::vector<Pair> PairsReaching(const Relation& outer, const Relation& inner,
                                double cut) {
  std::vector<Pair> pairs;
  for (size_t r = 0; r < outer.NumTuples(); ++r) {
    const Value& rk = outer.TupleAt(r).ValueAt(0);
    for (const Tuple& s : inner.tuples()) {
      if (rk.Compare(CompareOp::kEq, s.ValueAt(0)) >= cut) {
        pairs.emplace_back(r, &s);
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

bool Covers(const std::vector<Pair>& pairs, const std::vector<Pair>& needed) {
  return std::includes(pairs.begin(), pairs.end(), needed.begin(),
                       needed.end());
}

TEST(PairJoinTest, KeyBoundsAtCutZeroAreTheSupportExactly) {
  // A cut at 0 multiplies 0 by an infinite edge, which is NaN: the
  // support must come back untouched.
  for (const Trapezoid& t :
       {Trapezoid(-kInf, -kInf, 0.0, 1.0), Trapezoid(0.5, 1.0, kInf, kInf),
        Trapezoid(-kInf, 0.0, 0.0, kInf), Trapezoid(-0.0, 0.0, 0.0, 0.0),
        Trapezoid(1.0, 2.0, 3.0, 4.0)}) {
    const SupportBounds b = KeyBounds(t, 0.0);
    EXPECT_EQ(b.begin, t.SupportBegin()) << t.ToString();
    EXPECT_EQ(b.end, t.SupportEnd()) << t.ToString();
    EXPECT_EQ(std::signbit(b.begin), std::signbit(t.SupportBegin()));
    for (double cut : {0.25, 0.5, 1.0}) {
      const SupportBounds c = KeyBounds(t, cut);
      EXPECT_FALSE(std::isnan(c.begin) || std::isnan(c.end)) << t.ToString();
      EXPECT_GE(c.begin, t.SupportBegin()) << t.ToString();
      EXPECT_LE(c.end, t.SupportEnd()) << t.ToString();
      EXPECT_LE(c.begin, t.b()) << t.ToString();
      EXPECT_GE(c.end, t.c()) << t.ToString();
    }
  }
  // Finite edges narrow to (just outside) the alpha-cut.
  const Trapezoid t(1.0, 2.0, 3.0, 4.0);
  const SupportBounds c = KeyBounds(t, 0.5);
  EXPECT_LE(c.begin, t.AlphaCutBegin(0.5));
  EXPECT_GT(c.begin, 1.49);
  EXPECT_GE(c.end, t.AlphaCutEnd(0.5));
  EXPECT_LT(c.end, 3.51);
}

TEST(PairJoinTest, CutWindowEmitsEveryPairThatCanReachTheCut) {
  const Relation outer = MakeSlopedSide(81, "R", 120);
  const Relation inner = MakeSlopedSide(82, "S", 100);
  const std::vector<Pair> supports = BruteForce(outer, inner, true);
  for (double cut : {0.25, 0.5, 0.75, 1.0}) {
    const std::vector<Pair> expected = BruteForce(outer, inner, true, cut);
    const std::vector<Pair> needed = PairsReaching(outer, inner, cut);
    ASSERT_FALSE(needed.empty()) << cut;
    EXPECT_TRUE(Covers(expected, needed)) << cut;
    EXPECT_LT(expected.size(), supports.size()) << cut;
    // Every pair whose (unwidened) finite cuts intersect is windowed.
    for (size_t r = 0; r < outer.NumTuples(); ++r) {
      const Trapezoid& x = outer.TupleAt(r).ValueAt(0).AsFuzzy();
      for (const Tuple& s : inner.tuples()) {
        const Trapezoid& y = s.ValueAt(0).AsFuzzy();
        const double xb = x.AlphaCutBegin(cut), xe = x.AlphaCutEnd(cut);
        const double yb = y.AlphaCutBegin(cut), ye = y.AlphaCutEnd(cut);
        if (std::isnan(xb + xe + yb + ye) || yb > xe || ye < xb) continue;
        EXPECT_TRUE(std::binary_search(expected.begin(), expected.end(),
                                       Pair{r, &s}))
            << x.ToString() << " " << y.ToString() << " cut " << cut;
      }
    }
    CpuStats serial_cpu;
    for (size_t threads : {1u, 4u}) {
      ThreadPool pool(threads);
      ParallelContext ctx{threads > 1 ? &pool : nullptr, 16};
      ctx.batch_size = 7;
      const JoinRun run = RunPairJoin(outer, inner, true, ctx, cut);
      const std::string label = "cut=" + std::to_string(cut) +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(run.pairs, expected) << label;
      EXPECT_EQ(run.cpu.tuple_pairs, expected.size()) << label;
      EXPECT_EQ(run.misplaced, 0u) << label;
      if (threads == 1) {
        serial_cpu = run.cpu;
      } else {
        EXPECT_EQ(run.cpu, serial_cpu) << label;
      }
    }
  }
}

TEST(PairJoinTest, CutWindowAtTheThresholdAndOneUlpEitherSide) {
  // X's falling edge 1 -> 2 meets each Y's rising edge: Y = (1.5, 2.5,
  // 3.5) at height exactly 0.25, Y = (1.6, 2.6, 3.6) at 0.2. The
  // infinite keys meet at 1/3.
  Relation outer("R", Schema({Column{"K", ValueType::kFuzzy},
                              Column{"N", ValueType::kFuzzy}}));
  Relation inner = outer;
  inner.set_name("S");
  const auto add = [](Relation* rel, const Trapezoid& key) {
    EXPECT_OK(rel->Append(Tuple({Value::Fuzzy(key), Value::Number(0)}, 1.0)));
  };
  add(&outer, Trapezoid::Triangle(0.0, 1.0, 2.0));
  add(&outer, Trapezoid(-kInf, -kInf, 0.0, 1.0));
  add(&inner, Trapezoid::Triangle(1.5, 2.5, 3.5));
  add(&inner, Trapezoid::Triangle(1.6, 2.6, 3.6));
  add(&inner, Trapezoid(0.5, 1.0, kInf, kInf));
  const Value& x = outer.TupleAt(0).ValueAt(0);
  ASSERT_EQ(x.Compare(CompareOp::kEq, inner.TupleAt(0).ValueAt(0)), 0.25);
  const double third =
      outer.TupleAt(1).ValueAt(0).Compare(CompareOp::kEq,
                                          inner.TupleAt(2).ValueAt(0));
  ASSERT_GT(third, 0.3);
  for (const double cut :
       {0.25, std::nextafter(0.25, 0.0), std::nextafter(0.25, 1.0), third,
        std::nextafter(third, 0.0), std::nextafter(third, 1.0)}) {
    const JoinRun run = RunPairJoin(outer, inner, true, ParallelContext{}, cut);
    EXPECT_TRUE(Covers(run.pairs, PairsReaching(outer, inner, cut)))
        << "cut " << cut;
    EXPECT_EQ(run.pairs, BruteForce(outer, inner, true, cut)) << cut;
  }
  // At 0.25 the exact pair is in and the 0.2 pair is not: the cut
  // narrows the window, by no more than rounding needs.
  const JoinRun run = RunPairJoin(outer, inner, true, ParallelContext{}, 0.25);
  EXPECT_TRUE(std::binary_search(run.pairs.begin(), run.pairs.end(),
                                 Pair{0, &inner.TupleAt(0)}));
  EXPECT_FALSE(std::binary_search(run.pairs.begin(), run.pairs.end(),
                                  Pair{0, &inner.TupleAt(1)}));
}

TEST(PairJoinTest, CutWindowKeepsPairsThatRoundingSeparates) {
  // Each pair's equality degree computes to d, yet its alpha-cuts at d,
  // computed as a + d * (b - a) and d - d * (d - c), miss each other by
  // rounding (by 1.1e-16 and by 2.3e-10). The widened window keeps both.
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
  for (const auto& [x, y] : kPairs) {
    Relation outer("R", Schema({Column{"K", ValueType::kFuzzy},
                                Column{"N", ValueType::kFuzzy}}));
    Relation inner = outer;
    ASSERT_OK(outer.Append(Tuple({Value::Fuzzy(x), Value::Number(0)}, 1.0)));
    ASSERT_OK(inner.Append(Tuple({Value::Fuzzy(y), Value::Number(0)}, 1.0)));
    const double d = Value::Fuzzy(x).Compare(CompareOp::kEq, Value::Fuzzy(y));
    ASSERT_TRUE(y.AlphaCutEnd(d) < x.AlphaCutBegin(d) ||
                x.AlphaCutEnd(d) < y.AlphaCutBegin(d))
        << x.ToString() << " " << y.ToString();
    const JoinRun run = RunPairJoin(outer, inner, true, ParallelContext{}, d);
    EXPECT_EQ(run.pairs.size(), 1u) << x.ToString() << " " << y.ToString();
  }
}

}  // namespace
}  // namespace fuzzydb
