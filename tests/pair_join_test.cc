// PairJoin, the engine's one in-memory join, against brute force. Keyed
// and unkeyed, over seeded inputs whose key supports tie often and reach
// +-inf, at morsel sizes 16 and 2048, 1 and 4 threads, and batch sizes
// 1, 7 and 1024. The pairs handed to the sink are the brute-force ones,
// every batch keeps the batching contract of PairBatch, and the
// counters do not depend on the thread count.
#include "engine/pair_join.h"

#include <gtest/gtest.h>

#include <algorithm>
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

SupportBounds KeyBounds(const Tuple& t) {
  const Trapezoid& key = t.ValueAt(0).AsFuzzy();
  return SupportBounds{key.SupportBegin(), key.SupportEnd()};
}

using Pair = std::pair<size_t, const Tuple*>;  // outer row, inner tuple

/// Definition 3.2's Rng(r) membership, from the bounds alone: s is not
/// wholly after r, and the sorted scan has not retired everything up to
/// s -- some s' no later than s in the interval order reaches b(r).
/// (Rng(r) can hold a short support wholly before r that sorts after a
/// long one reaching r; such a pair folds to degree 0.)
std::vector<Pair> BruteForce(const Relation& outer, const Relation& inner,
                             bool keyed) {
  std::vector<Pair> pairs;
  for (size_t r = 0; r < outer.NumTuples(); ++r) {
    const SupportBounds rb = KeyBounds(outer.TupleAt(r));
    for (const Tuple& s : inner.tuples()) {
      const SupportBounds sb = KeyBounds(s);
      bool in_window = !keyed;
      if (keyed && sb.begin <= rb.end) {
        for (const Tuple& t : inner.tuples()) {
          const SupportBounds tb = KeyBounds(t);
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
                bool keyed, const ParallelContext& ctx) {
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
      records.push_back({KeyBounds(*outer[r].tuple), r});
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
  const PairKey key{0, 0};
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
        const SupportBounds rb = KeyBounds(outer.TupleAt(r));
        for (const Tuple& s : inner.tuples()) {
          const SupportBounds sb = KeyBounds(s);
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

}  // namespace
}  // namespace fuzzydb
