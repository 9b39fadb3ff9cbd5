// Property tests for the batch satisfaction-degree kernels: every
// batch kernel must return bit-identical doubles to its scalar
// counterpart, for every comparator, every operand shape, and every
// trapezoid family (random, crisp, zero-width cores, vertical edges,
// shared corners). This is the contract that lets the engine switch
// between the scalar and batch paths without changing any query
// result (see docs/architecture.md, "Batch execution").

#include "fuzzy/degree_batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fuzzy/degree.h"
#include "fuzzy/trapezoid_batch.h"

namespace fuzzydb {
namespace {

constexpr double kApproxTolerance = 25.0;

/// Bitwise equality: distinguishes +0.0 / -0.0 and would catch any
/// reassociated arithmetic, which plain == would let through for NaN
/// or for equal-but-differently-computed values it can't distinguish.
bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

/// Draws one trapezoid from a mix of shape families so the sweep hits
/// the kernels' edge cases, not just generic sorted corners:
/// crisp points, intervals, zero-width cores, vertical edges, and
/// corners shared with a previously drawn trapezoid.
Trapezoid RandomTrapezoid(Rng& rng, const std::vector<Trapezoid>& prior) {
  const int family = static_cast<int>(rng.UniformInt(0, 7));
  switch (family) {
    case 0:  // crisp point
      return Trapezoid::Crisp(rng.UniformDouble(0.0, 1000.0));
    case 1: {  // rectangular interval (both edges vertical)
      const double lo = rng.UniformDouble(0.0, 1000.0);
      return Trapezoid::Interval(lo, lo + rng.UniformDouble(0.0, 100.0));
    }
    case 2: {  // triangle (zero-width core)
      const double peak = rng.UniformDouble(0.0, 1000.0);
      return Trapezoid::Triangle(peak - rng.UniformDouble(0.0, 50.0), peak,
                                 peak + rng.UniformDouble(0.0, 50.0));
    }
    case 3: {  // one vertical edge
      const double a = rng.UniformDouble(0.0, 1000.0);
      const double c = a + rng.UniformDouble(0.0, 50.0);
      const double d = c + rng.UniformDouble(0.0, 50.0);
      return rng.Bernoulli(0.5) ? Trapezoid(a, a, c, d)
                                : Trapezoid(a, c, d, d);
    }
    case 4: {  // corners shared with an earlier trapezoid
      if (!prior.empty()) {
        const Trapezoid& t = prior[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(prior.size()) - 1))];
        const double shift = rng.Bernoulli(0.5) ? 0.0 : t.d() - t.a();
        return Trapezoid(t.a() + shift, t.b() + shift, t.c() + shift,
                         t.d() + shift);
      }
      break;
    }
    default:
      break;
  }
  // Generic sorted corners.
  double v[4];
  for (double& x : v) x = rng.UniformDouble(0.0, 1000.0);
  std::sort(v, v + 4);
  return Trapezoid(v[0], v[1], v[2], v[3]);
}

struct PairSweep {
  std::vector<Trapezoid> xs;
  std::vector<Trapezoid> ys;
};

PairSweep MakeSweep(size_t pairs, uint64_t seed) {
  Rng rng(seed);
  PairSweep s;
  s.xs.reserve(pairs);
  s.ys.reserve(pairs);
  for (size_t i = 0; i < pairs; ++i) {
    s.xs.push_back(RandomTrapezoid(rng, s.xs));
    s.ys.push_back(RandomTrapezoid(rng, s.xs));
  }
  return s;
}

constexpr CompareOp kAllOps[] = {
    CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,      CompareOp::kLe,
    CompareOp::kGt, CompareOp::kGe, CompareOp::kApproxEq};

// Runs the sweep through all three operand shapes of
// BatchSatisfactionDegree in chunks of `batch` lanes and compares each
// lane bitwise against the scalar SatisfactionDegree.
void CheckOp(const PairSweep& s, CompareOp op, size_t batch) {
  TrapezoidBatch xs, ys;
  std::vector<double> out(batch);
  size_t checked = 0;
  for (size_t base = 0; base < s.xs.size(); base += batch) {
    const size_t n = std::min(batch, s.xs.size() - base);
    xs.Clear();
    ys.Clear();
    for (size_t i = 0; i < n; ++i) {
      xs.PushBack(s.xs[base + i]);
      ys.PushBack(s.ys[base + i]);
    }

    // batch-vs-batch
    BatchSatisfactionDegree(xs, op, ys, kApproxTolerance, out.data());
    for (size_t i = 0; i < n; ++i) {
      const double scalar = SatisfactionDegree(s.xs[base + i], op,
                                               s.ys[base + i], kApproxTolerance);
      ASSERT_TRUE(SameBits(out[i], scalar))
          << CompareOpName(op) << " lane " << base + i << ": batch=" << out[i]
          << " scalar=" << scalar;
      ++checked;
    }

    // batch-vs-scalar: every lane of xs against one probe y.
    const Trapezoid& probe = s.ys[base];
    BatchSatisfactionDegree(xs, op, probe, kApproxTolerance, out.data());
    for (size_t i = 0; i < n; ++i) {
      const double scalar =
          SatisfactionDegree(s.xs[base + i], op, probe, kApproxTolerance);
      ASSERT_TRUE(SameBits(out[i], scalar))
          << CompareOpName(op) << " (batch,scalar) lane " << base + i;
    }

    // scalar-vs-batch: one probe x against every lane of ys.
    const Trapezoid& left = s.xs[base];
    BatchSatisfactionDegree(left, op, ys, kApproxTolerance, out.data());
    for (size_t i = 0; i < n; ++i) {
      const double scalar =
          SatisfactionDegree(left, op, s.ys[base + i], kApproxTolerance);
      ASSERT_TRUE(SameBits(out[i], scalar))
          << CompareOpName(op) << " (scalar,batch) lane " << base + i;
    }
  }
  EXPECT_EQ(checked, s.xs.size());
}

TEST(DegreeBatchTest, TenThousandSeededPairsBitIdentical) {
  const PairSweep sweep = MakeSweep(10000, 0x5eedu);
  for (CompareOp op : kAllOps) {
    CheckOp(sweep, op, TrapezoidBatch::kCapacity);
  }
}

TEST(DegreeBatchTest, RaggedBatchSizesBitIdentical) {
  // Partial and single-lane batches exercise the selection-vector tail
  // handling (batch sizes that never divide the sweep).
  const PairSweep sweep = MakeSweep(1000, 0xfeedu);
  for (CompareOp op : kAllOps) {
    CheckOp(sweep, op, 1);
    CheckOp(sweep, op, 7);
    CheckOp(sweep, op, 64);
  }
}

TEST(DegreeBatchTest, OrderedSupportFastPathsMatchSlowSweep) {
  // Hand-picked pairs that land exactly on the batch kernels' fast-path
  // boundaries: disjoint, touching (xd == ya), nested, and shared-edge
  // supports, plus crisp-vs-fuzzy mixes on both sides.
  const std::vector<std::pair<Trapezoid, Trapezoid>> pairs = {
      {Trapezoid(0, 1, 2, 3), Trapezoid(5, 6, 7, 8)},    // disjoint
      {Trapezoid(5, 6, 7, 8), Trapezoid(0, 1, 2, 3)},    // disjoint, swapped
      {Trapezoid(0, 1, 2, 3), Trapezoid(3, 4, 5, 6)},    // touching supports
      {Trapezoid(0, 1, 2, 3), Trapezoid(2, 2, 4, 4)},    // overlap, vertical
      {Trapezoid(0, 0, 3, 3), Trapezoid(1, 1, 2, 2)},    // nested intervals
      {Trapezoid::Crisp(2), Trapezoid(0, 1, 3, 4)},      // crisp in core
      {Trapezoid::Crisp(2), Trapezoid::Crisp(2)},        // equal crisp
      {Trapezoid::Crisp(2), Trapezoid::Crisp(3)},        // ordered crisp
      {Trapezoid(0, 1, 1, 2), Trapezoid(1, 1, 1, 2)},    // shared corner
      {Trapezoid(0, 2, 2, 4), Trapezoid(2, 2, 2, 2)},    // crisp at peak
  };
  TrapezoidBatch xs, ys;
  for (const auto& [x, y] : pairs) {
    xs.PushBack(x);
    ys.PushBack(y);
  }
  double out[TrapezoidBatch::kCapacity];
  for (CompareOp op : kAllOps) {
    BatchSatisfactionDegree(xs, op, ys, kApproxTolerance, out);
    for (size_t i = 0; i < pairs.size(); ++i) {
      const double scalar = SatisfactionDegree(pairs[i].first, op,
                                               pairs[i].second, kApproxTolerance);
      ASSERT_TRUE(SameBits(out[i], scalar))
          << CompareOpName(op) << " pair " << i;
    }
  }
}

TEST(TrapezoidBatchTest, PushBackAndAt) {
  TrapezoidBatch batch;
  const Trapezoid t(1, 2, 3, 4);
  for (int i = 0; i < 17; ++i) batch.PushBack(t);
  ASSERT_EQ(batch.size(), 17u);
  for (size_t i = 0; i < batch.size(); ++i) EXPECT_EQ(batch.At(i), t);
  batch.Clear();
  EXPECT_TRUE(batch.empty());
}

}  // namespace
}  // namespace fuzzydb
