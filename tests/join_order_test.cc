#include "engine/join_order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "engine/naive_evaluator.h"
#include "engine/unnested_evaluator.h"
#include "test_util.h"
#include "workload/generator.h"

namespace fuzzydb {
namespace {

TEST(JoinOrderPlanTest, SingleLevelTrivial) {
  ChainStats stats;
  stats.cardinality = {100};
  const ChainJoinOrder order = PlanChainJoinOrder(stats);
  EXPECT_EQ(order.levels, std::vector<size_t>({0}));
  EXPECT_DOUBLE_EQ(order.estimated_cost, 0.0);
}

TEST(JoinOrderPlanTest, IntervalSizeEstimate) {
  ChainStats stats;
  stats.cardinality = {10, 20, 30};
  stats.selectivity = {0.5, 0.1};
  EXPECT_DOUBLE_EQ(EstimateIntervalSize(stats, 0, 0), 10);
  EXPECT_DOUBLE_EQ(EstimateIntervalSize(stats, 0, 1), 10 * 20 * 0.5);
  EXPECT_DOUBLE_EQ(EstimateIntervalSize(stats, 1, 2), 20 * 30 * 0.1);
  EXPECT_DOUBLE_EQ(EstimateIntervalSize(stats, 0, 2),
                   10 * 20 * 30 * 0.5 * 0.1);
}

TEST(JoinOrderPlanTest, StartsAtTheSelectiveEnd) {
  // A highly selective link at the inner end: joining 1-2 first produces
  // a tiny intermediate; joining 0-1 first a huge one.
  ChainStats stats;
  stats.cardinality = {1000, 1000, 1000};
  stats.selectivity = {1.0, 1e-5};  // link 0-1 dense, link 1-2 selective
  const ChainJoinOrder order = PlanChainJoinOrder(stats);
  ASSERT_EQ(order.levels.size(), 3u);
  // The first join performed must be across the selective link: the
  // first two levels joined are {1, 2} in some order.
  const size_t a = order.levels[0], b = order.levels[1];
  EXPECT_TRUE((a == 1 && b == 2) || (a == 2 && b == 1))
      << "order: " << a << "," << b << "," << order.levels[2];
}

TEST(JoinOrderPlanTest, CostPrefersCheaperIntermediates) {
  ChainStats dense_first;
  dense_first.cardinality = {100, 100, 100, 100};
  dense_first.selectivity = {0.5, 0.01, 0.5};
  const ChainJoinOrder order = PlanChainJoinOrder(dense_first);
  // Optimal: build around the middle selective link first.
  ASSERT_EQ(order.levels.size(), 4u);
  const size_t first = order.levels[0], second = order.levels[1];
  EXPECT_TRUE((first == 1 && second == 2) || (first == 2 && second == 1));
  // Cost equals the DP recomputation.
  EXPECT_GT(order.estimated_cost, 0.0);
}

TEST(JoinOrderPlanTest, OrderIsAlwaysContiguous) {
  for (double s01 : {1e-4, 0.5, 1.0}) {
    for (double s12 : {1e-4, 0.5, 1.0}) {
      for (double s23 : {1e-4, 0.5, 1.0}) {
        ChainStats stats;
        stats.cardinality = {50, 500, 5, 5000};
        stats.selectivity = {s01, s12, s23};
        const ChainJoinOrder order = PlanChainJoinOrder(stats);
        ASSERT_EQ(order.levels.size(), 4u);
        size_t lo = order.levels[0], hi = order.levels[0];
        for (size_t i = 1; i < order.levels.size(); ++i) {
          const size_t level = order.levels[i];
          EXPECT_TRUE(level + 1 == lo || level == hi + 1)
              << "non-contiguous at step " << i;
          lo = std::min(lo, level);
          hi = std::max(hi, level);
        }
        EXPECT_EQ(lo, 0u);
        EXPECT_EQ(hi, 3u);
      }
    }
  }
}

// ---- DP vs exhaustive enumeration of contiguous-extension orders ----

// Recomputes the DP's objective for one explicit order: the sum of the
// estimated sizes of every intermediate interval of span >= 2, including
// the final full interval (which PlanChainJoinOrder also charges; being
// uniform it cannot change the argmin).
double OrderCost(const ChainStats& stats, const std::vector<size_t>& order) {
  double cost = 0.0;
  size_t lo = order[0], hi = order[0];
  for (size_t i = 1; i < order.size(); ++i) {
    lo = std::min(lo, order[i]);
    hi = std::max(hi, order[i]);
    cost += EstimateIntervalSize(stats, lo, hi);
  }
  return cost;
}

// Every contiguous-extension order of K levels, generated by choosing a
// start and then a left/right extension at each of the K-1 steps
// (infeasible directions skipped). K <= 6 keeps this tiny (<= 192).
std::vector<std::vector<size_t>> AllContiguousOrders(size_t k_levels) {
  std::vector<std::vector<size_t>> orders;
  for (size_t start = 0; start < k_levels; ++start) {
    // Bitmask over the K-1 extension steps: bit set = extend right.
    for (size_t mask = 0; mask < (size_t{1} << (k_levels - 1)); ++mask) {
      std::vector<size_t> order = {start};
      size_t lo = start, hi = start;
      bool feasible = true;
      for (size_t step = 0; step < k_levels - 1; ++step) {
        const bool extend_right = (mask >> step) & 1;
        if (extend_right && hi + 1 < k_levels) {
          order.push_back(++hi);
        } else if (!extend_right && lo > 0) {
          order.push_back(--lo);
        } else {
          feasible = false;
          break;
        }
      }
      if (feasible) orders.push_back(std::move(order));
    }
  }
  return orders;
}

TEST(JoinOrderPlanTest, DpMatchesExhaustiveEnumeration) {
  // Deterministic pseudo-random stats: vary sizes and selectivities
  // enough that different K and seeds pick different optima.
  for (size_t k_levels = 2; k_levels <= 6; ++k_levels) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      ChainStats stats;
      uint64_t state = seed * 2654435761u + k_levels;
      auto next = [&state]() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>((state >> 33) % 1000) / 1000.0;
      };
      for (size_t k = 0; k < k_levels; ++k) {
        stats.cardinality.push_back(1.0 + 999.0 * next());
      }
      for (size_t k = 0; k + 1 < k_levels; ++k) {
        stats.selectivity.push_back(0.001 + next());
      }

      double best = std::numeric_limits<double>::infinity();
      for (const std::vector<size_t>& order : AllContiguousOrders(k_levels)) {
        best = std::min(best, OrderCost(stats, order));
      }

      const ChainJoinOrder planned = PlanChainJoinOrder(stats);
      ASSERT_EQ(planned.levels.size(), k_levels);
      // The DP's claimed cost matches its own order's recomputed cost,
      // and no enumerated order beats it.
      EXPECT_NEAR(planned.estimated_cost, OrderCost(stats, planned.levels),
                  1e-6 * std::max(1.0, planned.estimated_cost))
          << "K=" << k_levels << " seed=" << seed;
      EXPECT_LE(planned.estimated_cost,
                best * (1.0 + 1e-12) + 1e-9)
          << "K=" << k_levels << " seed=" << seed;
    }
  }
}

// ---- End-to-end: the planner changes the order, never the answer ----

class ChainOrderEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ChainOrderEquivalenceTest, PlannedAndUnplannedAgree) {
  const uint64_t seed = GetParam();
  Catalog catalog;
  // Skewed sizes so the planner has something to exploit.
  ASSERT_OK(catalog.AddRelation(
      GenerateRandomRelation(seed, "R", 3, 60)));
  ASSERT_OK(catalog.AddRelation(
      GenerateRandomRelation(seed + 1, "S", 2, 8)));
  ASSERT_OK(catalog.AddRelation(
      GenerateRandomRelation(seed + 2, "T3", 2, 60)));

  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(R"sql(
      SELECT R.C0 FROM R WHERE R.C1 IN
        (SELECT S.C0 FROM S WHERE S.C1 = R.C2 AND S.C0 IN
          (SELECT T3.C0 FROM T3 WHERE T3.C1 = S.C1)))sql",
                                                     catalog));
  ASSERT_EQ(Classify(*bound), QueryType::kChain);

  UnnestingEvaluator planned;
  ASSERT_OK_AND_ASSIGN(Relation with_planner, planned.Evaluate(*bound));
  EXPECT_EQ(planned.last_chain_order().size(), 3u);

  // Without cost-based planning the levels join in identity order.
  ExecOptions fixed;
  fixed.cost_based = false;
  UnnestingEvaluator unplanned(fixed);
  ASSERT_OK_AND_ASSIGN(Relation without_planner, unplanned.Evaluate(*bound));
  EXPECT_EQ(unplanned.last_chain_order(),
            std::vector<size_t>({0, 1, 2}));

  EXPECT_TRUE(with_planner.EquivalentTo(without_planner, 1e-12));

  // And both agree with the nested-loop execution semantics.
  NaiveEvaluator naive;
  ASSERT_OK_AND_ASSIGN(Relation expected, naive.Evaluate(*bound));
  EXPECT_TRUE(expected.EquivalentTo(with_planner, 1e-12));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainOrderEquivalenceTest,
                         ::testing::Values(61, 62, 63, 64, 65));

// ---- Cost-based vs legacy plans: bit-identical answers --------------

// The cost-based planner (ExecOptions::cost_based) may pick a different
// join order and different per-step algorithms than the legacy fixed
// rules, and the parallel operators may partition work differently at
// every thread count -- but the answer must be bit-identical in all
// configurations (EquivalentTo with zero tolerance): duplicate
// elimination canonicalizes representatives and min over doubles is
// exact and commutative.
TEST(CostBasedEquivalenceTest, BitIdenticalAcrossModesAndThreads) {
  Catalog catalog;
  ASSERT_OK(catalog.AddRelation(GenerateRandomRelation(91, "R", 3, 60)));
  ASSERT_OK(catalog.AddRelation(GenerateRandomRelation(92, "S", 2, 8)));
  ASSERT_OK(catalog.AddRelation(GenerateRandomRelation(93, "T3", 2, 60)));

  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(R"sql(
      SELECT R.C0 FROM R WHERE R.C1 IN
        (SELECT S.C0 FROM S WHERE S.C1 = R.C2 AND S.C0 IN
          (SELECT T3.C0 FROM T3 WHERE T3.C1 = S.C1)))sql",
                                                     catalog));
  ASSERT_EQ(Classify(*bound), QueryType::kChain);

  Relation reference("empty", Schema{});
  bool have_reference = false;
  for (bool cost_based : {true, false}) {
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      ExecOptions options;
      options.cost_based = cost_based;
      options.num_threads = threads;
      UnnestingEvaluator evaluator(options);
      ASSERT_OK_AND_ASSIGN(Relation answer, evaluator.Evaluate(*bound));
      if (!have_reference) {
        reference = std::move(answer);
        have_reference = true;
      } else {
        EXPECT_TRUE(reference.EquivalentTo(answer, 0.0))
            << "cost_based=" << cost_based << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace fuzzydb
