// Planner quality: fixed-rule vs cost-based physical plans on chain
// queries (src/engine/cost_model.h, src/stats/column_stats.h).
//
// Section 8 of the paper determines the join order of a chain query by
// minimizing estimated intermediate sizes. The fixed path joins the
// levels in identity order and always merge-joins where legal; the
// cost-based path (ExecOptions::cost_based) orders them by the DP over
// histogram estimates and picks the per-step algorithm by cost.
// This bench runs chains of K = 2, 3, 4 levels both ways and reports
//
//   - wall time and the examined tuple pairs (the intermediate-size
//     proxy the DP minimizes) per mode, and
//   - the cost-based runs' estimate quality as per-span q-error.
//
// Either mode must produce the *bit-identical* answer: the plan may only
// change the work, never the result. That is a hard assertion, not a
// report field.
#include "bench_common.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "engine/unnested_evaluator.h"
#include "sql/binder.h"

namespace {

using namespace fuzzydb;
using namespace fuzzydb::bench;

struct ChainCase {
  size_t k_levels;
  const char* sql;
};

// Chains over A(C0,C1,C2) and B2/C3/D4(C0,C1): adjacent levels link on
// C0/C1 with a correlation to the level above, the shape Section 8
// evaluates. Deliberately skewed level sizes give the planner real
// choices.
constexpr ChainCase kCases[] = {
    {2,
     "SELECT A.C0 FROM A WHERE A.C1 IN "
     "(SELECT B2.C0 FROM B2 WHERE B2.C1 = A.C2)"},
    {3,
     "SELECT A.C0 FROM A WHERE A.C1 IN "
     "(SELECT B2.C0 FROM B2 WHERE B2.C1 = A.C2 AND B2.C0 IN "
     "(SELECT C3.C0 FROM C3 WHERE C3.C1 = B2.C1))"},
    {4,
     "SELECT A.C0 FROM A WHERE A.C1 IN "
     "(SELECT B2.C0 FROM B2 WHERE B2.C1 = A.C2 AND B2.C0 IN "
     "(SELECT C3.C0 FROM C3 WHERE C3.C1 = B2.C1 AND C3.C0 IN "
     "(SELECT D4.C0 FROM D4 WHERE D4.C1 = C3.C1)))"},
};

// Per-span q-errors of one traced run: max(est, act) / min(est, act)
// with both sides floored at 1, over the spans that carry an estimate.
std::vector<double> CollectQErrors(const ExecTrace& trace) {
  std::vector<double> q_errors;
  for (const TraceNode& node : trace.nodes()) {
    if (node.est_rows == TraceNode::kNoCount ||
        node.output_rows == TraceNode::kNoCount) {
      continue;
    }
    const double est =
        static_cast<double>(std::max<uint64_t>(node.est_rows, 1));
    const double act =
        static_cast<double>(std::max<uint64_t>(node.output_rows, 1));
    q_errors.push_back(std::max(est / act, act / est));
  }
  return q_errors;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("Planner quality -- fixed-rule vs cost-based chain plans",
              "Section 8 join-order and join-method selection, estimated "
              "from column statistics, against the identity order");
  const std::string json_out = JsonOutPath(argc, argv);
  BenchReport report("planner");

  // Skewed level sizes (the planner's opportunity): wide outer chain
  // ends, narrow middles. The value domain is wide relative to support
  // widths so link selectivities stay small and a K = 4 chain's
  // intermediates stay bounded -- the generator's default 0..20 domain
  // gives ~0.3 per-link selectivity, which at these cardinalities
  // produces tens of millions of intermediate tuples.
  Catalog catalog;
  const size_t wide = SmokeRows(240, 48);
  const size_t narrow = SmokeRows(40, 12);
  constexpr double kDomainHi = 200.0;
  if (!catalog.AddRelation(
          GenerateRandomRelation(71, "A", 3, wide, 0.0, kDomainHi)).ok() ||
      !catalog.AddRelation(
          GenerateRandomRelation(72, "B2", 2, narrow, 0.0, kDomainHi)).ok() ||
      !catalog.AddRelation(
          GenerateRandomRelation(73, "C3", 2, wide, 0.0, kDomainHi)).ok() ||
      !catalog.AddRelation(
          GenerateRandomRelation(74, "D4", 2, narrow, 0.0, kDomainHi)).ok()) {
    std::fprintf(stderr, "catalog setup failed\n");
    return 1;
  }

  std::printf("\n|A| = |C3| = %zu, |B2| = |D4| = %zu tuples in memory\n",
              wide, narrow);
  std::printf("\n%3s %8s | %10s %12s | %8s %8s | %6s\n", "K", "mode",
              "wall(s)", "tuple_pairs", "q_p50", "q_max", "equal");

  for (const ChainCase& chain : kCases) {
    auto bound = sql::ParseAndBind(chain.sql, catalog);
    if (!bound.ok()) {
      std::fprintf(stderr, "bind failed (K=%zu): %s\n", chain.k_levels,
                   bound.status().ToString().c_str());
      return 1;
    }
    // K = 2 is the paper's type J (one nesting level); K >= 3 is CHAIN.
    if (chain.k_levels >= 3 && Classify(**bound) != QueryType::kChain) {
      std::fprintf(stderr, "K=%zu query did not classify as CHAIN\n",
                   chain.k_levels);
      return 1;
    }

    Relation reference;
    bool have_reference = false;
    for (const bool cost_based : {true, false}) {
      ExecTrace trace;
      ExecOptions options;
      options.num_threads = 1;
      options.cost_based = cost_based;
      options.trace = &trace;
      CpuStats cpu;  // counters only tick with an external accumulator
      UnnestingEvaluator evaluator(options, &cpu);

      Stopwatch watch;
      auto answer = evaluator.Evaluate(**bound);
      const double seconds = watch.ElapsedSeconds();
      if (!answer.ok()) {
        std::fprintf(stderr, "K=%zu %s run failed: %s\n", chain.k_levels,
                     cost_based ? "cbo" : "fixed",
                     answer.status().ToString().c_str());
        return 1;
      }

      bool equal = true;
      if (!have_reference) {
        reference = *std::move(answer);
        have_reference = true;
      } else {
        // The load-bearing claim: plans choose work, never answers.
        equal = reference.EquivalentTo(*answer, 0.0);
      }

      const std::vector<double> q_errors = CollectQErrors(trace);
      const double q_p50 = Median(q_errors);
      double q_max = 0.0;
      for (double q : q_errors) q_max = std::max(q_max, q);

      ExecStats stats;
      stats.cpu = cpu;
      stats.total_seconds = seconds;
      const char* mode = cost_based ? "cbo" : "fixed";
      std::printf("%3zu %8s | %10s %12llu | %8.2f %8.2f | %6s\n",
                  chain.k_levels, mode, Seconds(seconds).c_str(),
                  static_cast<unsigned long long>(stats.cpu.tuple_pairs),
                  q_p50, q_max, equal ? "yes" : "NO!");
      std::printf(
          "{\"bench\":\"planner_quality\",\"k\":%zu,\"mode\":\"%s\","
          "\"seconds\":%.6f,\"tuple_pairs\":%llu,"
          "\"plan_q_error_p50\":%.3f,\"plan_q_error_max\":%.3f}\n",
          chain.k_levels, mode, seconds,
          static_cast<unsigned long long>(stats.cpu.tuple_pairs), q_p50,
          q_max);
      std::fflush(stdout);
      report.Add("k=" + std::to_string(chain.k_levels) + "_" + mode, stats);
      if (!equal) {
        std::fprintf(stderr,
                     "FAIL: K=%zu answers diverged between plan modes\n",
                     chain.k_levels);
        return 1;
      }
    }
  }

  if (!json_out.empty() && !report.Write(json_out)) return 1;

  std::printf(
      "\nExpected shape: both modes return bit-identical answers at every\n"
      "K; the cost-based plans examine no more tuple pairs than the\n"
      "identity order and keep per-span q-error near 1 on these\n"
      "workloads.\n");
  return 0;
}
