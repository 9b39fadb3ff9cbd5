// Cross-query cache reuse: cold vs warm execution of a repeated type J
// query through the unnesting evaluator (src/cache/cache_manager.h).
//
// The cache holds whole answers. A cold run does exactly the work of a
// cache-off run and stores its answer; a warm repeat is served from that
// answer and examines nothing. The run repeats at 1, 2, 4, and 8
// threads. Warm answers must be bit-identical to a cache-off evaluation
// at every thread count, and the cache must actually hit -- both are
// hard assertions (including smoke mode).
//
// The 1-thread cold and warm runs go into the JSON report as
// result_cold and result_warm, so their exact counters gate the cold
// run at the query's pairs and degree evaluations and the warm run at 0.
#include "bench_common.h"

#include <algorithm>
#include <thread>

#include "cache/cache_manager.h"
#include "common/stopwatch.h"
#include "engine/unnested_evaluator.h"
#include "sql/binder.h"

namespace {

using namespace fuzzydb;
using namespace fuzzydb::bench;

constexpr const char* kQuery =
    "SELECT R.X FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V = R.U)";

/// Evaluates `query` `reps` times on one engine and returns the last
/// answer. *stats gets the CpuStats of all reps and the fastest rep's
/// wall and CPU seconds.
Result<Relation> Measure(const sql::BoundQuery& query,
                         const ExecOptions& options, int reps,
                         ExecStats* stats) {
  UnnestingEvaluator engine(options, &stats->cpu);
  Relation answer;
  stats->total_seconds = 1e30;
  stats->cpu_seconds = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch wall;
    CpuStopwatch cpu;
    FUZZYDB_ASSIGN_OR_RETURN(answer, engine.Evaluate(query));
    stats->total_seconds =
        std::min(stats->total_seconds, wall.ElapsedSeconds());
    stats->cpu_seconds = std::min(stats->cpu_seconds, cpu.ElapsedSeconds());
  }
  return answer;
}

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("Cache reuse -- cold vs warm repeated type J query",
              "whole-answer caching over the Section 9 workload");
  const std::string json_out = JsonOutPath(argc, argv);
  BenchReport report("cache_reuse");

  WorkloadConfig config;
  config.seed = 9400;
  config.num_r = SmokeRows(32768 / kScaleDown, 512);
  config.num_s = SmokeRows(32768 / kScaleDown, 512);
  config.join_fanout = 7;
  config.partial_membership_fraction = 0.4;

  TypeJDataset dataset = GenerateTypeJDataset(config);
  Catalog catalog;
  (void)catalog.AddRelation(dataset.r);
  (void)catalog.AddRelation(dataset.s);
  auto bound = sql::ParseAndBind(kQuery, catalog);
  if (!bound.ok()) {
    std::fprintf(stderr, "bind failed: %s\n",
                 bound.status().ToString().c_str());
    return 1;
  }

  std::printf("\n|R| = |S| = %zu tuples, hardware_concurrency = %u\n",
              config.num_r, std::thread::hardware_concurrency());
  std::printf("\n%8s | %10s %10s %8s | %12s %12s | %6s\n", "threads",
              "cold(s)", "warm(s)", "speedup", "cold pairs", "warm pairs",
              "equal");

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ExecOptions options;
    options.num_threads = threads;
    ExecStats off;
    auto expected = Measure(**bound, options, 1, &off);
    if (!expected.ok()) return 1;

    CacheManager cache;
    cache.set_capacity_bytes(256ull << 20);
    options.cache = &cache;
    ExecStats cold;
    auto cold_answer = Measure(**bound, options, 1, &cold);
    if (!cold_answer.ok()) return 1;
    ExecStats warm;
    auto warm_answer = Measure(**bound, options, 3, &warm);
    if (!warm_answer.ok()) return 1;

    // Bit-identical, not merely close: the cache must be invisible in
    // the answer at every thread count.
    const bool equal = expected->EquivalentTo(*cold_answer, 0.0) &&
                       expected->EquivalentTo(*warm_answer, 0.0);
    const double speedup =
        cold.total_seconds / std::max(warm.total_seconds, 1e-9);
    std::printf("%8zu | %10s %10s %8s | %12llu %12llu | %6s\n", threads,
                Seconds(cold.total_seconds).c_str(),
                Seconds(warm.total_seconds).c_str(), Ratio(speedup).c_str(),
                static_cast<unsigned long long>(cold.cpu.tuple_pairs),
                static_cast<unsigned long long>(warm.cpu.tuple_pairs),
                equal ? "yes" : "NO!");
    std::printf(
        "{\"bench\":\"cache_reuse_mem\",\"threads\":%zu,"
        "\"cold_seconds\":%.6f,\"warm_seconds\":%.6f,\"speedup\":%.3f}\n",
        threads, cold.total_seconds, warm.total_seconds, speedup);
    std::fflush(stdout);
    if (!equal) {
      std::fprintf(stderr, "FAIL: cached answers diverged at %zu threads\n",
                   threads);
      return 1;
    }
    if (cache.stats().hits == 0) {
      std::fprintf(stderr, "FAIL: warm runs never hit the cache at %zu "
                           "threads\n",
                   threads);
      return 1;
    }
    if (threads == 1) {
      report.Add("result_cold", cold);
      report.Add("result_warm", warm);
    }
  }

  if (!json_out.empty() && !report.Write(json_out)) return 1;

  std::printf(
      "\nExpected shape: a cold run pays the query's pairs and degree\n"
      "evaluations; every warm repeat is served from the cached answer\n"
      "and examines none.\n");
  return 0;
}
