// Ablation: WITH-threshold pushdown into the merge-join ([42]).
//
// The paper points to Zhang & Wang's follow-up ("A further optimization
// of the merge-join is presented in [42]", using fuzzy equality
// indicators). This bench quantifies our implementation of that idea on
// both engines that run a type J query. With WITH D >= z:
//
//  - the heap-file merge-join (RunTypeJMergeJoin) runs its window on
//    the z-cuts of the join values instead of their supports;
//  - the in-memory unnesting engine, which runs all SQL, also drops
//    outer and inner tuples below z in its filters before the same
//    z-cut window.
//
// So higher thresholds examine fewer pairs and evaluate fewer fuzzy
// predicates. Every thresholded answer must equal the z = 0 answer
// re-thresholded; the bench exits 1 when one does not.
#include <optional>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "engine/unnested_evaluator.h"
#include "sql/binder.h"

int main() {
  using namespace fuzzydb;
  using namespace fuzzydb::bench;

  BufferPool::SetDefaultSimulatedLatencyUs(SimulatedLatencyUs());
  PrintHeader("Ablation -- WITH-threshold pushdown via alpha-cut windows",
              "Zhang & Wang [42] (cited in Section 1 of the paper)");

  const size_t tuples = SmokeRows(16384, 512);
  WorkloadConfig config;
  config.seed = 9100;
  config.num_r = tuples;
  config.num_s = tuples;
  config.join_fanout = 16;
  config.fuzzy_fraction = 1.0;
  config.partial_membership_fraction = 0.5;
  auto files = MakeDatasetFiles(config, 128, "th");
  if (!files.ok()) return 1;
  // The same relations, in memory, for the engine SQL runs on.
  TypeJDataset dataset = GenerateTypeJDataset(config);
  Catalog catalog;
  if (!catalog.AddRelation(dataset.r).ok() ||
      !catalog.AddRelation(dataset.s).ok()) {
    return 1;
  }

  std::printf("\n%9s | %-9s | %10s %12s %14s | %8s %6s\n", "threshold",
              "engine", "resp(s)", "pairs", "degree-evals", "answers",
              "equal");
  std::optional<Relation> file_base;
  std::optional<Relation> engine_base;
  bool all_equal = true;
  // Each answer against the threshold-0 answer of its engine, thresholded.
  const auto matches = [](const std::optional<Relation>& base,
                          const Relation& answer, double threshold) {
    Relation expected = *base;
    expected.ApplyThreshold(threshold);
    return expected.EquivalentTo(answer, 0.0);
  };
  for (double threshold : {0.0, 0.2, 0.4, 0.6, 0.8, 0.95}) {
    TypeJQuerySpec spec;
    spec.threshold = threshold;
    auto merged = RunTypeJMergeJoin(files->r.get(), files->s.get(), spec,
                                    kBufferPages,
                                    BenchDir() + "/fuzzydb_bench_th", 128);
    if (!merged.ok()) {
      std::fprintf(stderr, "%s\n", merged.status().ToString().c_str());
      return 1;
    }
    if (!file_base.has_value()) file_base = merged->answer;
    const bool file_equal = matches(file_base, merged->answer, threshold);
    std::printf("%9.2f | %-9s | %10s %12llu %14llu | %8zu %6s\n", threshold,
                "file", Seconds(merged->stats.total_seconds).c_str(),
                static_cast<unsigned long long>(merged->stats.cpu.tuple_pairs),
                static_cast<unsigned long long>(
                    merged->stats.cpu.degree_evaluations),
                merged->answer.NumTuples(), file_equal ? "yes" : "NO!");

    char query[160];
    std::snprintf(query, sizeof(query),
                  "SELECT R.X FROM R WHERE R.Y IN "
                  "(SELECT S.Z FROM S WHERE S.V = R.U) WITH D >= %.2f",
                  threshold);
    auto bound = sql::ParseAndBind(query, catalog);
    if (!bound.ok()) {
      std::fprintf(stderr, "%s\n", bound.status().ToString().c_str());
      return 1;
    }
    CpuStats cpu;
    UnnestingEvaluator engine(&cpu);
    Stopwatch watch;
    auto answer = engine.Evaluate(**bound);
    const double seconds = watch.ElapsedSeconds();
    if (!answer.ok()) {
      std::fprintf(stderr, "%s\n", answer.status().ToString().c_str());
      return 1;
    }
    if (!engine_base.has_value()) engine_base = *answer;
    const bool engine_equal = matches(engine_base, *answer, threshold) &&
                              answer->EquivalentTo(merged->answer, 0.0);
    std::printf("%9s | %-9s | %10s %12llu %14llu | %8zu %6s\n", "",
                "unnesting", Seconds(seconds).c_str(),
                static_cast<unsigned long long>(cpu.tuple_pairs),
                static_cast<unsigned long long>(cpu.degree_evaluations),
                answer->NumTuples(), engine_equal ? "yes" : "NO!");
    std::fflush(stdout);
    all_equal = all_equal && file_equal && engine_equal;
  }

  std::printf(
      "\nExpected shape: the examined-pair and degree-evaluation counts\n"
      "shrink monotonically as the threshold rises (the z-cut windows\n"
      "tighten, and the unnesting engine's filters drop sub-z tuples\n"
      "first), while the file join's I/O-dominated response time moves\n"
      "little -- the CPU-side saving [42] reports. `equal` compares each\n"
      "answer with its engine's threshold-0 answer, re-thresholded (and\n"
      "the engine's with the file join's).\n");
  return all_equal ? 0 : 1;
}
