// Microbenchmarks of the fuzzy kernel (google-benchmark): the satisfaction
// degrees and the interval-order comparisons are the inner loop of every
// query, so their cost dominates the CPU side of the paper's experiments.
//
// Two modes:
//   bench_micro_kernel                 google-benchmark timings, scalar
//                                      and batch kernels side by side
//   bench_micro_kernel --json-out=P    deterministic BENCH_kernel.json
//                                      report for tools/bench_check.py
//                                      (exact degree_evaluations counters
//                                      plus ratio-tolerant wall times)
//
// The scalar/batch comparisons run per input family, because the two
// paths share the exact-sweep arithmetic (bit-identity by construction)
// and only the flat fast-path phase vectorizes: narrow, crisp, and
// degenerate shapes resolve almost every lane in the fast path (the
// realistic regimes -- linguistic terms are narrow relative to their
// domain), while the wide family forces the shared exact sweep and
// batches only save call overhead.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "engine/exec_stats.h"
#include "fuzzy/arithmetic.h"
#include "fuzzy/degree.h"
#include "fuzzy/degree_batch.h"
#include "fuzzy/interval_order.h"
#include "fuzzy/trapezoid_batch.h"

namespace fuzzydb {
namespace {

// Wide shapes: four sorted uniforms over the whole domain, so supports
// overlap heavily and the exact candidate sweep dominates. This is the
// adversarial regime for the batch fast paths.
std::vector<Trapezoid> RandomValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Trapezoid> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double c[4];
    for (double& v : c) v = rng.UniformDouble(0, 1000);
    std::sort(c, c + 4);
    values.emplace_back(c[0], c[1], c[2], c[3]);
  }
  return values;
}

/// Narrow shapes: supports a few units wide on a 1000-unit domain, the
/// shape of real linguistic terms ("about 30"); most pairs resolve in
/// the support-disjoint fast path.
std::vector<Trapezoid> NarrowValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Trapezoid> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.UniformDouble(0, 1000);
    const double b = a + rng.UniformDouble(0, 5);
    const double c = b + rng.UniformDouble(0, 10);
    values.emplace_back(a, b, c, c + rng.UniformDouble(0, 5));
  }
  return values;
}

/// Crisp points: the kernels' all-lanes-fast-path regime.
std::vector<Trapezoid> CrispValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Trapezoid> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    values.push_back(Trapezoid::Crisp(rng.UniformDouble(0, 1000)));
  }
  return values;
}

/// Degenerate shapes: zero-width cores (triangles) and shared edges,
/// which exercise the vertical-edge corrections of the lane functions.
std::vector<Trapezoid> DegenerateValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Trapezoid> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.UniformDouble(0, 1000);
    const double b = a + rng.UniformDouble(0, 5);
    if (i % 2 == 0) {
      values.emplace_back(a, b, b, b + rng.UniformDouble(0, 5));  // triangle
    } else {
      values.emplace_back(a, a, b, b);  // vertical edges
    }
  }
  return values;
}

enum Family : int64_t { kNarrow = 0, kWide = 1, kCrisp = 2, kDegenerate = 3 };

const std::vector<Trapezoid>& FamilyValues(int64_t family) {
  static const std::vector<Trapezoid> narrow = NarrowValues(4096, 31);
  static const std::vector<Trapezoid> wide = RandomValues(4096, 32);
  static const std::vector<Trapezoid> crisp = CrispValues(4096, 33);
  static const std::vector<Trapezoid> degenerate = DegenerateValues(4096, 34);
  switch (family) {
    case kWide:
      return wide;
    case kCrisp:
      return crisp;
    case kDegenerate:
      return degenerate;
    default:
      return narrow;
  }
}

// ------------------- scalar call-at-a-time kernels -------------------

void BM_EqualityDegree(benchmark::State& state) {
  const auto values = RandomValues(1024, 1);
  size_t i = 0;
  for (auto _ : state) {
    const auto& x = values[i % values.size()];
    const auto& y = values[(i * 7 + 3) % values.size()];
    benchmark::DoNotOptimize(EqualityDegree(x, y));
    ++i;
  }
}
BENCHMARK(BM_EqualityDegree);

void BM_LessEqualDegree(benchmark::State& state) {
  const auto values = RandomValues(1024, 2);
  size_t i = 0;
  for (auto _ : state) {
    const auto& x = values[i % values.size()];
    const auto& y = values[(i * 5 + 1) % values.size()];
    benchmark::DoNotOptimize(LessEqualDegree(x, y));
    ++i;
  }
}
BENCHMARK(BM_LessEqualDegree);

void BM_ApproxEqualDegree(benchmark::State& state) {
  const auto values = RandomValues(1024, 3);
  size_t i = 0;
  for (auto _ : state) {
    const auto& x = values[i % values.size()];
    const auto& y = values[(i * 11 + 5) % values.size()];
    benchmark::DoNotOptimize(ApproxEqualDegree(x, y, 10.0));
    ++i;
  }
}
BENCHMARK(BM_ApproxEqualDegree);

void BM_IntervalOrderCompare(benchmark::State& state) {
  const auto values = RandomValues(1024, 4);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompareIntervalOrder(
        values[i % values.size()], values[(i + 1) % values.size()]));
    ++i;
  }
}
BENCHMARK(BM_IntervalOrderCompare);

void BM_FuzzyAdd(benchmark::State& state) {
  const auto values = RandomValues(1024, 5);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(FuzzyAdd(values[i % values.size()],
                                      values[(i + 13) % values.size()]));
    ++i;
  }
}
BENCHMARK(BM_FuzzyAdd);

void BM_CrispVsFuzzyEquality(benchmark::State& state) {
  // The CPU-cost asymmetry the paper cites: fuzzy predicates cost more
  // than crisp ones.
  const Trapezoid crisp_a = Trapezoid::Crisp(10), crisp_b = Trapezoid::Crisp(11);
  const Trapezoid fuzzy_a(8, 9, 11, 12), fuzzy_b(10, 11, 13, 14);
  const bool fuzzy = state.range(0) != 0;
  for (auto _ : state) {
    if (fuzzy) {
      benchmark::DoNotOptimize(EqualityDegree(fuzzy_a, fuzzy_b));
    } else {
      benchmark::DoNotOptimize(EqualityDegree(crisp_a, crisp_b));
    }
  }
}
BENCHMARK(BM_CrispVsFuzzyEquality)->Arg(0)->Arg(1);

// ------------------ batch-vs-scalar sweep kernels --------------------
//
// Args are {family, lanes}. Both sides go through their dispatch entry
// point: the scalar sweeps call SatisfactionDegree -- the per-pair
// dispatcher Value::Compare reaches -- once
// per pair over the same values the batch sweeps hand to
// BatchSatisfactionDegree in one call, so the items_per_second columns
// compare exactly what the batched operators replace (both count
// lanes).

template <typename ScalarFn>
void ScalarSweepImpl(benchmark::State& state, ScalarFn f) {
  const auto& values = FamilyValues(state.range(0));
  const size_t lanes = static_cast<size_t>(state.range(1));
  const Trapezoid probe = values[7];
  double sum = 0.0;
  for (auto _ : state) {
    for (size_t i = 0; i < lanes; ++i) sum += f(values[i], probe);
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(lanes));
}

template <typename BatchFn>
void BatchSweepImpl(benchmark::State& state, BatchFn f) {
  const auto& values = FamilyValues(state.range(0));
  const size_t lanes = static_cast<size_t>(state.range(1));
  const Trapezoid probe = values[7];
  TrapezoidBatch batch;
  for (size_t i = 0; i < lanes; ++i) batch.PushBack(values[i]);
  for (auto _ : state) {
    f(batch, probe, batch.degrees());
    benchmark::DoNotOptimize(batch.degrees()[0]);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(lanes));
}

void BM_ScalarEqualitySweep(benchmark::State& state) {
  ScalarSweepImpl(state, [](const Trapezoid& x, const Trapezoid& y) {
    return SatisfactionDegree(x, CompareOp::kEq, y, 1.0);
  });
}
void BM_BatchEqualitySweep(benchmark::State& state) {
  BatchSweepImpl(state,
                 [](const TrapezoidBatch& xs, const Trapezoid& y, double* out) {
                   BatchSatisfactionDegree(xs, CompareOp::kEq, y, 1.0, out);
                 });
}
BENCHMARK(BM_ScalarEqualitySweep)
    ->ArgNames({"family", "lanes"})
    ->Args({kNarrow, 1024})
    ->Args({kWide, 1024})
    ->Args({kCrisp, 1024})
    ->Args({kDegenerate, 1024});
BENCHMARK(BM_BatchEqualitySweep)
    ->ArgNames({"family", "lanes"})
    ->Args({kNarrow, 64})
    ->Args({kNarrow, 256})
    ->Args({kNarrow, 1024})
    ->Args({kWide, 1024})
    ->Args({kCrisp, 64})
    ->Args({kCrisp, 256})
    ->Args({kCrisp, 1024})
    ->Args({kDegenerate, 64})
    ->Args({kDegenerate, 256})
    ->Args({kDegenerate, 1024});

void BM_ScalarLessSweep(benchmark::State& state) {
  ScalarSweepImpl(state, [](const Trapezoid& x, const Trapezoid& y) {
    return SatisfactionDegree(x, CompareOp::kLt, y, 1.0);
  });
}
void BM_BatchLessSweep(benchmark::State& state) {
  BatchSweepImpl(state,
                 [](const TrapezoidBatch& xs, const Trapezoid& y, double* out) {
                   BatchSatisfactionDegree(xs, CompareOp::kLt, y, 1.0, out);
                 });
}
BENCHMARK(BM_ScalarLessSweep)
    ->ArgNames({"family", "lanes"})
    ->Args({kNarrow, 1024})
    ->Args({kCrisp, 1024});
BENCHMARK(BM_BatchLessSweep)
    ->ArgNames({"family", "lanes"})
    ->Args({kNarrow, 64})
    ->Args({kNarrow, 256})
    ->Args({kNarrow, 1024})
    ->Args({kCrisp, 1024});

void BM_ScalarLessEqualSweep(benchmark::State& state) {
  ScalarSweepImpl(state, [](const Trapezoid& x, const Trapezoid& y) {
    return SatisfactionDegree(x, CompareOp::kLe, y, 1.0);
  });
}
void BM_BatchLessEqualSweep(benchmark::State& state) {
  BatchSweepImpl(state,
                 [](const TrapezoidBatch& xs, const Trapezoid& y, double* out) {
                   BatchSatisfactionDegree(xs, CompareOp::kLe, y, 1.0, out);
                 });
}
BENCHMARK(BM_ScalarLessEqualSweep)
    ->ArgNames({"family", "lanes"})
    ->Args({kNarrow, 1024})
    ->Args({kCrisp, 1024});
BENCHMARK(BM_BatchLessEqualSweep)
    ->ArgNames({"family", "lanes"})
    ->Args({kNarrow, 64})
    ->Args({kNarrow, 256})
    ->Args({kNarrow, 1024})
    ->Args({kCrisp, 1024});

void BM_ScalarNotEqualSweep(benchmark::State& state) {
  ScalarSweepImpl(state, [](const Trapezoid& x, const Trapezoid& y) {
    return SatisfactionDegree(x, CompareOp::kNe, y, 1.0);
  });
}
void BM_BatchNotEqualSweep(benchmark::State& state) {
  BatchSweepImpl(state,
                 [](const TrapezoidBatch& xs, const Trapezoid& y, double* out) {
                   BatchSatisfactionDegree(xs, CompareOp::kNe, y, 1.0, out);
                 });
}
BENCHMARK(BM_ScalarNotEqualSweep)
    ->ArgNames({"family", "lanes"})
    ->Args({kNarrow, 1024});
BENCHMARK(BM_BatchNotEqualSweep)
    ->ArgNames({"family", "lanes"})
    ->Args({kNarrow, 64})
    ->Args({kNarrow, 256})
    ->Args({kNarrow, 1024});

void BM_ScalarApproxEqualSweep(benchmark::State& state) {
  ScalarSweepImpl(state, [](const Trapezoid& x, const Trapezoid& y) {
    return SatisfactionDegree(x, CompareOp::kApproxEq, y, 10.0);
  });
}
void BM_BatchApproxEqualSweep(benchmark::State& state) {
  BatchSweepImpl(state,
                 [](const TrapezoidBatch& xs, const Trapezoid& y, double* out) {
                   BatchSatisfactionDegree(xs, CompareOp::kApproxEq, y, 10.0,
                                           out);
                 });
}
BENCHMARK(BM_ScalarApproxEqualSweep)
    ->ArgNames({"family", "lanes"})
    ->Args({kNarrow, 1024})
    ->Args({kCrisp, 1024});
BENCHMARK(BM_BatchApproxEqualSweep)
    ->ArgNames({"family", "lanes"})
    ->Args({kNarrow, 64})
    ->Args({kNarrow, 256})
    ->Args({kNarrow, 1024})
    ->Args({kCrisp, 1024});

void BM_BatchVsBatchEquality(benchmark::State& state) {
  const size_t lanes = static_cast<size_t>(state.range(0));
  const auto& values = FamilyValues(kNarrow);
  TrapezoidBatch xs, ys;
  for (size_t i = 0; i < lanes; ++i) {
    xs.PushBack(values[i]);
    ys.PushBack(values[(i + 101) % values.size()]);
  }
  for (auto _ : state) {
    BatchEqualityDegree(xs, ys, xs.degrees());
    benchmark::DoNotOptimize(xs.degrees()[0]);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(lanes));
}
BENCHMARK(BM_BatchVsBatchEquality)->Arg(64)->Arg(256)->Arg(1024);

// ----------------------- JSON report mode ----------------------------
//
// A deterministic kernel report for the CI regression gate: the
// degree_evaluations counter of every entry is an exact function of the
// (seeded) inputs and the repeat count, so tools/bench_check.py holds
// it exactly; wall/cpu times get the usual ratio tolerance. Batches are
// prebuilt outside the timed region -- these entries gate the kernels
// themselves; the engine gather shows up in the query-level suites.

/// Sink the optimizer cannot drop (the kernel calls are opaque across
/// the TU boundary already; this guards the summation loops).
volatile double g_report_sink = 0.0;

struct KernelTimings {
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  uint64_t evaluations = 0;
};

void AddEntry(bench::BenchReport* report, const std::string& name,
              const KernelTimings& t) {
  ExecStats stats;
  stats.cpu.degree_evaluations = t.evaluations;
  stats.total_seconds = t.wall_seconds;
  stats.cpu_seconds = t.cpu_seconds;
  report->Add(name, stats);
}

template <typename ScalarFn>
KernelTimings RunScalarSweep(const std::vector<Trapezoid>& values,
                             const Trapezoid& probe, size_t reps, ScalarFn f) {
  KernelTimings t;
  double sum = 0.0;
  Stopwatch watch;
  CpuStopwatch cpu_watch;
  for (size_t rep = 0; rep < reps; ++rep) {
    for (const Trapezoid& x : values) sum += f(x, probe);
  }
  t.wall_seconds = watch.ElapsedSeconds();
  t.cpu_seconds = cpu_watch.ElapsedSeconds();
  t.evaluations = static_cast<uint64_t>(reps) * values.size();
  g_report_sink = sum;
  return t;
}

template <typename BatchFn>
KernelTimings RunBatchSweep(const std::vector<Trapezoid>& values,
                            const Trapezoid& probe, size_t lanes, size_t reps,
                            BatchFn f) {
  std::vector<TrapezoidBatch> chunks;
  for (size_t base = 0; base < values.size(); base += lanes) {
    const size_t count = std::min(lanes, values.size() - base);
    chunks.emplace_back();
    for (size_t i = 0; i < count; ++i) chunks.back().PushBack(values[base + i]);
  }
  KernelTimings t;
  double sum = 0.0;
  Stopwatch watch;
  CpuStopwatch cpu_watch;
  for (size_t rep = 0; rep < reps; ++rep) {
    for (TrapezoidBatch& chunk : chunks) {
      f(chunk, probe, chunk.degrees());
      sum += chunk.degrees()[0];
    }
  }
  t.wall_seconds = watch.ElapsedSeconds();
  t.cpu_seconds = cpu_watch.ElapsedSeconds();
  t.evaluations = static_cast<uint64_t>(reps) * values.size();
  g_report_sink = sum;
  return t;
}

void PrintRatio(const char* label, const KernelTimings& scalar,
                const KernelTimings& batch) {
  if (batch.wall_seconds <= 0.0) return;
  std::printf("  %-28s batch-1024 vs scalar: %s\n", label,
              bench::Ratio(scalar.wall_seconds / batch.wall_seconds).c_str());
}

int RunKernelReport(const std::string& path) {
  // Smoke mode shrinks the repeat count, not the data shape, so the
  // counters stay proportional and the baseline stays one file.
  const size_t reps = bench::SmokeRows(2000, 50);
  const auto narrow = NarrowValues(4096, 21);
  const auto wide = RandomValues(4096, 22);
  const auto crisp = CrispValues(4096, 23);
  const auto degenerate = DegenerateValues(4096, 24);

  // Like the sweep benchmarks above, both sides run their dispatch
  // entry point (SatisfactionDegree is what Value::Compare calls per
  // pair), so the stored ratios compare per-pair calls with the batch
  // kernels the engine's operators use.
  const auto scalar_eq = [](const Trapezoid& x, const Trapezoid& y) {
    return SatisfactionDegree(x, CompareOp::kEq, y, 1.0);
  };
  const auto batch_eq = [](const TrapezoidBatch& xs, const Trapezoid& y,
                           double* out) {
    BatchSatisfactionDegree(xs, CompareOp::kEq, y, 1.0, out);
  };
  const auto scalar_le = [](const Trapezoid& x, const Trapezoid& y) {
    return SatisfactionDegree(x, CompareOp::kLe, y, 1.0);
  };
  const auto batch_le = [](const TrapezoidBatch& xs, const Trapezoid& y,
                           double* out) {
    BatchSatisfactionDegree(xs, CompareOp::kLe, y, 1.0, out);
  };

  bench::BenchReport report("kernel", /*threads=*/1);
  struct FamilyRun {
    const char* label;
    KernelTimings scalar, batch;
  };
  std::vector<FamilyRun> runs;

  // Equality over each family: scalar sweep vs batch-1024 (narrow also
  // at 64/256 to show the batch-size trend).
  const struct {
    const char* name;
    const std::vector<Trapezoid>* values;
  } families[] = {{"narrow", &narrow},
                  {"wide", &wide},
                  {"crisp", &crisp},
                  {"degenerate", &degenerate}};
  for (const auto& fam : families) {
    FamilyRun run;
    run.label = fam.name;
    const Trapezoid probe = (*fam.values)[7];
    run.scalar = RunScalarSweep(*fam.values, probe, reps, scalar_eq);
    AddEntry(&report, std::string("eq_") + fam.name + "_scalar", run.scalar);
    if (fam.values == &narrow) {
      AddEntry(&report, "eq_narrow_batch64",
               RunBatchSweep(*fam.values, probe, 64, reps, batch_eq));
      AddEntry(&report, "eq_narrow_batch256",
               RunBatchSweep(*fam.values, probe, 256, reps, batch_eq));
    }
    run.batch = RunBatchSweep(*fam.values, probe, 1024, reps, batch_eq);
    AddEntry(&report, std::string("eq_") + fam.name + "_batch1024", run.batch);
    runs.push_back(run);
  }

  // One ordered comparator for coverage.
  const Trapezoid le_probe = narrow[7];
  AddEntry(&report, "le_narrow_scalar",
           RunScalarSweep(narrow, le_probe, reps, scalar_le));
  AddEntry(&report, "le_narrow_batch1024",
           RunBatchSweep(narrow, le_probe, 1024, reps, batch_le));

  std::printf("kernel throughput (equality, %zu lanes x %zu reps):\n",
              narrow.size(), reps);
  for (const auto& run : runs) PrintRatio(run.label, run.scalar, run.batch);
  return report.Write(path) ? 0 : 1;
}

}  // namespace
}  // namespace fuzzydb

int main(int argc, char** argv) {
  const std::string json_out = fuzzydb::bench::JsonOutPath(argc, argv);
  if (!json_out.empty()) {
    return fuzzydb::RunKernelReport(json_out);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
