// Ablation: which fuzzy join method wins?
//
// Section 3 of the paper compares nested loop and the extended merge-join
// and notes that partitioned joins based on sampling (as used for band
// joins [9] and valid-time joins [36]) are a further candidate: "More
// research is needed to decide the optimal join method." This bench runs
// all three on the same workloads and exits 1 unless their answers are
// equal; FUZZYDB_BENCH_SMOKE=1 shrinks the relations to CI-smoke size.
#include "bench_common.h"

#include <map>

#include "common/stopwatch.h"
#include "engine/nested_loop_join.h"
#include "engine/partitioned_join.h"
#include "sort/external_sort.h"
#include "fuzzy/interval_order.h"

namespace {

using namespace fuzzydb;
using namespace fuzzydb::bench;

using Answer = std::map<double, double>;  // R.X -> max degree

FuzzyJoinSpec ExperimentSpec() {
  FuzzyJoinSpec spec;
  spec.outer_key = 1;   // R.Y
  spec.inner_key = 0;   // S.Z
  spec.residuals.push_back({2, 1, CompareOp::kEq});  // R.U = S.V
  return spec;
}

JoinEmit Accumulate(Answer* answer) {
  return [answer](const Tuple& r, const Tuple& s, double d) {
    (void)s;
    const double x = r.ValueAt(0).AsFuzzy().CrispValue();
    auto [it, fresh] = answer->emplace(x, d);
    if (!fresh && d > it->second) it->second = d;
    return Status::OK();
  };
}

}  // namespace

int main() {
  BufferPool::SetDefaultSimulatedLatencyUs(SimulatedLatencyUs());
  PrintHeader("Ablation -- nested loop vs merge-join vs partitioned join",
              "Yang et al., Section 3 closing discussion (open question)");

  std::printf("\n%8s %6s | %10s %10s %12s | %10s %10s %12s | %6s\n",
              "tuples", "C", "NL(s)", "merge(s)", "partition(s)", "NL-IO",
              "MJ-IO", "PJ-IO", "equal");
  for (size_t tuples : {SmokeRows(4096, 256), SmokeRows(16384, 1024)}) {
    for (double c : {2.0, 16.0}) {
      WorkloadConfig config;
      config.seed = 8800 + tuples + static_cast<uint64_t>(c);
      config.num_r = tuples;
      config.num_s = tuples;
      config.join_fanout = c;
      auto files =
          MakeDatasetFiles(config, 128, "jm_" + std::to_string(tuples));
      if (!files.ok()) return 1;
      const FuzzyJoinSpec spec = ExperimentSpec();

      // Nested loop.
      Answer nl_answer;
      IoStats nl_io;
      Stopwatch nl_watch;
      if (!FileNestedLoopJoin(files->r.get(), files->s.get(), &nl_io,
                              kBufferPages, spec, nullptr,
                              Accumulate(&nl_answer))
               .ok()) {
        return 1;
      }
      const double nl_seconds = nl_watch.ElapsedSeconds();

      // Extended merge-join (sort + window).
      Answer mj_answer;
      IoStats mj_io;
      double mj_seconds = 0;
      {
        BufferPool pool(kBufferPages, &mj_io);
        Stopwatch watch;
        auto less_on = [](size_t col) {
          return TupleLess([col](const Tuple& a, const Tuple& b) {
            return IntervalOrderLess(a.ValueAt(col).AsFuzzy(),
                                     b.ValueAt(col).AsFuzzy());
          });
        };
        auto r_sorted = ExternalSort(
            files->r.get(), &pool, less_on(1), BenchDir() + "/jm_r",
            BenchDir() + "/jm_r.sorted", kBufferPages, 128);
        auto s_sorted = ExternalSort(
            files->s.get(), &pool, less_on(0), BenchDir() + "/jm_s",
            BenchDir() + "/jm_s.sorted", kBufferPages, 128);
        if (!r_sorted.ok() || !s_sorted.ok()) return 1;
        pool.Clear();
        if (!FileMergeJoin(r_sorted->get(), s_sorted->get(), &pool, spec,
                           nullptr, Accumulate(&mj_answer))
                 .ok()) {
          return 1;
        }
        mj_seconds = watch.ElapsedSeconds();
        RemoveFileIfExists(BenchDir() + "/jm_r.sorted");
        RemoveFileIfExists(BenchDir() + "/jm_s.sorted");
      }

      // Partitioned join.
      Answer pj_answer;
      IoStats pj_io;
      double pj_seconds = 0;
      {
        BufferPool pool(kBufferPages, &pj_io);
        Stopwatch watch;
        if (!FilePartitionedJoin(files->r.get(), files->s.get(), &pool, spec,
                                 /*num_partitions=*/16,
                                 BenchDir() + "/jm_part", nullptr,
                                 Accumulate(&pj_answer))
                 .ok()) {
          return 1;
        }
        pj_seconds = watch.ElapsedSeconds();
      }

      const bool equal = nl_answer == mj_answer && mj_answer == pj_answer;
      std::printf("%8zu %6.0f | %10s %10s %12s | %10llu %10llu %12llu | %6s\n",
                  tuples, c, Seconds(nl_seconds).c_str(),
                  Seconds(mj_seconds).c_str(), Seconds(pj_seconds).c_str(),
                  static_cast<unsigned long long>(nl_io.TotalIos()),
                  static_cast<unsigned long long>(mj_io.TotalIos()),
                  static_cast<unsigned long long>(pj_io.TotalIos()),
                  equal ? "yes" : "NO!");
      std::fflush(stdout);
      if (!equal) return 1;
    }
  }

  std::printf(
      "\nExpected shape: both sort-based and partition-based methods beat\n"
      "the quadratic nested loop by an order of magnitude at scale. The\n"
      "partitioned join trades the global external sort for one extra\n"
      "read+write of both relations plus outer replication; with compact\n"
      "supports (small replication) the two are close, confirming the\n"
      "paper's conjecture that partitioning is a viable alternative.\n");
  return 0;
}
