#include "engine/executor.h"

#include <map>

#include "common/query_context.h"
#include "common/stopwatch.h"
#include "engine/merge_join.h"
#include "engine/nested_loop_join.h"
#include "engine/pair_join.h"
#include "obs/metrics.h"
#include "obs/op_scope.h"
#include "parallel/thread_pool.h"
#include "sort/external_sort.h"
#include "storage/temp_file_guard.h"

namespace fuzzydb {

namespace {

/// Accumulates answer degrees per distinct projected value (fuzzy OR:
/// duplicates keep the maximum degree).
class AnswerAccumulator {
 public:
  void Add(const Value& x, double degree) {
    auto [it, inserted] = degrees_.emplace(x, degree);
    if (!inserted && degree > it->second) it->second = degree;
  }

  Relation Finish(double threshold) const {
    Relation answer("answer", Schema{Column{"X", ValueType::kFuzzy}});
    for (const auto& [x, d] : degrees_) {
      if (d >= threshold && d > 0.0) {
        (void)answer.Append(Tuple({x}, d));
      }
    }
    return answer;
  }

 private:
  std::map<Value, double, ValueLess> degrees_;
};

/// Interval order (Definition 3.1) on the KeyBounds of tuple column
/// `col` at `threshold`: the bounds FileMergeJoin windows on, so the
/// sorted runs are in the order its scan needs.
TupleLess KeyBoundsLessOnColumn(size_t col, double threshold) {
  return [col, threshold](const Tuple& a, const Tuple& b) {
    return BoundsLess(KeyBounds(a.ValueAt(col).AsFuzzy(), threshold),
                      KeyBounds(b.ValueAt(col).AsFuzzy(), threshold));
  };
}

}  // namespace

Result<RunResult> RunTypeJNestedLoop(PageFile* r_file, PageFile* s_file,
                                     const TypeJQuerySpec& spec,
                                     size_t buffer_pages,
                                     const ExecOptions* options) {
  RunResult result;
  Stopwatch wall;
  CpuStopwatch cpu_clock;
  ExecTrace* trace = options == nullptr ? nullptr : options->trace;
  QueryProgress* progress = options == nullptr ? nullptr : options->progress;
  OpScope op(Op::kQuery, trace, progress, &result.stats.cpu, &result.stats.io,
             "typeJ nested-loop");

  FuzzyJoinSpec join;
  join.outer_key = spec.r_y;
  join.inner_key = spec.s_z;
  join.key_op = CompareOp::kEq;
  join.residuals.push_back({spec.r_u, spec.s_v, CompareOp::kEq});

  AnswerAccumulator acc;
  FUZZYDB_RETURN_IF_ERROR(FileNestedLoopJoin(
      r_file, s_file, &result.stats.io, buffer_pages, join,
      &result.stats.cpu, [&](const Tuple& r, const Tuple& s, double d) {
        (void)s;
        acc.Add(r.ValueAt(spec.r_x), d);
        return Status::OK();
      }, trace, options == nullptr ? nullptr : options->context, progress));

  result.answer = acc.Finish(spec.threshold);
  op.SetOutputRows(result.answer.NumTuples());
  result.stats.join_seconds = wall.ElapsedSeconds();
  result.stats.total_seconds = wall.ElapsedSeconds();
  result.stats.cpu_seconds = cpu_clock.ElapsedSeconds();
  if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
    m->join_stage_us->Record(
        static_cast<uint64_t>(result.stats.join_seconds * 1e6));
  }
  return result;
}

Result<RunResult> RunTypeJMergeJoin(PageFile* r_file, PageFile* s_file,
                                    const TypeJQuerySpec& spec,
                                    size_t buffer_pages,
                                    const std::string& temp_prefix,
                                    size_t min_record_size,
                                    const ExecOptions* options) {
  RunResult result;
  Stopwatch wall;
  CpuStopwatch cpu_clock;
  BufferPool pool(buffer_pages, &result.stats.io);
  ExecTrace* trace = options == nullptr ? nullptr : options->trace;
  QueryProgress* progress = options == nullptr ? nullptr : options->progress;
  OpScope op(Op::kQuery, trace, progress, &result.stats.cpu, &result.stats.io,
             "typeJ merge");

  // Worker pool for the CPU-bound run sorts. Only engaged with > 1
  // thread: the parallel run-sort path's comparison count differs from
  // std::sort's, so single-threaded options must match nullptr exactly.
  std::unique_ptr<ThreadPool> workers;
  ParallelContext parallel_ctx;
  const ParallelContext* parallel = nullptr;
  QueryContext* query = options == nullptr ? nullptr : options->context;
  if (options != nullptr && options->ResolvedThreads() > 1) {
    workers = std::make_unique<ThreadPool>(options->ResolvedThreads());
    parallel_ctx.pool = workers.get();
    parallel_ctx.morsel_size = options->morsel_size;
    parallel_ctx.query = query;
    parallel_ctx.progress = progress;
    parallel = &parallel_ctx;
  }

  // ---- Sort phase (charged to sort_seconds; Table 3) ----------------
  // Both sides sort on their key's KeyBounds at the threshold: the
  // support without one, else the threshold-cut of the [42] indicator
  // optimization, which the join window then prunes on.
  Stopwatch sort_watch;
  SortStats sort_stats;
  // Both sorted temporaries are tracked from creation, and the guard
  // removes them on every path: if the second sort (or the join) fails,
  // the first sort's output must not be left behind either.
  TempFileGuard sorted_guard(&pool);
  auto sorted_input = [&](PageFile* input, size_t col,
                          const std::string& run_prefix,
                          const std::string& sorted_path)
      -> Result<std::unique_ptr<PageFile>> {
    FUZZYDB_ASSIGN_OR_RETURN(
        std::unique_ptr<PageFile> sorted,
        ExternalSort(input, &pool, KeyBoundsLessOnColumn(col, spec.threshold),
                     run_prefix, sorted_path, buffer_pages, min_record_size,
                     &sort_stats, parallel, trace, query, progress));
    sorted_guard.Track(sorted->path());
    return sorted;
  };
  FUZZYDB_ASSIGN_OR_RETURN(
      std::unique_ptr<PageFile> r_sorted,
      sorted_input(r_file, spec.r_y, temp_prefix + ".R",
                   temp_prefix + ".R.sorted"));
  FUZZYDB_ASSIGN_OR_RETURN(
      std::unique_ptr<PageFile> s_sorted,
      sorted_input(s_file, spec.s_z, temp_prefix + ".S",
                   temp_prefix + ".S.sorted"));
  result.stats.cpu.comparisons += sort_stats.comparisons;
  result.stats.sort_seconds = sort_watch.ElapsedSeconds();
  if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
    m->sort_stage_us->Record(
        static_cast<uint64_t>(result.stats.sort_seconds * 1e6));
  }

  // ---- Join phase (the merge-join op charges the join phase) ---------
  Stopwatch join_watch;
  pool.Clear();  // the paper's join phase starts with a cold buffer

  FuzzyJoinSpec join;
  join.outer_key = spec.r_y;
  join.inner_key = spec.s_z;
  join.key_op = CompareOp::kEq;
  join.residuals.push_back({spec.r_u, spec.s_v, CompareOp::kEq});
  join.threshold = spec.threshold;

  AnswerAccumulator acc;
  FUZZYDB_RETURN_IF_ERROR(FileMergeJoin(
      r_sorted.get(), s_sorted.get(), &pool, join, &result.stats.cpu,
      [&](const Tuple& r, const Tuple& s, double d) {
        (void)s;
        acc.Add(r.ValueAt(spec.r_x), d);
        return Status::OK();
      }, trace, query,
      options == nullptr ? size_t{1024} : options->batch_size, progress));

  result.answer = acc.Finish(spec.threshold);
  op.SetOutputRows(result.answer.NumTuples());
  result.stats.join_seconds = join_watch.ElapsedSeconds();
  result.stats.total_seconds = wall.ElapsedSeconds();
  result.stats.cpu_seconds = cpu_clock.ElapsedSeconds();
  if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
    m->join_stage_us->Record(
        static_cast<uint64_t>(result.stats.join_seconds * 1e6));
  }

  // The sorted files close before the guard removes them (declaration
  // order); it clears the pool first, which drops their frames.
  return result;
}

}  // namespace fuzzydb
