#include "sort/external_sort.h"

#include <algorithm>
#include <queue>
#include <vector>

#include "common/failpoint.h"
#include "common/query_context.h"
#include "obs/metrics.h"
#include "obs/op_scope.h"
#include "storage/temp_file_guard.h"

namespace fuzzydb {

namespace {

/// A run being merged: a scanner plus its buffered head tuple.
struct RunCursor {
  std::unique_ptr<PageFile> file;
  std::unique_ptr<HeapFileScanner> scanner;
  Tuple head;
  bool has_head = false;

  Status Advance() {
    return scanner->Next(&head, &has_head);
  }
};

/// Counts comparisons made through `less`.
class CountingLess {
 public:
  CountingLess(const TupleLess& less, SortStats* stats)
      : less_(less), stats_(stats) {}
  bool operator()(const Tuple& a, const Tuple& b) const {
    if (stats_ != nullptr) ++stats_->comparisons;
    return less_(a, b);
  }

 private:
  const TupleLess& less_;
  SortStats* stats_;
};

/// ExternalSort's run generation and merge passes, tallied into
/// `stats`; ExternalSort's op records the deltas.
Result<std::unique_ptr<PageFile>> SortIntoFile(
    PageFile* input, BufferPool* pool, const TupleLess& less,
    const std::string& temp_prefix, const std::string& output_path,
    size_t buffer_pages, size_t min_record_size, SortStats* stats,
    const ParallelContext* parallel, QueryContext* query) {
  // Any early return below (I/O error, failpoint, cancellation, budget
  // denial) sweeps the temporary runs created so far.
  TempFileGuard temp_guard(pool);
  const CountingLess counting_less(less, stats);
  EngineMetrics* metrics = EngineMetrics::IfEnabled();

  // ---- Phase 1: run generation -------------------------------------
  const size_t memory_budget = buffer_pages * kPageSize;
  std::vector<std::string> run_paths;
  {
    HeapFileScanner scanner(input, pool);
    std::vector<Tuple> batch;
    size_t batch_bytes = 0;
    Tuple tuple;
    bool has = false;

    auto flush_batch = [&]() -> Status {
      if (batch.empty()) return Status::OK();
      FUZZYDB_RETURN_IF_ERROR(FailPoints::Check("sort/spill-write"));
      // The sort buffer is the operator's peak memory; charged for the
      // duration of the sort + write, released when the run is on disk.
      ScopedBudget batch_budget(query);
      FUZZYDB_RETURN_IF_ERROR(batch_budget.Charge(batch_bytes));
      ScopedMemoryCharge batch_memory(
          metrics == nullptr ? nullptr : metrics->sort_memory);
      batch_memory.Charge(batch_bytes);
      if (metrics != nullptr) metrics->sort_spill_bytes->Add(batch_bytes);
      if (parallel != nullptr) {
        FUZZYDB_RETURN_IF_ERROR(ParallelSort(
            *parallel, &batch, &stats->comparisons, [&less](uint64_t* count) {
              return [&less, count](const Tuple& a, const Tuple& b) {
                ++*count;
                return less(a, b);
              };
            }));
      } else {
        std::sort(batch.begin(), batch.end(), counting_less);
      }
      // ParallelSort reports stops of parallel->query only; a stop of
      // `query` must not write the batch out as a run either.
      FUZZYDB_RETURN_IF_ERROR(CheckQuery(query));
      const std::string path =
          temp_prefix + ".run" + std::to_string(run_paths.size());
      FUZZYDB_ASSIGN_OR_RETURN(std::unique_ptr<PageFile> run,
                               PageFile::Create(path));
      temp_guard.Track(path);
      HeapFileWriter writer(run.get(), pool, min_record_size);
      for (const Tuple& t : batch) {
        FUZZYDB_RETURN_IF_ERROR(writer.Append(t));
      }
      FUZZYDB_RETURN_IF_ERROR(writer.Finish());
      pool->Invalidate(run.get());
      run_paths.push_back(path);
      ++stats->runs_created;
      batch.clear();
      batch_bytes = 0;
      return Status::OK();
    };

    while (true) {
      FUZZYDB_RETURN_IF_ERROR(CheckQuery(query));
      FUZZYDB_RETURN_IF_ERROR(scanner.Next(&tuple, &has));
      if (!has) break;
      ++stats->input_tuples;
      batch_bytes += std::max(SerializedTupleSize(tuple), min_record_size);
      batch.push_back(std::move(tuple));
      tuple = Tuple();
      if (batch_bytes >= memory_budget) {
        FUZZYDB_RETURN_IF_ERROR(flush_batch());
      }
    }
    FUZZYDB_RETURN_IF_ERROR(flush_batch());
  }

  if (run_paths.empty()) {
    // Empty input: produce an empty output file.
    return PageFile::Create(output_path);
  }

  // ---- Phase 2: k-way merge passes ----------------------------------
  // Written underflow-proof: buffer_pages - 1 would wrap at 0 before
  // std::max could clamp it (the >= 3 guard above makes 0 unreachable
  // today, but keep the expression safe on its own).
  const size_t fan_in = buffer_pages < 3 ? 2 : buffer_pages - 1;
  size_t temp_counter = run_paths.size();

  while (run_paths.size() > 1) {
    ++stats->merge_passes;
    std::vector<std::string> next_round;
    for (size_t group = 0; group < run_paths.size(); group += fan_in) {
      const size_t group_end = std::min(group + fan_in, run_paths.size());
      // Open cursors for this group.
      std::vector<std::unique_ptr<RunCursor>> cursors;
      for (size_t i = group; i < group_end; ++i) {
        auto cursor = std::make_unique<RunCursor>();
        FUZZYDB_RETURN_IF_ERROR(FailPoints::Check("sort/run-open"));
        FUZZYDB_ASSIGN_OR_RETURN(cursor->file, PageFile::Open(run_paths[i]));
        cursor->scanner =
            std::make_unique<HeapFileScanner>(cursor->file.get(), pool);
        FUZZYDB_RETURN_IF_ERROR(cursor->Advance());
        cursors.push_back(std::move(cursor));
      }

      const bool final_round =
          run_paths.size() <= fan_in;  // this merge produces the result
      const std::string out_path =
          final_round ? output_path
                      : temp_prefix + ".run" + std::to_string(temp_counter++);
      FUZZYDB_ASSIGN_OR_RETURN(std::unique_ptr<PageFile> out,
                               PageFile::Create(out_path));
      temp_guard.Track(out_path);
      HeapFileWriter writer(out.get(), pool, min_record_size);

      // Tournament by linear scan over the (small) fan-in; a loser tree
      // is unnecessary at these fan-ins and keeps comparisons countable.
      while (true) {
        FUZZYDB_RETURN_IF_ERROR(CheckQuery(query));
        RunCursor* best = nullptr;
        for (auto& cursor : cursors) {
          if (!cursor->has_head) continue;
          if (best == nullptr || counting_less(cursor->head, best->head)) {
            best = cursor.get();
          }
        }
        if (best == nullptr) break;
        FUZZYDB_RETURN_IF_ERROR(writer.Append(best->head));
        FUZZYDB_RETURN_IF_ERROR(best->Advance());
      }
      FUZZYDB_RETURN_IF_ERROR(writer.Finish());
      if (metrics != nullptr && !final_round) {
        metrics->sort_spill_bytes->Add(out->NumPages() * kPageSize);
      }

      // Drop the merged runs.
      for (size_t i = group; i < group_end; ++i) {
        pool->Invalidate(cursors[i - group]->file.get());
      }
      cursors.clear();
      for (size_t i = group; i < group_end; ++i) {
        RemoveFileIfExists(run_paths[i]);
        temp_guard.Untrack(run_paths[i]);
      }
      pool->Invalidate(out.get());
      next_round.push_back(out_path);
      out.reset();
    }
    run_paths = std::move(next_round);
  }

  // run_paths[0] is output_path when a merge happened; otherwise a single
  // run that needs renaming to the requested output.
  if (run_paths[0] != output_path) {
    RemoveFileIfExists(output_path);
    if (std::rename(run_paths[0].c_str(), output_path.c_str()) != 0) {
      return Status::IoError("cannot rename sorted run to '" + output_path +
                             "'");
    }
  }
  temp_guard.Dismiss();
  return PageFile::Open(output_path);
}

}  // namespace

Result<std::unique_ptr<PageFile>> ExternalSort(
    PageFile* input, BufferPool* pool, const TupleLess& less,
    const std::string& temp_prefix, const std::string& output_path,
    size_t buffer_pages, size_t min_record_size, SortStats* stats,
    const ParallelContext* parallel, ExecTrace* trace, QueryContext* query,
    QueryProgress* progress) {
  if (buffer_pages < 3) {
    return Status::InvalidArgument("external sort needs >= 3 buffer pages");
  }
  SortStats local;
  if (stats == nullptr) stats = &local;
  // The op's comparison count mirrors SortStats::comparisons (the
  // caller may fold it into a CpuStats later; see executor.cc). `stats`
  // may be shared across sorts, so the op records deltas against
  // entry, taken once the sort returns on any path.
  CpuStats op_cpu;
  OpScope op(Op::kExternalSort, trace, progress, &op_cpu,
             pool == nullptr ? nullptr : &pool->stats());
  if (parallel != nullptr) op.SetThreads(WorkerSlots(*parallel));
  const SortStats entry = *stats;
  Result<std::unique_ptr<PageFile>> sorted =
      SortIntoFile(input, pool, less, temp_prefix, output_path, buffer_pages,
                   min_record_size, stats, parallel, query);
  op_cpu.comparisons = stats->comparisons - entry.comparisons;
  op.SetInputRows(stats->input_tuples - entry.input_tuples);
  if (op.traced()) {
    op.SetDetail(
        "runs=" + std::to_string(stats->runs_created - entry.runs_created) +
        " passes=" + std::to_string(stats->merge_passes - entry.merge_passes));
  }
  return sorted;
}

}  // namespace fuzzydb
