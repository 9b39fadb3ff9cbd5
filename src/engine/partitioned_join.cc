#include "engine/partitioned_join.h"

#include <algorithm>
#include <vector>

#include "common/query_context.h"
#include "engine/merge_window.h"
#include "fuzzy/interval_order.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/heap_file.h"
#include "storage/temp_file_guard.h"

namespace fuzzydb {

namespace {

/// Index of the partition whose half-open range [bound[i-1], bound[i])
/// contains x; boundaries are sorted, partition count = bounds.size()+1.
size_t PartitionOf(const std::vector<double>& bounds, double x) {
  return static_cast<size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), x) - bounds.begin());
}

/// Reads every tuple of `file`. Must run on the calling thread (the
/// BufferPool is not thread-safe).
Result<std::vector<Tuple>> LoadPartition(PageFile* file, BufferPool* pool) {
  std::vector<Tuple> tuples;
  HeapFileScanner scan(file, pool);
  Tuple t;
  bool has = false;
  while (true) {
    FUZZYDB_RETURN_IF_ERROR(scan.Next(&t, &has));
    if (!has) break;
    tuples.push_back(std::move(t));
    t = Tuple();
  }
  return tuples;
}

/// In-memory sort of one partition side by the interval order of
/// `key_col`, counting comparisons into *cpu. Safe on a worker thread.
void SortPartition(std::vector<Tuple>* tuples, size_t key_col,
                   CpuStats* cpu) {
  std::sort(tuples->begin(), tuples->end(),
            [key_col, cpu](const Tuple& a, const Tuple& b) {
              if (cpu != nullptr) ++cpu->comparisons;
              return IntervalOrderLess(a.ValueAt(key_col).AsFuzzy(),
                                       b.ValueAt(key_col).AsFuzzy());
            });
}

/// One joining pair found by the window scan of a partition: indexes into
/// the partition's loaded outer/inner tuple vectors.
struct MatchRef {
  size_t outer_index = 0;
  size_t inner_index = 0;
  double degree = 0.0;
};

/// Window scan within one loaded, sorted partition pair (the in-memory
/// extended merge-join of pass 3). Matches are appended to `matches`
/// instead of emitted so partitions can be probed concurrently and still
/// emit in partition order.
void ProbePartition(const std::vector<Tuple>& outer_tuples,
                    const std::vector<Tuple>& inner_tuples,
                    const FuzzyJoinSpec& spec, CpuStats* cpu,
                    std::vector<MatchRef>* matches) {
  auto key_on = [](size_t col) {
    return [col](const Tuple& t) -> const Trapezoid& {
      return t.ValueAt(col).AsFuzzy();
    };
  };
  const std::vector<SupportBounds> outer_bounds =
      HoistSupportBounds(outer_tuples, key_on(spec.outer_key));
  const std::vector<SupportBounds> inner_bounds =
      HoistSupportBounds(inner_tuples, key_on(spec.inner_key));
  size_t window_start = 0;
  for (size_t r = 0; r < outer_tuples.size(); ++r) {
    const WindowRange window =
        NextWindow(inner_bounds, outer_bounds[r], &window_start, cpu);
    for (size_t i = window.begin; i < window.end; ++i) {
      const double d = spec.PairDegree(outer_tuples[r], inner_tuples[i], cpu);
      if (d > 0.0) matches->push_back(MatchRef{r, i, d});
    }
  }
}

}  // namespace

Status FilePartitionedJoin(PageFile* outer, PageFile* inner, BufferPool* pool,
                           const FuzzyJoinSpec& spec, size_t num_partitions,
                           const std::string& temp_prefix, CpuStats* cpu,
                           const JoinEmit& emit,
                           PartitionedJoinStats* stats,
                           const ParallelContext* parallel,
                           ExecTrace* trace, QueryContext* query) {
  if (spec.key_op != CompareOp::kEq) {
    return Status::InvalidArgument("partitioned join requires an equijoin");
  }
  if (num_partitions == 0) num_partitions = 1;
  PartitionedJoinStats local;
  if (stats == nullptr) stats = &local;
  TraceScope span(trace, "partitioned-join", cpu,
                  pool == nullptr ? nullptr : &pool->stats());
  if (parallel != nullptr) span.SetThreads(WorkerSlots(*parallel));
  uint64_t emitted = 0;

  // ---- Pass 0: sample inner key supports ----------------------------
  std::vector<double> begins;
  double max_width = 0.0;
  {
    HeapFileScanner scan(inner, pool);
    Tuple t;
    bool has = false;
    uint64_t index = 0;
    while (true) {
      FUZZYDB_RETURN_IF_ERROR(CheckQuery(query));
      FUZZYDB_RETURN_IF_ERROR(scan.Next(&t, &has));
      if (!has) break;
      const Value& key = t.ValueAt(spec.inner_key);
      if (!key.is_fuzzy()) {
        return Status::InvalidArgument("partitioned join key must be fuzzy");
      }
      max_width = std::max(max_width, key.AsFuzzy().SupportWidth());
      if (index++ % 7 == 0) {  // deterministic ~1/7 sample
        begins.push_back(key.AsFuzzy().SupportBegin());
      }
    }
  }
  stats->max_inner_width = max_width;

  // Quantile boundaries from the sample.
  std::sort(begins.begin(), begins.end());
  std::vector<double> bounds;
  if (!begins.empty()) {
    for (size_t p = 1; p < num_partitions; ++p) {
      const size_t idx = p * begins.size() / num_partitions;
      const double b = begins[std::min(idx, begins.size() - 1)];
      if (bounds.empty() || b > bounds.back()) bounds.push_back(b);
    }
  }
  const size_t partitions = bounds.size() + 1;
  stats->partitions = partitions;

  // ---- Pass 1 & 2: partition both relations --------------------------
  struct Partition {
    std::string inner_path, outer_path;
    std::unique_ptr<PageFile> inner_file, outer_file;
    std::unique_ptr<HeapFileWriter> inner_writer, outer_writer;
  };
  // Declared before `parts` so it is destroyed after the Partition
  // PageFiles are closed: any early return between here and the explicit
  // cleanup at the end (I/O error, failpoint, cancellation, budget
  // denial) sweeps the partition temporaries.
  TempFileGuard temp_guard(pool);
  std::vector<Partition> parts(partitions);
  for (size_t p = 0; p < partitions; ++p) {
    parts[p].inner_path =
        temp_prefix + ".p" + std::to_string(p) + ".inner";
    parts[p].outer_path =
        temp_prefix + ".p" + std::to_string(p) + ".outer";
    FUZZYDB_ASSIGN_OR_RETURN(parts[p].inner_file,
                             PageFile::Create(parts[p].inner_path));
    temp_guard.Track(parts[p].inner_path);
    FUZZYDB_ASSIGN_OR_RETURN(parts[p].outer_file,
                             PageFile::Create(parts[p].outer_path));
    temp_guard.Track(parts[p].outer_path);
    parts[p].inner_writer =
        std::make_unique<HeapFileWriter>(parts[p].inner_file.get(), pool);
    parts[p].outer_writer =
        std::make_unique<HeapFileWriter>(parts[p].outer_file.get(), pool);
  }

  {
    HeapFileScanner scan(inner, pool);
    Tuple t;
    bool has = false;
    while (true) {
      FUZZYDB_RETURN_IF_ERROR(CheckQuery(query));
      FUZZYDB_RETURN_IF_ERROR(scan.Next(&t, &has));
      if (!has) break;
      const size_t p = PartitionOf(
          bounds, t.ValueAt(spec.inner_key).AsFuzzy().SupportBegin());
      FUZZYDB_RETURN_IF_ERROR(parts[p].inner_writer->Append(t));
    }
  }
  {
    HeapFileScanner scan(outer, pool);
    Tuple t;
    bool has = false;
    while (true) {
      FUZZYDB_RETURN_IF_ERROR(CheckQuery(query));
      FUZZYDB_RETURN_IF_ERROR(scan.Next(&t, &has));
      if (!has) break;
      const Value& key = t.ValueAt(spec.outer_key);
      if (!key.is_fuzzy()) {
        return Status::InvalidArgument("partitioned join key must be fuzzy");
      }
      // An intersecting inner support begins in [b(r) - W, e(r)].
      const size_t p_lo =
          PartitionOf(bounds, key.AsFuzzy().SupportBegin() - max_width);
      const size_t p_hi = PartitionOf(bounds, key.AsFuzzy().SupportEnd());
      for (size_t p = p_lo; p <= p_hi; ++p) {
        FUZZYDB_RETURN_IF_ERROR(parts[p].outer_writer->Append(t));
        ++stats->outer_replicas;
      }
    }
  }
  EngineMetrics* metrics = EngineMetrics::IfEnabled();
  uint64_t partition_pages = 0;
  for (Partition& part : parts) {
    FUZZYDB_RETURN_IF_ERROR(part.inner_writer->Finish());
    FUZZYDB_RETURN_IF_ERROR(part.outer_writer->Finish());
    partition_pages +=
        part.inner_file->NumPages() + part.outer_file->NumPages();
  }
  if (metrics != nullptr) {
    metrics->partition_spill_bytes->Add(partition_pages * kPageSize);
  }

  // ---- Pass 3: join partition pairs in memory ------------------------
  // Every partition pair is sorted and probed independently; matches are
  // buffered per partition and emitted in partition order, and CPU
  // counters are tallied into per-partition slots folded in partition
  // order, so serial and parallel runs produce the same emit sequence
  // and the same totals.
  ParallelContext ctx = parallel != nullptr ? *parallel : ParallelContext{};
  if (ctx.query == nullptr) ctx.query = query;
  const bool concurrent =
      ctx.pool != nullptr && ctx.pool->size() > 1 && partitions > 1;
  Status status = Status::OK();
  std::vector<CpuStats> part_cpu(partitions);
  // Declared after `span`: a throwing sort/probe still folds the
  // per-partition tallies into *cpu before the span closes.
  CpuStatsFolder folder(cpu == nullptr ? nullptr : &part_cpu, cpu);
  // Concurrent pass 3 materializes every partition pair at once; the
  // tracker's peak is what a served workload would size join memory by.
  ScopedMemoryCharge memory(metrics == nullptr ? nullptr
                                               : metrics->join_memory);
  auto slot = [&](size_t p) {
    return cpu != nullptr ? &part_cpu[p] : nullptr;
  };
  auto emit_matches = [&](const std::vector<Tuple>& outer_tuples,
                          const std::vector<Tuple>& inner_tuples,
                          const std::vector<MatchRef>& matches) -> Status {
    for (const MatchRef& m : matches) {
      ++emitted;
      FUZZYDB_RETURN_IF_ERROR(emit(outer_tuples[m.outer_index],
                                   inner_tuples[m.inner_index], m.degree));
    }
    return Status::OK();
  };
  if (!concurrent) {
    // Streamed: one partition pair in memory at a time.
    for (size_t p = 0; p < partitions && status.ok(); ++p) {
      status = CheckQuery(query);
      if (!status.ok()) break;
      auto outer_tuples = LoadPartition(parts[p].outer_file.get(), pool);
      if (!outer_tuples.ok()) {
        status = outer_tuples.status();
        break;
      }
      auto inner_tuples = LoadPartition(parts[p].inner_file.get(), pool);
      if (!inner_tuples.ok()) {
        status = inner_tuples.status();
        break;
      }
      // Streamed: only one partition pair is live at a time, so the
      // charge is released at the end of each iteration.
      ScopedBudget pair_budget(query);
      status = pair_budget.Charge((parts[p].outer_file->NumPages() +
                                   parts[p].inner_file->NumPages()) *
                                  kPageSize);
      if (!status.ok()) break;
      ScopedMemoryCharge pair_memory(
          metrics == nullptr ? nullptr : metrics->join_memory);
      pair_memory.Charge((parts[p].outer_file->NumPages() +
                          parts[p].inner_file->NumPages()) *
                         kPageSize);
      SortPartition(&*outer_tuples, spec.outer_key, slot(p));
      SortPartition(&*inner_tuples, spec.inner_key, slot(p));
      std::vector<MatchRef> matches;
      ProbePartition(*outer_tuples, *inner_tuples, spec, slot(p), &matches);
      status = emit_matches(*outer_tuples, *inner_tuples, matches);
    }
  } else {
    // Concurrent: reads stay on this thread, then sort + probe run
    // one-partition-per-morsel on the pool.
    std::vector<std::vector<Tuple>> outer_tuples(partitions);
    std::vector<std::vector<Tuple>> inner_tuples(partitions);
    ScopedBudget pairs_budget(query);
    for (size_t p = 0; p < partitions && status.ok(); ++p) {
      status = CheckQuery(query);
      if (!status.ok()) break;
      auto o = LoadPartition(parts[p].outer_file.get(), pool);
      if (!o.ok()) {
        status = o.status();
        break;
      }
      auto i = LoadPartition(parts[p].inner_file.get(), pool);
      if (!i.ok()) {
        status = i.status();
        break;
      }
      outer_tuples[p] = *std::move(o);
      inner_tuples[p] = *std::move(i);
      status = pairs_budget.Charge((parts[p].outer_file->NumPages() +
                                    parts[p].inner_file->NumPages()) *
                                   kPageSize);
      if (!status.ok()) break;
      memory.Charge((parts[p].outer_file->NumPages() +
                     parts[p].inner_file->NumPages()) *
                    kPageSize);
    }
    if (status.ok()) {
      std::vector<std::vector<MatchRef>> matches(partitions);
      ParallelFor(ctx, partitions, /*morsel_size=*/1,
                  [&](size_t, size_t begin, size_t end) {
                    for (size_t p = begin; p < end; ++p) {
                      SortPartition(&outer_tuples[p], spec.outer_key, slot(p));
                      SortPartition(&inner_tuples[p], spec.inner_key, slot(p));
                      ProbePartition(outer_tuples[p], inner_tuples[p], spec,
                                     slot(p), &matches[p]);
                    }
                  });
      // A governed stop keeps ParallelFor from dispatching the remaining
      // partitions, so the buffered matches are incomplete: surface the
      // stop instead of emitting a partial result.
      status = CheckQuery(query);
      for (size_t p = 0; p < partitions && status.ok(); ++p) {
        status = emit_matches(outer_tuples[p], inner_tuples[p], matches[p]);
      }
    }
  }
  folder.Fold();
  if (metrics != nullptr) {
    metrics->partitioned_join_rows_in->Add(stats->outer_replicas);
    metrics->partitioned_join_rows_out->Add(emitted);
  }
  span.SetDetail("partitions=" + std::to_string(partitions) + " replicas=" +
                 std::to_string(stats->outer_replicas));
  span.SetInputRows(stats->outer_replicas);
  span.SetOutputRows(emitted);

  // Cleanup.
  for (Partition& part : parts) {
    pool->Invalidate(part.inner_file.get());
    pool->Invalidate(part.outer_file.get());
    part.inner_writer.reset();
    part.outer_writer.reset();
    part.inner_file.reset();
    part.outer_file.reset();
    RemoveFileIfExists(part.inner_path);
    RemoveFileIfExists(part.outer_path);
  }
  temp_guard.Dismiss();
  return status;
}

}  // namespace fuzzydb
