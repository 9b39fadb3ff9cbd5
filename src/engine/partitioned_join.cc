#include "engine/partitioned_join.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/query_context.h"
#include "engine/degree_fold.h"
#include "engine/pair_join.h"
#include "obs/metrics.h"
#include "obs/op_scope.h"
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

/// The tuples of one loaded partition side, each weighted by its degree.
std::vector<FT> Weighted(const std::vector<Tuple>& tuples) {
  std::vector<FT> out;
  out.reserve(tuples.size());
  for (const Tuple& t : tuples) out.push_back(FT{&t, t.degree()});
  return out;
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
  OpScope op(Op::kPartitionedJoin, trace,
             parallel == nullptr ? nullptr : parallel->progress, cpu,
             pool == nullptr ? nullptr : &pool->stats());
  if (parallel != nullptr) op.SetThreads(WorkerSlots(*parallel));
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
  // One partition pair is resident at a time. Its loads stay on this
  // thread (the BufferPool is not thread-safe); PairJoin sorts and scans
  // it morsel-parallel under the caller's context, and its sink folds
  // the key and then each residual, as FuzzyJoinSpec::PairDegree does
  // per pair. Survivors are buffered per morsel and emitted here in
  // morsel order, so the emit sequence and the counters are those of a
  // serial run at the same morsel size.
  ParallelContext ctx = parallel != nullptr ? *parallel : ParallelContext{};
  if (ctx.query == nullptr) ctx.query = query;
  const size_t morsel = ctx.morsel_size == 0 ? 1 : ctx.morsel_size;
  const PairKey key{spec.outer_key, spec.inner_key};
  std::vector<FoldTerm> terms = {FoldTerm{FoldOperand::Outer(spec.outer_key),
                                          spec.key_op,
                                          FoldOperand::Local(spec.inner_key)}};
  for (const FuzzyJoinSpec::Residual& residual : spec.residuals) {
    terms.push_back(FoldTerm{FoldOperand::Outer(residual.outer_col),
                             residual.op,
                             FoldOperand::Local(residual.inner_col)});
  }
  for (size_t p = 0; p < partitions; ++p) {
    FUZZYDB_RETURN_IF_ERROR(CheckQuery(query));
    FUZZYDB_ASSIGN_OR_RETURN(std::vector<Tuple> outer_tuples,
                             LoadPartition(parts[p].outer_file.get(), pool));
    FUZZYDB_ASSIGN_OR_RETURN(std::vector<Tuple> inner_tuples,
                             LoadPartition(parts[p].inner_file.get(), pool));
    const uint64_t pair_bytes =
        (parts[p].outer_file->NumPages() + parts[p].inner_file->NumPages()) *
        kPageSize;
    ScopedBudget pair_budget(query);
    FUZZYDB_RETURN_IF_ERROR(pair_budget.Charge(pair_bytes));
    ScopedMemoryCharge pair_memory(metrics == nullptr ? nullptr
                                                      : metrics->join_memory);
    pair_memory.Charge(pair_bytes);
    const std::vector<FT> outer_rows = Weighted(outer_tuples);
    std::vector<FT> inner_rows = Weighted(inner_tuples);
    std::vector<std::vector<std::pair<PairEntry, double>>> survivors(
        (outer_rows.size() + morsel - 1) / morsel);
    FUZZYDB_RETURN_IF_ERROR(PairJoin(
        outer_rows, &inner_rows, &key, ctx, cpu, trace,
        [&](const PairBatch& batch) {
          FoldComparisons(PairLanes(batch, outer_rows), batch.count, terms,
                          batch.fold, batch.cpu, batch.tally);
          const double* degree = batch.fold->degree.data();
          for (size_t k = 0; k < batch.count; ++k) {
            if (degree[k] > 0.0) {
              survivors[batch.morsel].emplace_back(batch.pairs[k], degree[k]);
            }
          }
          return Status::OK();
        }));
    for (const auto& morsel_survivors : survivors) {
      for (const auto& [pair, d] : morsel_survivors) {
        ++emitted;
        FUZZYDB_RETURN_IF_ERROR(
            emit(*outer_rows[pair.r].tuple, *pair.s->tuple, d));
      }
    }
  }
  op.SetDetail("partitions=" + std::to_string(partitions) + " replicas=" +
               std::to_string(stats->outer_replicas));
  op.SetInputRows(stats->outer_replicas);
  op.SetOutputRows(emitted);

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
  return Status::OK();
}

}  // namespace fuzzydb
