// A sampling-based partitioned fuzzy equijoin.
//
// Section 3 of the paper notes that fuzzy joins resemble band joins [9]
// and valid-time joins [36], for which "partitioned joins based on
// sampling are suggested", and leaves the choice of optimal join method
// as an open question. This operator answers it empirically (see
// bench_ablation_join_methods):
//
//   1. sample the inner relation's key supports to pick P-1 range
//      boundaries (quantiles of the support-begin values) and record the
//      exact maximum support width W;
//   2. partition the inner relation by support begin -- each inner tuple
//      lands in exactly one partition;
//   3. partition the outer relation with replication: r is copied to
//      every partition whose range intersects [b(r) - W, e(r)], the only
//      region where an intersecting inner support can begin;
//   4. join each partition pair in memory with the engine's pair join
//      (engine/pair_join.h): interval sorts plus the Rng(r) window scan.
//
// Because each inner tuple lives in exactly one partition, every joining
// pair is emitted exactly once. Compared with the extended merge-join,
// no global external sort is needed (only per-partition in-memory
// sorts), at the price of writing both relations out once more and of
// outer replication when values are wide relative to partition ranges.
#ifndef FUZZYDB_ENGINE_PARTITIONED_JOIN_H_
#define FUZZYDB_ENGINE_PARTITIONED_JOIN_H_

#include <string>

#include "common/status.h"
#include "engine/merge_join.h"  // FuzzyJoinSpec, JoinEmit
#include "parallel/parallel_for.h"

namespace fuzzydb {

/// Instrumentation of one partitioned join.
struct PartitionedJoinStats {
  size_t partitions = 0;
  uint64_t outer_replicas = 0;  // outer tuples written, >= |R|
  double max_inner_width = 0.0;
};

/// Runs the partitioned fuzzy equijoin (spec.key_op must be kEq; key
/// columns must hold fuzzy values). Temporary partition files are
/// created as `temp_prefix + ".p<i>.{inner,outer}"` and removed before
/// returning. Page traffic flows through `pool`.
///
/// One partition pair is in memory at a time, loaded on the calling
/// thread (the BufferPool is not thread-safe). Each pair is joined by
/// PairJoin under `parallel` (null = serial, default morsel size):
/// morsel-parallel sorts and window scan, the key and each residual
/// folded per batch. Matches are emitted on the calling thread in
/// morsel order, so the emit sequence and `cpu` totals are identical
/// for every thread count at one morsel size; the morsel size can
/// reorder tied keys and moves the sorts' comparison counts. The
/// context's progress block, if any, is charged the join phase.
///
/// With `query` set, cancellation/deadline are polled per scanned tuple,
/// per partition and per morsel, each loaded partition pair is charged
/// against the memory budget while it is joined, and every early return
/// removes the partition temporaries before surfacing its status.
Status FilePartitionedJoin(PageFile* outer, PageFile* inner, BufferPool* pool,
                           const FuzzyJoinSpec& spec, size_t num_partitions,
                           const std::string& temp_prefix, CpuStats* cpu,
                           const JoinEmit& emit,
                           PartitionedJoinStats* stats = nullptr,
                           const ParallelContext* parallel = nullptr,
                           ExecTrace* trace = nullptr,
                           QueryContext* query = nullptr);

}  // namespace fuzzydb

#endif  // FUZZYDB_ENGINE_PARTITIONED_JOIN_H_
