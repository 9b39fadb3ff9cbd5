// External merge sort over heap files.
//
// The paper sorts both join inputs on the interval order of Definition 3.1
// before the extended merge-join, using a commercial external sorter with
// a user-specified amount of memory [26]. This module plays that role:
// run generation bounded by `buffer_pages` of memory followed by k-way
// merging, all through the BufferPool so sort I/O is accounted (Table 3
// breaks response time into sorting vs merging/joining).
#ifndef FUZZYDB_SORT_EXTERNAL_SORT_H_
#define FUZZYDB_SORT_EXTERNAL_SORT_H_

#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "parallel/parallel_for.h"
#include "relational/tuple.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"

namespace fuzzydb {

class ExecTrace;
class QueryProgress;

/// Strict weak ordering over tuples.
using TupleLess = std::function<bool(const Tuple&, const Tuple&)>;

/// Instrumentation of one external sort.
struct SortStats {
  uint64_t input_tuples = 0;
  uint64_t runs_created = 0;
  uint64_t merge_passes = 0;
  uint64_t comparisons = 0;  // CPU-cost proxy reported by the benches
};

/// Sorts the tuples of `input` by `less` using at most `buffer_pages`
/// pages of main memory. Temporary run files are created as
/// `temp_prefix + ".runN"` and removed before returning. The sorted
/// output is written to a fresh file at `output_path`.
///
/// `min_record_size` pads records as in HeapFileWriter so that sorted
/// files keep the same page counts as their inputs.
///
/// With `parallel` set, each in-memory run is sorted with ParallelSort
/// (per-morsel runs + fixed merge tree) instead of one std::sort; run
/// contents, run boundaries, and all I/O are unchanged, and the
/// comparison count is identical for every thread count (though it may
/// differ from the plain-std::sort count of the serial default). Merge
/// passes stay on the calling thread: they are I/O-bound through the
/// BufferPool, which is not thread-safe.
///
/// With `trace` set, records an "external-sort" span whose comparison
/// count mirrors SortStats::comparisons and whose I/O delta is read from
/// the pool's local counters. With `progress` set, charges its time to
/// the sort phase.
///
/// With `query` set, the sort is governed: cancellation/deadline are
/// polled once per scanned/merged tuple and the in-memory sort buffer is
/// charged against the query's memory budget, so a stop request surfaces
/// within one tuple/page of work. Every early return -- governance or
/// I/O error -- removes all `.runN` temporaries before returning
/// (balanced budget, no leaked files).
Result<std::unique_ptr<PageFile>> ExternalSort(
    PageFile* input, BufferPool* pool, const TupleLess& less,
    const std::string& temp_prefix, const std::string& output_path,
    size_t buffer_pages, size_t min_record_size = 0,
    SortStats* stats = nullptr, const ParallelContext* parallel = nullptr,
    ExecTrace* trace = nullptr, QueryContext* query = nullptr,
    QueryProgress* progress = nullptr);

}  // namespace fuzzydb

#endif  // FUZZYDB_SORT_EXTERNAL_SORT_H_
