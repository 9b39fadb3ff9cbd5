// The (block) nested-loop join over heap files: the paper's baseline.
//
// Buffer policy from Section 9: "one buffer page is allocated to the
// inner relation and the rest to the outer relation in order to minimize
// I/O cost" -- the outer file is read once in blocks of (M - 1) pages and
// the inner file is re-scanned once per outer block, giving the
// b_R + ceil(b_R / (M-1)) * b_S I/O cost of Section 3.
#ifndef FUZZYDB_ENGINE_NESTED_LOOP_JOIN_H_
#define FUZZYDB_ENGINE_NESTED_LOOP_JOIN_H_

#include "common/status.h"
#include "engine/merge_join.h"  // FuzzyJoinSpec, JoinEmit

namespace fuzzydb {

/// Runs the block nested-loop join of `spec` with `buffer_pages` total
/// buffer pages (>= 2). Emits every pair with positive combined degree.
/// Page traffic is charged to `io`. With `trace` set, records a
/// "nested-loop-join" span; with `progress` set, charges its time to
/// the join phase. With `query` set, cancellation/deadline are
/// polled once per inner tuple and each resident outer block is charged
/// against the memory budget.
Status FileNestedLoopJoin(PageFile* outer, PageFile* inner, IoStats* io,
                          size_t buffer_pages, const FuzzyJoinSpec& spec,
                          CpuStats* cpu, const JoinEmit& emit,
                          ExecTrace* trace = nullptr,
                          QueryContext* query = nullptr,
                          QueryProgress* progress = nullptr);

}  // namespace fuzzydb

#endif  // FUZZYDB_ENGINE_NESTED_LOOP_JOIN_H_
