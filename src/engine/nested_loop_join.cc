#include "engine/nested_loop_join.h"

#include <algorithm>

#include "common/query_context.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fuzzydb {

Status FileNestedLoopJoin(PageFile* outer, PageFile* inner, IoStats* io,
                          size_t buffer_pages, const FuzzyJoinSpec& spec,
                          CpuStats* cpu, const JoinEmit& emit,
                          ExecTrace* trace, QueryContext* query) {
  if (buffer_pages < 2) {
    return Status::InvalidArgument("nested-loop join needs >= 2 buffer pages");
  }
  TraceScope span(trace, "nested-loop-join", cpu, io,
                  "block=" + std::to_string(buffer_pages - 1) + "p");
  uint64_t outer_rows = 0;
  uint64_t emitted = 0;
  // Dedicated pools so the inner relation really only gets one page of
  // buffer, as in the paper's setup.
  BufferPool outer_pool(buffer_pages - 1, io);
  BufferPool inner_pool(1, io);

  const PageId outer_pages = outer->NumPages();
  const PageId block_size = static_cast<PageId>(buffer_pages - 1);

  for (PageId block_start = 0; block_start < outer_pages;
       block_start += block_size) {
    const PageId block_end =
        std::min<PageId>(block_start + block_size, outer_pages);

    // Load the outer block into memory, charging it against the budget
    // for the duration of this block's inner scan. current_page() names
    // the page of the next unread tuple, so this consumes exactly the
    // block's pages.
    std::vector<Tuple> block;
    ScopedBudget block_budget(query);
    {
      HeapFileScanner scan(outer, &outer_pool);
      scan.SeekToPage(block_start);
      Tuple t;
      bool has = false;
      while (scan.current_page() < block_end) {
        FUZZYDB_RETURN_IF_ERROR(CheckQuery(query));
        FUZZYDB_RETURN_IF_ERROR(scan.Next(&t, &has));
        if (!has) break;
        ++outer_rows;
        FUZZYDB_RETURN_IF_ERROR(block_budget.Charge(SerializedTupleSize(t)));
        block.push_back(std::move(t));
        t = Tuple();
      }
    }

    // One full scan of the inner relation for this block.
    HeapFileScanner inner_scan(inner, &inner_pool);
    Tuple s;
    bool has_s = false;
    while (true) {
      FUZZYDB_RETURN_IF_ERROR(CheckQuery(query));
      FUZZYDB_RETURN_IF_ERROR(inner_scan.Next(&s, &has_s));
      if (!has_s) break;
      for (const Tuple& r : block) {
        if (cpu != nullptr) ++cpu->tuple_pairs;
        const double d = spec.PairDegree(r, s, cpu);
        if (d > 0.0) {
          ++emitted;
          FUZZYDB_RETURN_IF_ERROR(emit(r, s, d));
        }
      }
    }
  }
  if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
    m->nested_loop_rows_in->Add(outer_rows);
    m->nested_loop_rows_out->Add(emitted);
  }
  span.SetInputRows(outer_rows);
  span.SetOutputRows(emitted);
  return Status::OK();
}

}  // namespace fuzzydb
