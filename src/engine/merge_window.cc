#include "engine/merge_window.h"

namespace fuzzydb {

WindowRange NextWindow(const std::vector<SupportBounds>& inner,
                       const SupportBounds& r, size_t* start, CpuStats* cpu) {
  const size_t n = inner.size();
  uint64_t comparisons = 0;
  size_t begin = *start;
  while (begin < n) {
    ++comparisons;
    if (inner[begin].end < r.begin) {
      ++begin;
    } else {
      break;
    }
  }
  *start = begin;
  size_t end = begin;
  while (end < n) {
    ++comparisons;
    if (inner[end].begin > r.end) break;
    ++end;
  }
  if (cpu != nullptr) {
    cpu->comparisons += comparisons;
    cpu->tuple_pairs += end - begin;
  }
  return WindowRange{begin, end};
}

}  // namespace fuzzydb
