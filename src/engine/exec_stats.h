// Execution statistics: the units in which the paper reports costs.
#ifndef FUZZYDB_ENGINE_EXEC_STATS_H_
#define FUZZYDB_ENGINE_EXEC_STATS_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/io_stats.h"

namespace fuzzydb {

/// CPU-side work counters. The paper's CPU cost is dominated by "calls to
/// the fuzzy library functions and the number of comparisons for merge and
/// join" (Section 9); we count both.
///
/// CpuStats is mergeable: parallel operators tally into one thread-local
/// instance per worker and fold them with += at the barrier, which keeps
/// the totals exact without atomics on the hot path.
struct CpuStats {
  uint64_t tuple_pairs = 0;        // pairs examined by a join
  uint64_t degree_evaluations = 0; // fuzzy predicate evaluations
  uint64_t comparisons = 0;        // order comparisons (sort + merge)
  uint64_t subquery_evaluations = 0;  // inner-block evaluations (naive)

  /// The counter fields, as one list so the arithmetic below cannot fall
  /// out of sync when a counter is added.
  static constexpr std::array<uint64_t CpuStats::*, 4> Counters() {
    return {&CpuStats::tuple_pairs, &CpuStats::degree_evaluations,
            &CpuStats::comparisons, &CpuStats::subquery_evaluations};
  }

  void Reset() { *this = CpuStats{}; }

  CpuStats& operator+=(const CpuStats& other) {
    for (auto counter : Counters()) this->*counter += other.*counter;
    return *this;
  }

  /// Counter-wise difference; `other` must be an earlier snapshot of the
  /// same accumulator, so no counter may run backwards.
  CpuStats operator-(const CpuStats& other) const {
    CpuStats d;
    for (auto counter : Counters()) {
      assert(this->*counter >= other.*counter && "CpuStats underflow");
      d.*counter = this->*counter - other.*counter;
    }
    return d;
  }

  /// Counter-wise difference that clamps instead of wrapping. operator-
  /// is underflow-checked only by a debug assert; in a Release build a
  /// violated snapshot discipline would wrap to ~2^64. Trace deltas (and
  /// any subtraction whose snapshot ordering cannot be proven locally)
  /// use this helper: a counter that would go negative yields 0 and sets
  /// *clamped (may be null) so the consumer can flag the span.
  CpuStats CheckedDelta(const CpuStats& earlier,
                        bool* clamped = nullptr) const {
    CpuStats d;
    for (auto counter : Counters()) {
      if (this->*counter >= earlier.*counter) {
        d.*counter = this->*counter - earlier.*counter;
      } else if (clamped != nullptr) {
        *clamped = true;
      }
    }
    return d;
  }

  friend CpuStats operator+(CpuStats lhs, const CpuStats& rhs) {
    lhs += rhs;
    return lhs;
  }

  bool operator==(const CpuStats&) const = default;
};

/// RAII fold of per-worker CpuStats slots into a total accumulator.
/// Parallel operators used to fold with a plain loop after the barrier,
/// which a throwing morsel body skipped — leaving the enclosing trace
/// span with zero deltas. Declare a folder *after* the operator's
/// OpScope (and before launching workers): during unwinding it runs
/// first, so the fold lands before the span snapshots its delta whether
/// the operator returns or throws. Fold() folds early and disarms (the
/// success path, so totals are available before scope exit).
class CpuStatsFolder {
 public:
  CpuStatsFolder(const std::vector<CpuStats>* slots, CpuStats* total)
      : slots_(slots), total_(total) {}
  ~CpuStatsFolder() { Fold(); }
  CpuStatsFolder(const CpuStatsFolder&) = delete;
  CpuStatsFolder& operator=(const CpuStatsFolder&) = delete;

  void Fold() {
    if (slots_ == nullptr || total_ == nullptr) return;
    for (const CpuStats& slot : *slots_) *total_ += slot;
    slots_ = nullptr;  // fold exactly once
  }

 private:
  const std::vector<CpuStats>* slots_;
  CpuStats* total_;
};

/// Everything a measured query run reports.
struct ExecStats {
  CpuStats cpu;
  IoStats io;
  double sort_seconds = 0.0;   // time spent sorting (Table 3)
  double join_seconds = 0.0;   // time spent merging/joining
  double total_seconds = 0.0;  // response time
  double cpu_seconds = 0.0;    // process CPU time

  void Reset() { *this = ExecStats{}; }

  std::string ToString() const;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_ENGINE_EXEC_STATS_H_
