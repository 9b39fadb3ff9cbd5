// Per-operator execution traces: the observability layer behind
// EXPLAIN ANALYZE, the Chrome trace export, and the benchmarks'
// operator-level JSON breakdowns.
//
// An ExecTrace is a tree of spans, one TraceNode per operator instance
// (filter, interval sort, merge window, aggregation, external sort,
// file join, ...). Each operator's OpScope (obs/op_scope.h) opens its
// span and on close records its wall time and the *deltas* of the
// CpuStats/IoStats accumulators the operator tallies into, folded from
// per-worker slots at the parallel barriers. Spans open and close on
// the control thread, outside those barriers, so every recorded counter
// delta is thread-count-invariant: the same query yields the same trace
// (names, cardinalities, counters) on 1 or 16 threads; only wall times
// differ. Deltas use the checked helpers (CpuStats::CheckedDelta,
// IoStats::CheckedDelta), which clamp at zero and flag instead of
// wrapping, so a mis-nested span never reports 2^64-ish counters.
#ifndef FUZZYDB_OBS_TRACE_H_
#define FUZZYDB_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/exec_stats.h"
#include "storage/io_stats.h"

namespace fuzzydb {

/// One operator instance in an execution trace. Counter fields are
/// *inclusive*: a parent span's deltas cover its children (use
/// ExecTrace::SelfCpu for the exclusive share).
struct TraceNode {
  /// Sentinel for "the operator did not report this cardinality".
  static constexpr uint64_t kNoCount = ~uint64_t{0};

  std::string name;    // operator, e.g. "merge-window"
  std::string detail;  // annotation, e.g. the query type or table name
  double start_seconds = 0.0;  // offset from the trace epoch
  double wall_seconds = 0.0;
  CpuStats cpu;  // counter deltas over the span (inclusive)
  IoStats io;    // page-traffic deltas over the span (inclusive)
  uint64_t input_rows = kNoCount;
  uint64_t output_rows = kNoCount;
  /// Planner-estimated output cardinality (EXPLAIN ANALYZE renders it as
  /// "est=N" next to the actual rows; the estimator-accuracy gate
  /// computes per-operator q-error from est_rows vs rows_out). kNoCount
  /// when the operator ran without a cost-based estimate (--no-cbo, or
  /// an operator the planner does not estimate).
  uint64_t est_rows = kNoCount;
  /// Batch execution (docs/architecture.md): batch-kernel invocations
  /// inside the span and the lanes they evaluated. kNoCount when the
  /// operator had no batchable work.
  /// Like the counter deltas these are thread-count-invariant, but they
  /// *do* vary with ExecOptions::batch_size, so they are deliberately
  /// not part of the determinism signature in parallel_test.cc.
  uint64_t batches = kNoCount;
  uint64_t batch_rows = kNoCount;
  size_t threads = 1;    // worker slots the operator ran with
  bool clamped = false;  // a counter delta was clamped (snapshot misuse)
  std::vector<size_t> children;  // indices into ExecTrace::nodes()
};

/// A tree of operator spans for one (or several) query executions.
/// Spans must open and close on one thread in LIFO order; parallel
/// operators fold their per-worker tallies before their span closes.
class ExecTrace {
 public:
  /// The span clock. OpScope reads it once per open and once per close
  /// and hands the same readings to QueryProgress, so span times and
  /// phase times are one measurement.
  using Clock = std::chrono::steady_clock;

  ExecTrace() : epoch_(Clock::now()) {}

  /// Opens a span at time `at` as a child of the innermost open span
  /// (or as a root). Returns the node id used by CloseSpan and node().
  size_t OpenSpan(std::string name, std::string detail = "",
                  Clock::time_point at = Clock::now());

  /// Closes span `id` at time `at`, recording its wall time.
  /// Out-of-order closes are tolerated by closing every span opened
  /// after `id` first.
  void CloseSpan(size_t id, Clock::time_point at = Clock::now());

  TraceNode& node(size_t id) { return nodes_[id]; }
  const std::vector<TraceNode>& nodes() const { return nodes_; }
  const std::vector<size_t>& roots() const { return roots_; }
  bool empty() const { return nodes_.empty(); }

  /// Number of spans still open. A well-formed trace — including one cut
  /// short by a throwing operator — ends at zero: OpScope destructors
  /// close their spans during unwinding.
  size_t open_span_count() const { return open_.size(); }

  /// Sum of the root spans' inclusive deltas. When every operator of a
  /// run is spanned, these equal the run's whole-query totals.
  CpuStats TotalCpu() const;
  IoStats TotalIo() const;

  /// Exclusive share of node `id`: its inclusive delta minus its
  /// children's (clamped, never negative).
  CpuStats SelfCpu(size_t id) const;

  /// The annotated tree, one indented line per span, e.g.
  ///   merge-window [R.Y=S.Z] wall=1.234ms rows=300 threads=4
  ///       cpu={pairs=900 degrees=450 cmp=1700 subq=0}
  /// `include_timing` = false drops the wall= fields (golden tests).
  std::string ToString(bool include_timing = true) const;

  /// Chrome trace_event JSON ("ph":"X" complete events, microsecond
  /// timestamps); load in chrome://tracing or Perfetto.
  std::string ToChromeTraceJson() const;

  /// Machine-readable per-operator summary: a JSON array, one object
  /// per span in preorder, with depth/wall/counters/cardinalities.
  std::string ToJsonSummary() const;

 private:
  void AppendText(size_t id, int depth, bool include_timing,
                  std::string* out) const;
  void AppendSummary(size_t id, int depth, bool* first,
                     std::string* out) const;

  /// Seconds from the trace epoch to `at`.
  double SecondsAt(Clock::time_point at) const {
    return std::chrono::duration<double>(at - epoch_).count();
  }

  Clock::time_point epoch_;
  std::vector<TraceNode> nodes_;
  std::vector<size_t> roots_;
  std::vector<size_t> open_;  // stack of open span ids
};

}  // namespace fuzzydb

#endif  // FUZZYDB_OBS_TRACE_H_
