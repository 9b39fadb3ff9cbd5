// One instrumentation hook per operator (DESIGN.md §6b). Every operator
// in src/engine/ and src/sort/ opens exactly one OpScope on the control
// thread. The op table fixes its span name, the one QueryPhase its self
// time is charged to, and the counters its rows feed; on close the
// scope writes the ExecTrace span, the QueryProgress phase slice and
// rows/pairs, and the EngineMetrics rows, batch and q-error series --
// each only when that store is attached or enabled. The clock is read
// once on open and once on close (not at all when neither a trace nor
// a progress block is attached), and both readings go to the span and
// the phase switch, so span self time and phase time are one
// measurement.
#ifndef FUZZYDB_OBS_OP_SCOPE_H_
#define FUZZYDB_OBS_OP_SCOPE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "engine/exec_stats.h"
#include "obs/query_registry.h"
#include "obs/trace.h"
#include "storage/io_stats.h"

namespace fuzzydb {

class Counter;
struct EngineMetrics;

/// Every operator that opens an OpScope, in op-table order.
enum class Op : uint8_t {
  // In-memory engine.
  kEvaluate,
  kSubquery,
  kPlanJoinOrder,
  kFilter,
  kDistinct,
  kIntervalSort,
  kMergeWindow,
  kNestedPairing,
  kGroupAggregate,
  kChainJoin,
  kEmit,
  kNaiveEvaluate,
  // File path.
  kQuery,
  kExternalSort,
  kMergeJoin,
  kNestedLoopJoin,
  kPartitionedJoin,
};

inline constexpr size_t kNumOps = 17;

/// One row of the op table.
struct OpSpec {
  const char* name;  // the span name
  QueryPhase phase;  // charged with the op's self time
  // What SetInputRows / SetOutputRows feed; null members feed nothing.
  Counter* EngineMetrics::*rows_in;
  Counter* EngineMetrics::*rows_out;
  void (QueryProgress::*progress_out)(uint64_t);
};

const OpSpec& SpecOf(Op op);

/// RAII scope of one operator activation. Either store may be null.
class OpScope {
 public:
  /// `cpu` / `io` point at the accumulators the operator tallies into
  /// (either may be null: that span delta stays zero).
  OpScope(Op op, ExecTrace* trace, QueryProgress* progress,
          const CpuStats* cpu = nullptr, const IoStats* io = nullptr,
          std::string detail = "");
  ~OpScope() { Close(); }

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  /// True when a trace is attached: trace-only work (planner estimates,
  /// detail strings) is worth doing only then.
  bool traced() const { return trace_ != nullptr; }

  void SetInputRows(uint64_t n) { input_rows_ = n; }
  void SetOutputRows(uint64_t n) { output_rows_ = n; }
  /// Rendered as est= and, against the output rows, recorded as q-error.
  void SetEstimatedRows(uint64_t n) { est_rows_ = n; }
  /// Adds batch-kernel invocations and the lanes they evaluated.
  void AddBatches(uint64_t batches, uint64_t rows) {
    batches_ += batches;
    batch_rows_ += rows;
  }
  void SetThreads(size_t n) {
    if (trace_ != nullptr) trace_->node(span_).threads = n;
  }
  void SetDetail(std::string detail) {
    if (trace_ != nullptr) trace_->node(span_).detail = std::move(detail);
  }

  /// Closes the op early (idempotent).
  void Close();

 private:
  const OpSpec* spec_;
  ExecTrace* trace_;
  QueryProgress* progress_;
  bool open_ = true;
  size_t span_ = 0;
  QueryPhase enclosing_phase_ = QueryPhase::kNone;
  const CpuStats* cpu_source_ = nullptr;
  const IoStats* io_source_ = nullptr;
  CpuStats cpu_before_;
  IoStats io_before_;
  uint64_t input_rows_ = TraceNode::kNoCount;
  uint64_t output_rows_ = TraceNode::kNoCount;
  uint64_t est_rows_ = TraceNode::kNoCount;
  uint64_t batches_ = 0;
  uint64_t batch_rows_ = 0;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_OBS_OP_SCOPE_H_
