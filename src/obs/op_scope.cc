#include "obs/op_scope.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "obs/metrics.h"

namespace fuzzydb {

namespace {

using Phase = QueryPhase;
using M = EngineMetrics;
using P = QueryProgress;

/// Indexed by Op. Operators that plan, or only wrap other operators,
/// charge kPlan, the residual phase; every nested loop -- naive
/// evaluation included -- charges kJoin.
constexpr std::array<OpSpec, kNumOps> kOpTable = {{
    {"evaluate", Phase::kPlan, nullptr, nullptr, nullptr},
    {"subquery", Phase::kPlan, nullptr, nullptr, nullptr},
    {"plan-join-order", Phase::kPlan, nullptr, nullptr, nullptr},
    {"filter", Phase::kFilter, &M::filter_rows_in, &M::filter_rows_out,
     nullptr},
    {"distinct", Phase::kFilter, nullptr, nullptr, nullptr},
    {"interval-sort", Phase::kSort, &M::sort_rows, nullptr, nullptr},
    {"merge-window", Phase::kWindow, nullptr, nullptr, &P::AddPairs},
    {"nested-pairing", Phase::kJoin, nullptr, nullptr, nullptr},
    {"group-aggregate", Phase::kJoin, nullptr, nullptr, nullptr},
    {"chain-join", Phase::kJoin, nullptr, nullptr, nullptr},
    {"emit", Phase::kEmit, nullptr, nullptr, &P::AddRows},
    {"naive-evaluate", Phase::kJoin, nullptr, &M::naive_rows_out, nullptr},
    {"query", Phase::kPlan, nullptr, nullptr, nullptr},
    {"external-sort", Phase::kSort, &M::sort_rows, nullptr, nullptr},
    {"merge-join", Phase::kJoin, &M::merge_join_rows_in,
     &M::merge_join_rows_out, nullptr},
    {"nested-loop-join", Phase::kJoin, &M::nested_loop_rows_in,
     &M::nested_loop_rows_out, nullptr},
    {"partitioned-join", Phase::kJoin, &M::partitioned_join_rows_in,
     &M::partitioned_join_rows_out, nullptr},
}};

/// Records one operator's q-error, max(est/act, act/est) with both
/// sides floored at one row, scaled by 100 (100 = perfect).
void RecordQError(EngineMetrics* m, uint64_t est, uint64_t act) {
  const double e = static_cast<double>(std::max<uint64_t>(est, 1));
  const double a = static_cast<double>(std::max<uint64_t>(act, 1));
  m->planner_q_error->Record(
      static_cast<uint64_t>(std::llround(std::max(e / a, a / e) * 100.0)));
}

}  // namespace

const OpSpec& SpecOf(Op op) { return kOpTable[static_cast<size_t>(op)]; }

OpScope::OpScope(Op op, ExecTrace* trace, QueryProgress* progress,
                 const CpuStats* cpu, const IoStats* io, std::string detail)
    : spec_(&SpecOf(op)), trace_(trace), progress_(progress) {
  if (trace_ == nullptr && progress_ == nullptr) return;
  const ExecTrace::Clock::time_point now = ExecTrace::Clock::now();
  if (trace_ != nullptr) {
    span_ = trace_->OpenSpan(spec_->name, std::move(detail), now);
    cpu_source_ = cpu;
    io_source_ = io;
    if (cpu_source_ != nullptr) cpu_before_ = *cpu_source_;
    if (io_source_ != nullptr) io_before_ = *io_source_;
  }
  if (progress_ != nullptr) {
    enclosing_phase_ = progress_->EnterPhase(spec_->phase, now);
  }
}

void OpScope::Close() {
  if (!open_) return;
  open_ = false;
  if (trace_ != nullptr || progress_ != nullptr) {
    const ExecTrace::Clock::time_point now = ExecTrace::Clock::now();
    if (trace_ != nullptr) {
      TraceNode& node = trace_->node(span_);
      if (cpu_source_ != nullptr) {
        node.cpu = cpu_source_->CheckedDelta(cpu_before_, &node.clamped);
      }
      if (io_source_ != nullptr) {
        node.io = io_source_->CheckedDelta(io_before_, &node.clamped);
      }
      node.input_rows = input_rows_;
      node.output_rows = output_rows_;
      node.est_rows = est_rows_;
      if (batches_ > 0) {
        node.batches = batches_;
        node.batch_rows = batch_rows_;
      }
      trace_->CloseSpan(span_, now);
    }
    if (progress_ != nullptr) progress_->SwitchTo(enclosing_phase_, now);
  }
  const bool has_output = output_rows_ != TraceNode::kNoCount;
  if (progress_ != nullptr && has_output && spec_->progress_out != nullptr) {
    (progress_->*spec_->progress_out)(output_rows_);
  }
  EngineMetrics* m = EngineMetrics::IfEnabled();
  if (m == nullptr) return;
  if (spec_->rows_in != nullptr && input_rows_ != TraceNode::kNoCount) {
    (m->*spec_->rows_in)->Add(input_rows_);
  }
  if (spec_->rows_out != nullptr && has_output) {
    (m->*spec_->rows_out)->Add(output_rows_);
  }
  if (batches_ > 0) {
    m->batch_batches->Add(batches_);
    m->batch_rows->Add(batch_rows_);
  }
  if (est_rows_ != TraceNode::kNoCount && has_output) {
    RecordQError(m, est_rows_, output_rows_);
  }
}

}  // namespace fuzzydb
