// Query-lifecycle governance: cooperative cancellation, deadlines, and
// per-query memory budgets.
//
// One QueryContext accompanies one query execution. Operators poll
// StopRequested() at morsel/page/tuple boundaries (an atomic load when no
// deadline is set; one steady_clock read otherwise) and return Check()
// when it fires, so a cancelled, timed-out, or over-budget query
// terminates with a well-formed CANCELLED / DEADLINE_EXCEEDED /
// RESOURCE_EXHAUSTED Status within one unit of work of the trigger --
// at any thread count, because ParallelFor also stops handing out
// morsels (see parallel/parallel_for.h).
//
// Everything here is thread-safe: Cancel() may be called from any thread
// (it is async-signal-safe -- a single relaxed atomic store -- so the
// shell's Ctrl-C handler can use it), and MemoryBudget charges may race
// from concurrent workers.
#ifndef FUZZYDB_COMMON_QUERY_CONTEXT_H_
#define FUZZYDB_COMMON_QUERY_CONTEXT_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace fuzzydb {

/// Process-wide interrupt epoch backing "cancel everything in flight"
/// (SIGINT in the shell, graceful drain in the server). Raise() is a
/// single relaxed fetch_add -- async-signal-safe -- and touches no
/// QueryContext memory, so there is no lifetime race with queries
/// finishing concurrently: each QueryContext captures the epoch at
/// construction and treats a later epoch as a cancel request. Queries
/// started after the interrupt see the new epoch at construction and
/// are unaffected.
class GlobalInterrupt {
 public:
  /// Requests cancellation of every query in flight. Async-signal-safe.
  static void Raise() { epoch_.fetch_add(1, std::memory_order_relaxed); }
  static uint64_t Epoch() { return epoch_.load(std::memory_order_relaxed); }

 private:
  static std::atomic<uint64_t> epoch_;
};

/// A per-query memory ceiling with checked accounting. Limit 0 (the
/// default) means unlimited; Charge still tracks usage so tests can
/// assert balanced accounting (used() == 0 after the query finishes,
/// success or failure).
class MemoryBudget {
 public:
  MemoryBudget() = default;
  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Sets the ceiling in bytes (0 = unlimited). Call before the query
  /// starts; not synchronized against in-flight charges.
  void set_limit(uint64_t bytes) { limit_ = bytes; }
  uint64_t limit() const { return limit_; }

  /// Reserves `bytes` against the budget. On denial nothing is charged,
  /// the denied bytes are recorded, and RESOURCE_EXHAUSTED is returned.
  Status Charge(uint64_t bytes);

  /// Returns bytes previously charged. Every successful Charge must be
  /// paired with a Release (RAII: ScopedBudget below).
  void Release(uint64_t bytes) {
    used_.fetch_sub(static_cast<int64_t>(bytes), std::memory_order_relaxed);
  }

  int64_t used() const { return used_.load(std::memory_order_relaxed); }
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t denied_bytes() const {
    return denied_.load(std::memory_order_relaxed);
  }

 private:
  uint64_t limit_ = 0;  // 0 = unlimited
  std::atomic<int64_t> used_{0};
  std::atomic<int64_t> peak_{0};
  std::atomic<uint64_t> denied_{0};
};

/// The governance handle threaded through ExecOptions into every
/// operator. Null pointers mean "ungoverned": all helpers below accept
/// nullptr and cost one pointer test.
class QueryContext {
 public:
  QueryContext() = default;
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// Requests cooperative cancellation. Async-signal-safe.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Arms a deadline `ms` milliseconds from now (monotonic clock); ms
  /// <= 0 has already expired. The deadline saturates: one past the
  /// clock's range (including +inf and NaN) never fires, instead of
  /// overflowing the clock's integer ticks. Call before the query starts.
  void set_deadline_after_ms(double ms) {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point now = Clock::now();
    const std::chrono::duration<double, Clock::period> after =
        std::chrono::duration<double, std::milli>(std::max(ms, 0.0));
    const std::chrono::duration<double, Clock::period> room =
        Clock::time_point::max() - now;
    has_deadline_ = true;
    deadline_ = after < room
                    ? now + std::chrono::duration_cast<Clock::duration>(after)
                    : Clock::time_point::max();
  }
  bool has_deadline() const { return has_deadline_; }

  /// True when the query should stop (cancel, expired deadline, or a
  /// denied memory charge). The fast path is one relaxed load; with a
  /// deadline armed it adds one steady_clock read until the deadline
  /// fires, after which the result is latched.
  bool StopRequested() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (GlobalInterrupt::Epoch() != interrupt_epoch_) {
      // A process-wide interrupt raised after this query started:
      // latch it as a plain cancel so Check() reports CANCELLED.
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    if (exhausted_.load(std::memory_order_relaxed)) return true;
    if (!has_deadline_) return false;
    if (deadline_hit_.load(std::memory_order_relaxed)) return true;
    if (std::chrono::steady_clock::now() >= deadline_) {
      deadline_hit_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// The Status to surface when StopRequested(): CANCELLED wins over
  /// DEADLINE_EXCEEDED wins over RESOURCE_EXHAUSTED; OK otherwise.
  Status Check() const;

  /// Charges the memory budget and, on denial, latches the stop flag so
  /// every worker winds down within one morsel.
  Status ChargeMemory(uint64_t bytes) {
    Status s = memory_.Charge(bytes);
    if (!s.ok()) exhausted_.store(true, std::memory_order_relaxed);
    return s;
  }
  void ReleaseMemory(uint64_t bytes) { memory_.Release(bytes); }

  MemoryBudget& memory() { return memory_; }
  const MemoryBudget& memory() const { return memory_; }

 private:
  // mutable: StopRequested() (const) latches a global interrupt here.
  mutable std::atomic<bool> cancelled_{false};
  std::atomic<bool> exhausted_{false};
  mutable std::atomic<bool> deadline_hit_{false};
  const uint64_t interrupt_epoch_ = GlobalInterrupt::Epoch();
  bool has_deadline_ = false;  // set before execution, read-only after
  std::chrono::steady_clock::time_point deadline_{};
  MemoryBudget memory_;
};

/// Null-tolerant helpers so operators don't branch on governance being
/// present.
inline bool QueryStopRequested(const QueryContext* ctx) {
  return ctx != nullptr && ctx->StopRequested();
}

inline Status CheckQuery(const QueryContext* ctx) {
  return ctx == nullptr ? Status::OK() : ctx->Check();
}

/// RAII budget reservation: releases whatever was successfully charged
/// when the scope closes, so error paths keep the accounting balanced.
class ScopedBudget {
 public:
  explicit ScopedBudget(QueryContext* ctx) : ctx_(ctx) {}
  ScopedBudget(const ScopedBudget&) = delete;
  ScopedBudget& operator=(const ScopedBudget&) = delete;
  ~ScopedBudget() { Reset(); }

  /// Charges `bytes` more; returns RESOURCE_EXHAUSTED (charging nothing)
  /// on denial. A null context charges nothing and always succeeds.
  Status Charge(uint64_t bytes) {
    if (ctx_ == nullptr) return Status::OK();
    FUZZYDB_RETURN_IF_ERROR(ctx_->ChargeMemory(bytes));
    bytes_ += bytes;
    return Status::OK();
  }

  /// Releases `bytes` of the earlier charges ahead of scope exit (e.g. a
  /// retiring merge-window tuple); clamped to what is still charged.
  void Release(uint64_t bytes) {
    if (ctx_ == nullptr || bytes == 0) return;
    if (bytes > bytes_) bytes = bytes_;
    ctx_->ReleaseMemory(bytes);
    bytes_ -= bytes;
  }

  /// Releases everything charged so far (idempotent).
  void Reset() {
    if (ctx_ != nullptr && bytes_ > 0) ctx_->ReleaseMemory(bytes_);
    bytes_ = 0;
  }

  uint64_t charged() const { return bytes_; }

 private:
  QueryContext* ctx_;
  uint64_t bytes_ = 0;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_COMMON_QUERY_CONTEXT_H_
