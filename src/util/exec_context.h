// Resource governance for query execution (DESIGN.md §10).
//
// iDM resource views may have *lazy and infinite* content and group
// components (paper §2, §4.1), so a single evaluation can legitimately try
// to materialize unbounded work. ExecContext is the cooperative governor
// threaded through every execution loop: a deadline on the clock, a
// cancellation flag, a step budget, and a memory budget.
//
// One context governs one query. The caller creates it; the VM evaluates
// the query serially under it, and a federated query passes the same
// context to every peer it scatters to. Its state is atomic (the doom
// reason is mutex-guarded), so threads that share one context observe the
// first overrun at their next Tick() and unwind — first overrun cancels
// every worker.
//
// Checks are cheap by construction: Tick() is one relaxed fetch_add on the
// step counter; the clock is consulted only every kStride counted
// steps (or on every step when a simulated per-step cost makes the
// comparison pure arithmetic). Code that is handed a nullptr context runs
// exactly as before — governance off is the zero-cost default.

#ifndef IDM_UTIL_EXEC_CONTEXT_H_
#define IDM_UTIL_EXEC_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>

#include "util/clock.h"
#include "util/status.h"

namespace idm::util {

/// Byte budget. Thread-safe; Release() must not exceed what the same
/// caller charged.
class MemoryBudget {
 public:
  /// \p limit_bytes == 0 means "account but never refuse".
  explicit MemoryBudget(size_t limit_bytes) : limit_(limit_bytes) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Reserves \p bytes. On overrun nothing remains charged and
  /// kResourceExhausted is returned.
  Status TryCharge(size_t bytes);

  /// Returns \p bytes to the budget.
  void Release(size_t bytes);

  size_t limit() const { return limit_; }
  size_t used() const { return used_.load(std::memory_order_relaxed); }
  /// High-water mark of used().
  size_t peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  const size_t limit_;
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_{0};
};

/// Per-query governor: deadline, cancellation, step budget, memory budget.
/// See the file comment for how threads share one.
class ExecContext {
 public:
  /// All limits default to 0 = "unlimited"; a context with no limit set
  /// still counts steps and bytes (observability without enforcement).
  struct Limits {
    /// Simulated/wall time budget measured on the clock from context
    /// creation, plus any simulated evaluation cost charged via
    /// micros_per_step. Overrun -> kDeadlineExceeded.
    Micros deadline_micros = 0;
    /// Evaluation-step budget of the query. Overrun -> kResourceExhausted.
    uint64_t max_steps = 0;
    /// Test hook: the context is cancelled (kCancelled) when the step
    /// counter crosses this value. Exact: the crossing Tick fails.
    uint64_t cancel_at_step = 0;
    /// Byte budget of the MemoryBudget. Overrun -> kResourceExhausted.
    size_t memory_limit_bytes = 0;
    /// Simulated evaluation cost charged per counted step. With a SimClock
    /// this is what makes deadlines *deterministic*: the doom step is
    /// ceil(deadline / micros_per_step), independent of the hardware.
    /// Callers may apply charged_micros() to the clock afterwards.
    Micros micros_per_step = 0;

    /// True when any limit is set (the context would ever refuse work).
    bool any() const {
      return deadline_micros > 0 || max_steps > 0 || cancel_at_step > 0 ||
             memory_limit_bytes > 0 || micros_per_step > 0;
    }
  };

  /// Deadline checks read the clock every kStride steps (unless a per-step
  /// cost makes every-step checks pure arithmetic).
  static constexpr uint64_t kStride = 128;

  /// \p clock may be nullptr (deadline then measures only simulated
  /// per-step cost).
  ExecContext(const Clock* clock, Limits limits);

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Cooperatively cancels the query with \p reason.
  void Cancel(Status reason);

  /// True once any limit overran or Cancel() was called. A doomed context
  /// never recovers; every subsequent Tick()/Check() returns status().
  bool doomed() const { return doomed_.load(std::memory_order_acquire); }

  /// OK while live; the first doom reason afterwards.
  Status status() const;

  /// Counts \p n units of work and enforces the limits. Returns OK or the
  /// doom status. This is the bounded-stride check every execution loop
  /// calls.
  Status Tick(uint64_t n = 1);

  /// Tick() for loops that cannot propagate a Status: false means "stop,
  /// the context is doomed" (the caller's caller reports status()).
  bool TickAlive(uint64_t n = 1) { return Tick(n).ok(); }

  /// Full check without counting work (admission points, loop preambles).
  Status Check();

  /// Reserves bytes against this context's memory budget; dooms the
  /// context on overrun.
  Status ChargeMemory(size_t bytes);
  void ReleaseMemory(size_t bytes);

  // --- observability -------------------------------------------------------
  uint64_t steps_used() const {
    return steps_.load(std::memory_order_relaxed);
  }
  /// High-water mark of the memory budget.
  size_t bytes_peak() const { return budget_.peak(); }
  /// Simulated evaluation cost accumulated via micros_per_step.
  Micros charged_micros() const {
    return charged_.load(std::memory_order_relaxed);
  }
  /// Clock time since creation plus simulated evaluation cost.
  Micros elapsed_micros() const;
  /// Micros left before the deadline (never negative); max() when no
  /// deadline is set. Federation derives per-peer deadlines from this.
  Micros remaining_micros() const;

  const Clock* clock() const { return clock_; }
  const Limits& limits() const { return limits_; }

 private:
  /// Records \p reason as the doom (first writer wins).
  void Doom(Status reason);
  Status DoomStatus() const;

  const Clock* const clock_;
  const Limits limits_;
  const Micros start_micros_;
  std::atomic<uint64_t> steps_{0};
  std::atomic<Micros> charged_{0};
  std::atomic<bool> doomed_{false};
  mutable std::mutex mu_;
  Status doom_;  ///< guarded by mu_; set exactly once
  MemoryBudget budget_;
};

/// RAII memory reservation against an ExecContext (which may be nullptr:
/// everything no-ops). Releases whatever was charged on destruction.
class ScopedCharge {
 public:
  explicit ScopedCharge(ExecContext* ctx) : ctx_(ctx) {}
  ~ScopedCharge() {
    if (ctx_ != nullptr && bytes_ > 0) ctx_->ReleaseMemory(bytes_);
  }
  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;

  /// Adds \p bytes to the reservation; dooms the context on overrun.
  Status Add(size_t bytes) {
    if (ctx_ == nullptr) return Status::OK();
    IDM_RETURN_NOT_OK(ctx_->ChargeMemory(bytes));
    bytes_ += bytes;
    return Status::OK();
  }

 private:
  ExecContext* ctx_;
  size_t bytes_ = 0;
};

}  // namespace idm::util

#endif  // IDM_UTIL_EXEC_CONTEXT_H_
