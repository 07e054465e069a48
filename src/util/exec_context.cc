#include "util/exec_context.h"

namespace idm::util {

// ---------------------------------------------------------------------------
// MemoryBudget

Status MemoryBudget::TryCharge(size_t bytes) {
  size_t after = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (limit_ > 0 && after > limit_) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        "memory budget exceeded: " + std::to_string(after) + " > " +
        std::to_string(limit_) + " bytes");
  }
  // Raise the high-water mark (racy max via CAS loop).
  size_t peak = peak_.load(std::memory_order_relaxed);
  while (after > peak &&
         !peak_.compare_exchange_weak(peak, after, std::memory_order_relaxed)) {
  }
  return Status::OK();
}

void MemoryBudget::Release(size_t bytes) {
  used_.fetch_sub(bytes, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// ExecContext

ExecContext::ExecContext(const Clock* clock, Limits limits)
    : clock_(clock),
      limits_(limits),
      start_micros_(clock != nullptr ? clock->NowMicros() : 0),
      budget_(limits.memory_limit_bytes) {}

void ExecContext::Cancel(Status reason) {
  if (reason.ok()) reason = Status::Cancelled("execution cancelled");
  Doom(std::move(reason));
}

void ExecContext::Doom(Status reason) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (doom_.ok()) doom_ = std::move(reason);
  }
  doomed_.store(true, std::memory_order_release);
}

Status ExecContext::DoomStatus() const {
  std::lock_guard<std::mutex> lock(mu_);
  return doom_;
}

Status ExecContext::status() const {
  if (!doomed()) return Status::OK();
  return DoomStatus();
}

Micros ExecContext::elapsed_micros() const {
  Micros elapsed = charged_.load(std::memory_order_relaxed);
  if (clock_ != nullptr) elapsed += clock_->NowMicros() - start_micros_;
  return elapsed;
}

Micros ExecContext::remaining_micros() const {
  if (limits_.deadline_micros <= 0) {
    return std::numeric_limits<Micros>::max();
  }
  Micros left = limits_.deadline_micros - elapsed_micros();
  return left > 0 ? left : 0;
}

Status ExecContext::Check() {
  if (doomed()) return DoomStatus();
  if (limits_.deadline_micros > 0 &&
      elapsed_micros() > limits_.deadline_micros) {
    Doom(Status::DeadlineExceeded(
        "deadline of " + std::to_string(limits_.deadline_micros) +
        "us exceeded"));
    return DoomStatus();
  }
  return Status::OK();
}

Status ExecContext::Tick(uint64_t n) {
  if (doomed()) return DoomStatus();

  uint64_t before = steps_.fetch_add(n, std::memory_order_relaxed);
  uint64_t after = before + n;

  if (limits_.cancel_at_step > 0 && after >= limits_.cancel_at_step &&
      before < limits_.cancel_at_step) {
    // Exactly one Tick crosses the injection point (fetch_add hands out
    // disjoint ranges), so the cancellation fires once, deterministically
    // by step count.
    Doom(Status::Cancelled("cancelled at step " +
                           std::to_string(limits_.cancel_at_step)));
    return DoomStatus();
  }
  if (limits_.max_steps > 0 && after > limits_.max_steps) {
    Doom(Status::ResourceExhausted(
        "step budget of " + std::to_string(limits_.max_steps) +
        " steps exceeded"));
    return DoomStatus();
  }
  if (limits_.micros_per_step > 0) {
    charged_.fetch_add(static_cast<Micros>(n) * limits_.micros_per_step,
                       std::memory_order_relaxed);
  }
  if (limits_.deadline_micros > 0) {
    // With a per-step cost the deadline comparison is pure arithmetic, so
    // it runs on every Tick and the doom step is exact. Otherwise the
    // clock is only consulted at stride boundaries.
    bool crossed_stride = before / kStride != after / kStride || n >= kStride;
    if (limits_.micros_per_step > 0 || crossed_stride) {
      if (elapsed_micros() > limits_.deadline_micros) {
        Doom(Status::DeadlineExceeded(
            "deadline of " + std::to_string(limits_.deadline_micros) +
            "us exceeded after " + std::to_string(after) + " steps"));
        return DoomStatus();
      }
    }
  }
  return Status::OK();
}

Status ExecContext::ChargeMemory(size_t bytes) {
  if (doomed()) return DoomStatus();
  Status charged = budget_.TryCharge(bytes);
  if (!charged.ok()) {
    Doom(charged);
    return DoomStatus();
  }
  return Status::OK();
}

void ExecContext::ReleaseMemory(size_t bytes) { budget_.Release(bytes); }

}  // namespace idm::util
