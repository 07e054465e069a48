// Unit tests for the query-execution governor (DESIGN.md §10): the
// MemoryBudget, ExecContext limit enforcement, cooperative cancellation of
// every thread sharing one context, and the GuardedPrefix hook that bounds
// expansion of lazy/infinite χ components.

#include "util/exec_context.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/content.h"
#include "util/clock.h"

namespace idm::util {
namespace {

// --- MemoryBudget ----------------------------------------------------------

TEST(MemoryBudgetTest, ChargesReleasesAndTracksPeak) {
  MemoryBudget budget(100);
  ASSERT_TRUE(budget.TryCharge(60).ok());
  EXPECT_EQ(budget.used(), 60u);
  EXPECT_EQ(budget.peak(), 60u);
  budget.Release(40);
  EXPECT_EQ(budget.used(), 20u);
  EXPECT_EQ(budget.peak(), 60u);  // the high-water mark never recedes
  ASSERT_TRUE(budget.TryCharge(70).ok());
  EXPECT_EQ(budget.peak(), 90u);
}

TEST(MemoryBudgetTest, RefusalLeavesNothingCharged) {
  MemoryBudget budget(100);
  ASSERT_TRUE(budget.TryCharge(80).ok());
  Status refused = budget.TryCharge(30);
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.used(), 80u);  // the failed charge rolled back fully
  EXPECT_EQ(budget.peak(), 80u);
}

TEST(MemoryBudgetTest, ZeroLimitAccountsWithoutRefusing) {
  MemoryBudget budget(0);
  ASSERT_TRUE(budget.TryCharge(1u << 30).ok());
  EXPECT_EQ(budget.used(), size_t{1} << 30);
}

// --- ExecContext limits ----------------------------------------------------

TEST(ExecContextTest, UnlimitedContextOnlyObserves) {
  ExecContext ctx(nullptr, ExecContext::Limits{});
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(ctx.Tick().ok());
  EXPECT_EQ(ctx.steps_used(), 1000u);
  EXPECT_FALSE(ctx.doomed());
  EXPECT_TRUE(ctx.status().ok());
  EXPECT_EQ(ctx.remaining_micros(), std::numeric_limits<Micros>::max());
}

TEST(ExecContextTest, StepBudgetDoomsOnTheCrossingTick) {
  ExecContext::Limits limits;
  limits.max_steps = 10;
  ExecContext ctx(nullptr, limits);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ctx.Tick().ok()) << "step " << i;
  Status overrun = ctx.Tick();
  EXPECT_EQ(overrun.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(overrun.IsRetryable());  // backoff clears budget pressure
  EXPECT_TRUE(ctx.doomed());
  // Doomed families never recover: every later check reports the doom.
  EXPECT_EQ(ctx.Tick().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.Check().code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(ctx.TickAlive());
}

TEST(ExecContextTest, CancelAtStepFiresExactlyOnTheCrossingTick) {
  ExecContext::Limits limits;
  limits.cancel_at_step = 5;
  ExecContext ctx(nullptr, limits);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ctx.Tick().ok()) << "step " << i;
  Status cancelled = ctx.Tick();  // the fifth step crosses the injection
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  EXPECT_EQ(ctx.status().code(), StatusCode::kCancelled);
}

TEST(ExecContextTest, SimulatedCostMakesDeadlinesDeterministic) {
  SimClock clock;
  const Micros start = clock.NowMicros();
  ExecContext::Limits limits;
  limits.deadline_micros = 50000;
  limits.micros_per_step = 1000;
  ExecContext ctx(&clock, limits);
  // charged = steps * 1000us; the deadline trips when charged > 50000us,
  // i.e. exactly on step 51, regardless of the hardware.
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(ctx.Tick().ok()) << "step " << i;
  Status overrun = ctx.Tick();
  EXPECT_EQ(overrun.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(overrun.IsRetryable());  // same budget would overrun again
  EXPECT_EQ(ctx.steps_used(), 51u);
  EXPECT_EQ(ctx.charged_micros(), 51000);
  // The context accumulates simulated cost; it never advances the clock
  // itself (the caller applies charged_micros() afterwards).
  EXPECT_EQ(clock.NowMicros(), start);
}

TEST(ExecContextTest, ClockDeadlineIsCheckedAtStrideBoundaries) {
  SimClock clock;
  ExecContext::Limits limits;
  limits.deadline_micros = 100;
  ExecContext ctx(&clock, limits);
  clock.AdvanceMicros(500);  // already past the deadline
  // Without a per-step cost the clock is consulted only every kStride
  // steps, so the first 127 ticks pass and the 128th dooms.
  for (uint64_t i = 1; i < ExecContext::kStride; ++i) {
    ASSERT_TRUE(ctx.Tick().ok()) << "step " << i;
  }
  EXPECT_EQ(ctx.Tick().code(), StatusCode::kDeadlineExceeded);
}

TEST(ExecContextTest, CheckCatchesDeadlineWithoutCountingWork) {
  SimClock clock;
  ExecContext::Limits limits;
  limits.deadline_micros = 100;
  ExecContext ctx(&clock, limits);
  EXPECT_TRUE(ctx.Check().ok());
  clock.AdvanceMicros(500);
  EXPECT_EQ(ctx.Check().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ctx.steps_used(), 0u);
}

TEST(ExecContextTest, RemainingMicrosShrinksAndFloorsAtZero) {
  SimClock clock;
  ExecContext::Limits limits;
  limits.deadline_micros = 1000;
  ExecContext ctx(&clock, limits);
  EXPECT_EQ(ctx.remaining_micros(), 1000);
  clock.AdvanceMicros(400);
  EXPECT_EQ(ctx.remaining_micros(), 600);
  clock.AdvanceMicros(2000);
  EXPECT_EQ(ctx.remaining_micros(), 0);
}

TEST(ExecContextTest, CancelWithOkReasonBecomesCancelled) {
  ExecContext ctx(nullptr, ExecContext::Limits{});
  ctx.Cancel(Status::OK());
  EXPECT_EQ(ctx.status().code(), StatusCode::kCancelled);
}

// --- one context shared across threads ------------------------------------

TEST(ExecContextTest, FirstOverrunCancelsSiblingWorkers) {
  ExecContext::Limits limits;
  limits.cancel_at_step = 1000;
  ExecContext ctx(nullptr, limits);
  // Threads that share one context, as federation's peer workers share the
  // caller's, all stop at the first overrun.
  std::atomic<int> stopped{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&ctx, &stopped] {
      while (ctx.TickAlive()) {
      }
      EXPECT_TRUE(ctx.doomed());
      stopped.fetch_add(1);
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(stopped.load(), 4);
  EXPECT_GE(ctx.steps_used(), 1000u);
  EXPECT_EQ(ctx.status().code(), StatusCode::kCancelled);
}

TEST(ScopedChargeTest, ReleasesTheReservationOnDestruction) {
  ExecContext::Limits limits;
  limits.memory_limit_bytes = 100;
  ExecContext ctx(nullptr, limits);
  {
    ScopedCharge charge(&ctx);
    ASSERT_TRUE(charge.Add(80).ok());
    EXPECT_TRUE(ctx.Check().ok());
  }
  // The 80 bytes were returned: a fresh reservation of 80 fits again.
  EXPECT_TRUE(ctx.ChargeMemory(80).ok());
  EXPECT_EQ(ctx.bytes_peak(), 80u);
}

TEST(ScopedChargeTest, NullContextNoOps) {
  ScopedCharge charge(nullptr);
  EXPECT_TRUE(charge.Add(1u << 30).ok());
}

// --- GuardedPrefix over infinite content -----------------------------------

core::ContentComponent InfiniteTicker() {
  return core::ContentComponent::OfInfinite(
      [](uint64_t) { return std::string(16, 'x'); });
}

TEST(GuardedPrefixTest, DeadlineStopsAnInfiniteExpansionWithAPrefix) {
  SimClock clock;
  ExecContext::Limits limits;
  limits.deadline_micros = 3000;
  limits.micros_per_step = 1000;  // doom on the 4th produced chunk
  ExecContext ctx(&clock, limits);
  core::ContentComponent infinite = InfiniteTicker();
  ASSERT_FALSE(infinite.finite());
  std::string prefix = infinite.GuardedPrefix(size_t{1} << 20, &ctx);
  EXPECT_TRUE(ctx.doomed());
  EXPECT_EQ(ctx.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(prefix.size(), 0u);
  EXPECT_LE(prefix.size(), 5u * 16u);  // stopped after a handful of chunks
  for (char c : prefix) ASSERT_EQ(c, 'x');
}

TEST(GuardedPrefixTest, MemoryBudgetStopsAnInfiniteExpansion) {
  ExecContext::Limits limits;
  limits.memory_limit_bytes = 40;
  ExecContext ctx(nullptr, limits);
  std::string prefix = InfiniteTicker().GuardedPrefix(size_t{1} << 20, &ctx);
  EXPECT_EQ(ctx.status().code(), StatusCode::kResourceExhausted);
  EXPECT_LE(prefix.size(), 48u);  // at most two 16-byte chunks fit in 40
}

TEST(GuardedPrefixTest, NullContextEqualsPrefix) {
  core::ContentComponent content =
      core::ContentComponent::OfString("hello world");
  EXPECT_EQ(content.GuardedPrefix(5, nullptr), content.Prefix(5));
  EXPECT_EQ(content.GuardedPrefix(5, nullptr), "hello");
}

}  // namespace
}  // namespace idm::util
