// The resilience layer end to end: FlakySource (deterministic fault
// injection) against ResilientSource (retry + circuit breaker) and the
// partial-failure semantics of SyncSource / Poll.
//
// Everything runs on the SimClock: backoff, cooldowns and injected latency
// are charged as simulated time, so these scenarios replay bit-identically
// and never wall-sleep.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "rvm/flaky_source.h"
#include "rvm/resilient_source.h"
#include "rvm/rvm.h"

namespace idm::rvm {
namespace {

/// Catalog fingerprint: the sorted live (uri, class) pairs — two modules
/// with equal fingerprints indexed the same dataspace state.
std::vector<std::string> CatalogFingerprint(const ReplicaIndexesModule& m) {
  std::vector<std::string> entries;
  for (index::DocId id : m.catalog().LiveIds()) {
    const index::CatalogEntry* entry = m.catalog().Entry(id);
    entries.push_back(entry->uri + "|" + std::string(entry->class_name));
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_shared<SimClock>();
    fs_ = std::make_shared<vfs::VirtualFileSystem>(clock_.get());
    ASSERT_TRUE(fs_->CreateFolder("/docs").ok());
    for (int i = 0; i < 12; ++i) {
      std::string path = "/docs/note" + std::to_string(i) + ".txt";
      ASSERT_TRUE(
          fs_->WriteFile(path, "resilient note number " + std::to_string(i))
              .ok());
    }
    ASSERT_TRUE(fs_->CreateFolder("/archive").ok());
    ASSERT_TRUE(fs_->WriteFile("/archive/old.txt", "archived words").ok());
  }

  /// The mutation both the reference and the flaky runs apply between the
  /// initial indexing and the sync round.
  void MutateFilesystem() {
    ASSERT_TRUE(fs_->WriteFile("/docs/fresh.txt", "newly created file").ok());
    ASSERT_TRUE(fs_->WriteFile("/docs/note3.txt", "rewritten content").ok());
    ASSERT_TRUE(fs_->Remove("/archive/old.txt").ok());
  }

  std::shared_ptr<SimClock> clock_;
  std::shared_ptr<vfs::VirtualFileSystem> fs_;
};

TEST_F(ResilienceTest, FlakySourceInjectsWithoutTouchingThePlugin) {
  FaultInjector injector(11, clock_.get());
  injector.ScheduleFault(0, FaultKind::kUnavailable);
  auto inner = std::make_shared<FileSystemSource>("Filesystem", fs_);
  FlakySource flaky(inner, &injector);

  EXPECT_EQ(flaky.name(), "Filesystem");
  EXPECT_EQ(flaky.TotalBytes(), inner->TotalBytes());
  auto first = flaky.RootView();
  EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);
  auto second = flaky.RootView();  // op 1 is not scripted: passes through
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(injector.ops_total(), 2u);
}

// The acceptance scenario: at a 20 % per-op fault rate, a plain sync loses
// work (fails or records skipped subtrees), while the resilient stack
// converges to exactly the fault-free catalog — with every backoff charged
// to the SimClock instead of wall-sleeping.
TEST_F(ResilienceTest, ResilientSyncConvergesUnderTwentyPercentFaults) {
  // Three independent modules index the same pre-mutation filesystem: a
  // fault-free reference, a plain flaky stack, and a resilient flaky stack.
  ReplicaIndexesModule reference;
  FileSystemSource plain("Filesystem", fs_);
  ASSERT_TRUE(reference.IndexSource(plain, ConverterRegistry::Standard()).ok());

  ReplicaIndexesModule plain_module;
  FaultInjector plain_injector(1234, clock_.get());
  auto flaky = std::make_shared<FlakySource>(
      std::make_shared<FileSystemSource>("Filesystem", fs_), &plain_injector);
  ASSERT_TRUE(
      plain_module.IndexSource(*flaky, ConverterRegistry::Standard()).ok());

  ReplicaIndexesModule resilient_module;
  FaultInjector resilient_injector(1234, clock_.get());
  ResilientSource::Options options;
  options.retry.max_attempts = 8;
  options.retry.initial_backoff_micros = 1000;
  // At a steady 20 % the breaker must not trip: it guards against dead
  // sources, not against background flakiness.
  options.breaker.failure_threshold = 50;
  ResilientSource resilient(
      std::make_shared<FlakySource>(
          std::make_shared<FileSystemSource>("Filesystem", fs_),
          &resilient_injector),
      clock_.get(), options);
  ASSERT_TRUE(
      resilient_module.IndexSource(resilient, ConverterRegistry::Standard())
          .ok());

  // Mutate behind everyone's back, then switch the injectors to a 20 %
  // per-op fault rate for the sync round.
  MutateFilesystem();
  FaultConfig faults;
  faults.fault_probability = 0.2;
  plain_injector.set_config(faults);
  resilient_injector.set_config(faults);

  // --- Reference: fault-free sync -----------------------------------------
  auto ref_sync = reference.SyncSource(plain, ConverterRegistry::Standard());
  ASSERT_TRUE(ref_sync.ok()) << ref_sync.status();
  EXPECT_EQ(ref_sync->failed, 0u);
  std::vector<std::string> want = CatalogFingerprint(reference);

  // --- Plain sync under 20 % faults loses work ----------------------------
  auto plain_sync =
      plain_module.SyncSource(*flaky, ConverterRegistry::Standard());
  // Under sustained faults the plain stack either aborts the round or
  // skips subtrees and records them — it does not converge.
  bool lost_work = !plain_sync.ok() || plain_sync->failed > 0;
  EXPECT_TRUE(lost_work);
  if (plain_sync.ok() && plain_sync->failed > 0) {
    EXPECT_FALSE(plain_sync->failed_uris.empty());
  }

  // --- Resilient stack over the same fault rate converges ------------------
  Micros sim_before = clock_->NowMicros();
  auto sync =
      resilient_module.SyncSource(resilient, ConverterRegistry::Standard());
  ASSERT_TRUE(sync.ok()) << sync.status();
  EXPECT_EQ(sync->failed, 0u);
  EXPECT_EQ(sync->removed, ref_sync->removed);

  // Identical catalog state as the fault-free run.
  EXPECT_EQ(CatalogFingerprint(resilient_module), want);
  // Same content-index state: the rewritten file is findable, the removed
  // one is gone.
  EXPECT_FALSE(
      resilient_module.content().PhraseQuery("rewritten content").empty());
  EXPECT_TRUE(resilient_module.content().PhraseQuery("archived words").empty());

  // Faults really were injected and survived via retries...
  EXPECT_GT(resilient_injector.faults_injected(), 0u);
  EXPECT_GT(resilient.stats().retries, 0u);
  EXPECT_EQ(resilient.stats().exhausted, 0u);
  // ...and every backoff microsecond was charged to the SimClock (no
  // wall-clock sleeping anywhere in the stack).
  EXPECT_GT(resilient.stats().backoff_micros, 0);
  EXPECT_GE(clock_->NowMicros() - sim_before, resilient.stats().backoff_micros);
}

// A transient probe error during SyncSource must not be mistaken for a
// deletion: the subtree survives, the failure is recorded, and the next
// clean round still detects a real removal.
TEST_F(ResilienceTest, TransientProbeErrorDoesNotPurgeTheSubtree) {
  ReplicaIndexesModule module;
  FaultInjector injector(5, clock_.get());
  auto flaky = std::make_shared<FlakySource>(
      std::make_shared<FileSystemSource>("Filesystem", fs_), &injector);
  ASSERT_TRUE(module.IndexSource(*flaky, ConverterRegistry::Standard()).ok());
  size_t live_before = module.catalog().live_count();

  // Fail exactly the probes of the next sync round, with nothing actually
  // changed. Ops so far: the initial RootView (op 0). The round issues one
  // RootView (op 1) and then one ViewByUri probe per base uri.
  size_t n_base = 0;
  for (index::DocId id : module.catalog().LiveIds()) {
    const index::CatalogEntry* entry = module.catalog().Entry(id);
    if (entry != nullptr && !entry->derived) ++n_base;
  }
  ASSERT_GT(n_base, 0u);
  injector.ScheduleOutage(2, 2 + n_base, FaultKind::kIoError);
  auto sync = module.SyncSource(*flaky, ConverterRegistry::Standard());
  ASSERT_TRUE(sync.ok()) << sync.status();
  EXPECT_GT(sync->failed, 0u);
  EXPECT_EQ(sync->removed, 0u);
  EXPECT_EQ(module.catalog().live_count(), live_before);

  // Next round is clean; a real deletion is now observed as a removal.
  ASSERT_TRUE(fs_->Remove("/archive/old.txt").ok());
  auto clean = module.SyncSource(*flaky, ConverterRegistry::Standard());
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(clean->failed, 0u);
  EXPECT_GE(clean->removed, 1u);
  EXPECT_FALSE(module.catalog().Find("vfs:/archive/old.txt").has_value());
}

// One unreachable source degrades a Poll round instead of aborting it.
TEST_F(ResilienceTest, PollContinuesPastADeadSource) {
  ReplicaIndexesModule module;
  SynchronizationManager sync(&module, ConverterRegistry::Standard());

  auto healthy = std::make_shared<FileSystemSource>("Filesystem", fs_);
  FaultInjector injector(3, clock_.get());
  auto dead_fs = std::make_shared<vfs::VirtualFileSystem>(clock_.get());
  ASSERT_TRUE(dead_fs->WriteFile("/only.txt", "briefly alive").ok());
  auto dead = std::make_shared<FlakySource>(
      std::make_shared<FileSystemSource>("Removable", dead_fs), &injector);

  ASSERT_TRUE(sync.RegisterSource(healthy).ok());
  ASSERT_TRUE(sync.RegisterSource(dead).ok());

  // The removable volume goes away: every op fails from now on.
  FaultConfig config;
  config.fault_probability = 1.0;
  config.unavailable_weight = 1.0;
  injector.set_config(config);

  ASSERT_TRUE(fs_->WriteFile("/docs/while-down.txt", "written meanwhile").ok());
  auto stats = sync.Poll();
  ASSERT_TRUE(stats.ok()) << stats.status();
  // The healthy source still synced its new file...
  EXPECT_GE(stats->added, 1u);
  EXPECT_TRUE(module.catalog().Find("vfs:/docs/while-down.txt").has_value());
  // ...and the dead one is recorded, with its old state intact.
  EXPECT_EQ(stats->failed, 1u);
  ASSERT_EQ(stats->failed_uris.size(), 1u);
  EXPECT_EQ(stats->failed_uris[0], "Removable");
  EXPECT_TRUE(module.catalog().Find("vfs:/only.txt").has_value());
}

// SynchronizationManager::Poll where ViewByUri reports NotFound mid-sync:
// the vanished item is a real removal, not a failure.
TEST_F(ResilienceTest, PollTreatsNotFoundProbesAsRemovals) {
  ReplicaIndexesModule module;
  SynchronizationManager manager(&module, ConverterRegistry::Standard());
  ASSERT_TRUE(
      manager.RegisterSource(std::make_shared<FileSystemSource>("Filesystem", fs_))
          .ok());
  // Delete behind the RVM's back; the probe's NotFound is authoritative.
  ASSERT_TRUE(fs_->Remove("/docs/note7.txt").ok());
  auto stats = manager.Poll();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->failed, 0u);
  EXPECT_GE(stats->removed, 1u);
  EXPECT_FALSE(module.catalog().Find("vfs:/docs/note7.txt").has_value());
}

// A stale "added" notification whose item is already gone collapses into a
// removal instead of being silently dropped.
TEST_F(ResilienceTest, StaleAddNotificationBecomesARemoval) {
  ReplicaIndexesModule module;
  SynchronizationManager manager(&module, ConverterRegistry::Standard());
  ASSERT_TRUE(
      manager.RegisterSource(std::make_shared<FileSystemSource>("Filesystem", fs_))
          .ok());
  ASSERT_TRUE(fs_->WriteFile("/docs/blink.txt", "here and gone").ok());
  ASSERT_TRUE(fs_->Remove("/docs/blink.txt").ok());
  // Two queued notifications: added then removed. Process both.
  auto stats = manager.ProcessNotifications();
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(module.catalog().Find("vfs:/docs/blink.txt").has_value());
}

// The breaker fails fast while a source is dead and recovers half-open →
// closed once it returns, all on simulated time.
TEST_F(ResilienceTest, CircuitBreakerFailsFastAndRecovers) {
  FaultInjector injector(21, clock_.get());
  ResilientSource::Options options;
  options.retry.max_attempts = 2;
  options.retry.jitter_fraction = 0.0;
  options.breaker.failure_threshold = 4;
  options.breaker.cooldown_micros = 5000000;
  ResilientSource source(
      std::make_shared<FlakySource>(
          std::make_shared<FileSystemSource>("Filesystem", fs_), &injector),
      clock_.get(), options);

  // Dead: every op fails; a few calls trip the breaker.
  FaultConfig config;
  config.fault_probability = 1.0;
  injector.set_config(config);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(source.RootView().ok());
  EXPECT_EQ(source.breaker().state(), CircuitBreaker::State::kOpen);

  // While open, calls are rejected without touching the source.
  uint64_t ops_before = injector.ops_total();
  auto rejected = source.RootView();
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(injector.ops_total(), ops_before);
  EXPECT_GT(source.stats().rejected_open, 0u);

  // The source comes back; after the cooldown the half-open probe closes
  // the breaker again.
  config.fault_probability = 0.0;
  injector.set_config(config);
  clock_->AdvanceMicros(options.breaker.cooldown_micros);
  EXPECT_TRUE(source.RootView().ok());
  EXPECT_EQ(source.breaker().state(), CircuitBreaker::State::kClosed);
}

}  // namespace
}  // namespace idm::rvm
