// TSan payload for the repair path (label `concurrency`): queries on a
// reader thread race against mutation + sync rounds whose PostSync hook
// runs budgeted scrub slices, and against full on-demand ScrubNow passes.
// The scrubber only ever reads the engine's artifacts on the writer thread
// (the whole mutation path is single-threaded by design); what this
// exercises is the reader's access to the structures the rescue path
// snapshots.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>

#include "iql/dataspace.h"
#include "storage/env.h"

namespace idm::iql {
namespace {

TEST(RepairConcurrency, QueriesRaceBackgroundScrubSlices) {
  storage::MemEnv env;
  Dataspace::Config config;
  config.storage_dir = "ds";
  config.env = &env;
  config.scrub.enabled = true;
  config.scrub.interval_micros = 0;  // a slice every sync round
  auto ds = Dataspace::Open(std::move(config));
  ASSERT_TRUE(ds.ok()) << ds.status();
  auto fs = std::make_shared<vfs::VirtualFileSystem>((*ds)->clock());
  ASSERT_TRUE(fs->WriteFile("/seed.tmp", "scratch seed").ok());
  ASSERT_TRUE((*ds)->AddFileSystem("Filesystem", fs).ok());

  std::thread reader([&ds] {
    for (int i = 0; i < 200; ++i) {
      auto result = (*ds)->Query("//*.tmp");
      EXPECT_TRUE(result.ok());
    }
  });
  // Writer (this thread): every sync round commits, fsyncs, and runs one
  // budgeted scrub slice over the live generation.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        fs->WriteFile("/churn" + std::to_string(i) + ".tmp", "scratch churn")
            .ok());
    ASSERT_TRUE((*ds)->sync().ProcessNotifications().ok());
  }
  reader.join();

  ASSERT_NE((*ds)->scrubber(), nullptr);
  EXPECT_GT((*ds)->scrubber()->stats().slices, 0u);
  EXPECT_EQ((*ds)->scrubber()->stats().defects_found, 0u);
  DataspaceStats stats = (*ds)->Stats();
  EXPECT_EQ(stats.repair.quarantined, 0u);
  EXPECT_EQ(stats.repair.rescues, 0u);

  auto oracle = (*ds)->Query("//*.tmp");
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(oracle->rows.size(), 51u);  // seed + 50 churn files
}

TEST(RepairConcurrency, QueriesRaceOnDemandScrubPasses) {
  storage::MemEnv env;
  Dataspace::Config config;
  config.storage_dir = "ds";
  config.env = &env;
  auto ds = Dataspace::Open(std::move(config));
  ASSERT_TRUE(ds.ok()) << ds.status();
  auto fs = std::make_shared<vfs::VirtualFileSystem>((*ds)->clock());
  ASSERT_TRUE(fs->CreateFolder("/work").ok());
  ASSERT_TRUE(fs->WriteFile("/work/a.txt", "alpha repair notes").ok());
  ASSERT_TRUE(fs->WriteFile("/work/b.txt", "beta repair notes").ok());
  ASSERT_TRUE((*ds)->AddFileSystem("Filesystem", fs).ok());
  ASSERT_TRUE((*ds)->SyncStorage().ok());

  std::thread reader([&ds] {
    for (int i = 0; i < 100; ++i) {
      auto result = (*ds)->Query("\"repair\"");
      EXPECT_TRUE(result.ok());
    }
  });
  // Full verification passes on the writer thread, racing the reader.
  for (int i = 0; i < 20; ++i) {
    auto findings = (*ds)->ScrubNow();
    ASSERT_TRUE(findings.ok()) << findings.status();
    EXPECT_TRUE(findings->empty());
  }
  reader.join();

  EXPECT_GE((*ds)->scrubber()->stats().passes, 20u);
  EXPECT_EQ((*ds)->Stats().repair.rescues, 0u);
}

}  // namespace
}  // namespace idm::iql
