// TSan payload for the subscription path (label `concurrency`): queries
// race against mutation + pump rounds on a second thread, exercising the
// manager's locks and the cache's footprint validator under contention.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "iql/dataspace.h"

namespace idm::sub {
namespace {

TEST(SubConcurrencyTest, QueriesRaceMaintenanceCleanly) {
  iql::Dataspace ds;
  auto fs = std::make_shared<vfs::VirtualFileSystem>(ds.clock());
  ASSERT_TRUE(fs->WriteFile("/seed.tmp", "scratch seed").ok());
  ASSERT_TRUE(ds.AddFileSystem("Filesystem", fs).ok());
  auto sub = ds.Subscribe("//*.tmp");
  ASSERT_TRUE(sub.ok()) << sub.status();

  // Reader thread: hammer the cached query (cache lookups run the
  // footprint validator against the epochs the writer is advancing).
  std::thread reader([&ds] {
    for (int i = 0; i < 200; ++i) {
      auto result = ds.Query("//*.tmp");
      EXPECT_TRUE(result.ok());
    }
  });
  // Writer (this thread): mutations + sync rounds, each pumping deltas.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fs->WriteFile("/churn" + std::to_string(i) + ".tmp",
                              "scratch churn")
                    .ok());
    ASSERT_TRUE(ds.sync().ProcessNotifications().ok());
  }
  reader.join();

  // Settled state: maintained rows equal a fresh evaluation.
  for (const ResultDelta& delta : (*sub)->Drain()) (void)delta;
  auto oracle = ds.Query("//*.tmp");
  ASSERT_TRUE(oracle.ok());
  auto maintained = (*sub)->Rows();
  std::sort(maintained.begin(), maintained.end());
  auto expected = oracle->rows;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(maintained, expected);
}

}  // namespace
}  // namespace idm::sub
