// Readers racing Catalog::LiveSnapshot() right after a write: the first
// reader folds the pending writes, the others must see that same result
// (or the fold they raced with), never a half-built vector, and every
// snapshot a reader still holds must stay unchanged while the writer
// goes on. Part of the `concurrency` label, so the TSan tree runs it.

#include <gtest/gtest.h>

#include <barrier>
#include <string>
#include <thread>
#include <vector>

#include "index/catalog.h"

namespace idm::index {
namespace {

TEST(LiveSnapshotConcurrencyTest, ReadersRaceTheFoldAfterRemovals) {
  constexpr int kReaders = 4;
  constexpr int kRounds = 40;
  Catalog catalog;
  uint32_t src = catalog.InternSource("s");
  for (int i = 0; i < 200; ++i) {
    catalog.Register("u" + std::to_string(i), "file", src, false);
  }
  (void)catalog.LiveSnapshot();

  // Round r: the writer removes id 3r and registers a new uri, then all
  // readers race LiveSnapshot(). Between the two barriers only readers run.
  std::vector<std::vector<DocId>> expected(kRounds);
  std::barrier start(kReaders + 1);
  std::barrier done(kReaders + 1);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      std::vector<std::shared_ptr<const std::vector<DocId>>> held;
      for (int round = 0; round < kRounds; ++round) {
        start.arrive_and_wait();
        held.push_back(catalog.LiveSnapshot());
        EXPECT_EQ(*held.back(), expected[round]) << "round " << round;
        done.arrive_and_wait();
      }
      // Every snapshot taken earlier is still the one of its round.
      for (int round = 0; round < kRounds; ++round) {
        EXPECT_EQ(*held[round], expected[round]) << "held round " << round;
      }
    });
  }
  for (int round = 0; round < kRounds; ++round) {
    catalog.Remove(static_cast<DocId>(3 * round));
    catalog.Register("new" + std::to_string(round), "folder", src, false);
    std::vector<DocId>& want = expected[round];
    for (DocId id = 0; id < catalog.total_count(); ++id) {
      if (!catalog.Entry(id)->deleted) want.push_back(id);
    }
    start.arrive_and_wait();
    done.arrive_and_wait();
  }
  for (std::thread& reader : readers) reader.join();
}

}  // namespace
}  // namespace idm::index
