// Property test for cooperative cancellation (DESIGN.md §10): inject a
// cancellation at every Nth evaluation step, for a sweep of N, alone and
// while three other threads issue uncancelled queries on the same
// dataspace, and check the partial-result contract on every run:
//
//   1. The query returns OK. A cancelled read is an answer (a partial
//      one), never an error.
//   2. If the result is incomplete, its rows are a *prefix* of the
//      serial-order complete result for structural queries, and empty for
//      ranked queries (score order is not a materialization order).
//   3. If the result is complete, it equals the baseline exactly — the
//      injection landed after the evaluation finished.
//   4. Module state (VersionLog epoch, catalog) is untouched by the
//      cancelled read.
//
// Under -DIDM_SANITIZE=thread the concurrent case is also a data-race
// payload (the target carries the `concurrency` label): each query owns
// its context, while the readers share the dataspace's indexes, live
// snapshot and admission controller with the cancelled reads.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "iql/dataspace.h"

namespace idm::iql {
namespace {

struct SweepCase {
  std::string iql;
  bool ranked;
};

const std::vector<SweepCase>& SweepCases() {
  static const std::vector<SweepCase> kCases = {
      {"//notes//*", false},
      {"//doc*", false},
      {"\"governed sweep\"", true},
  };
  return kCases;
}

class GovernanceCancelSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Dataspace::Config config;
    // Partials must come from live evaluation, not a cached complete
    // answer that the governed run would be served unharmed.
    config.cache.enabled = false;
    ds_ = std::make_unique<Dataspace>(config);
    fs_ = std::make_shared<vfs::VirtualFileSystem>(ds_->clock());
    ASSERT_TRUE(fs_->CreateFolder("/notes").ok());
    ASSERT_TRUE(fs_->CreateFolder("/notes/sub").ok());
    for (int i = 0; i < 40; ++i) {
      const std::string dir = i % 3 == 0 ? "/notes/sub/" : "/notes/";
      ASSERT_TRUE(fs_->WriteFile(dir + "doc" + std::to_string(i) + ".txt",
                                 "governed sweep text " + std::to_string(i))
                      .ok());
    }
    ASSERT_TRUE(ds_->AddFileSystem("fs", fs_).ok());
  }

  static bool IsPrefixOf(const QueryResult& partial, const QueryResult& full) {
    if (partial.rows.size() > full.rows.size()) return false;
    for (size_t i = 0; i < partial.rows.size(); ++i) {
      if (partial.rows[i] != full.rows[i]) return false;
    }
    return true;
  }

  /// Runs the cancel_at_step sweep over every case and checks the
  /// partial-result contract of each run.
  void Sweep() {
    const uint64_t epoch_before = ds_->module().versions().current();
    const size_t live_before = ds_->module().catalog().live_count();

    for (const SweepCase& c : SweepCases()) {
      auto baseline = ds_->Query(c.iql);
      ASSERT_TRUE(baseline.ok()) << c.iql << ": " << baseline.status();
      ASSERT_TRUE(baseline->meta.complete);
      ASSERT_GT(baseline->size(), 0u) << c.iql;

      bool saw_partial = false;
      bool saw_complete = false;
      for (uint64_t n = 1; n <= 8192; n = n < 4 ? n + 1 : n * 3 / 2) {
        Dataspace::QueryOptions options;
        options.limits.cancel_at_step = n;
        auto result = ds_->Query(c.iql, options);
        ASSERT_TRUE(result.ok())
            << c.iql << " cancel_at_step=" << n << ": " << result.status();
        if (result->meta.complete) {
          saw_complete = true;
          EXPECT_EQ(result->rows, baseline->rows)
              << c.iql << " cancel_at_step=" << n;
        } else {
          saw_partial = true;
          EXPECT_NE(result->meta.degraded_reason.find("cancelled"),
                    std::string::npos)
              << c.iql << " cancel_at_step=" << n;
          if (c.ranked) {
            EXPECT_EQ(result->size(), 0u)
                << c.iql << " cancel_at_step=" << n
                << ": ranked partials degrade to empty";
          } else {
            EXPECT_TRUE(IsPrefixOf(*result, *baseline))
                << c.iql << " cancel_at_step=" << n << ": " << result->size()
                << " rows are not a prefix of the " << baseline->size()
                << "-row baseline";
          }
        }
        // A cancelled read never mutates the dataspace.
        EXPECT_EQ(ds_->module().versions().current(), epoch_before);
        EXPECT_EQ(ds_->module().catalog().live_count(), live_before);
      }
      // The sweep crossed the interesting range: early injections truncate,
      // late ones land after the (finite) evaluation completed.
      EXPECT_TRUE(saw_partial) << c.iql;
      EXPECT_TRUE(saw_complete) << c.iql;
    }
  }

  std::unique_ptr<Dataspace> ds_;
  std::shared_ptr<vfs::VirtualFileSystem> fs_;
};

TEST_F(GovernanceCancelSweepTest, CancelledReadsAreCleanPrefixes) { Sweep(); }

TEST_F(GovernanceCancelSweepTest,
       CancelledReadsStayPrefixesBesideConcurrentQueries) {
  // Three readers issue uncancelled queries for the whole sweep: a
  // cancellation dooms only its own query, never a concurrent one.
  std::vector<QueryResult> expected;
  for (const SweepCase& c : SweepCases()) {
    auto baseline = ds_->Query(c.iql);
    ASSERT_TRUE(baseline.ok()) << c.iql << ": " << baseline.status();
    expected.push_back(*baseline);
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      const SweepCase& c = SweepCases()[t];
      size_t runs = 0;
      while (!stop.load() || runs == 0) {
        auto result = ds_->Query(c.iql);
        ++runs;
        if (!result.ok()) {
          ADD_FAILURE() << c.iql << ": " << result.status();
          return;
        }
        EXPECT_TRUE(result->meta.complete) << c.iql;
        EXPECT_EQ(result->rows, expected[t].rows) << c.iql;
        EXPECT_EQ(result->scores, expected[t].scores) << c.iql;
      }
    });
  }
  Sweep();
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
}

}  // namespace
}  // namespace idm::iql
