// End-to-end resource governance (DESIGN.md §10): deadlines over
// infinite/lazy stream views, graceful partial results, the
// partial-results-never-cached rule, admission control with load shedding,
// governed federation, and the per-entry cache bound.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/content.h"
#include "core/resource_view.h"
#include "iql/admission.h"
#include "iql/dataspace.h"
#include "iql/federation.h"
#include "iql/query_cache.h"
#include "rvm/data_source.h"

namespace idm::iql {
namespace {

bool IsPrefixOf(const QueryResult& partial, const QueryResult& full) {
  if (partial.rows.size() > full.rows.size()) return false;
  for (size_t i = 0; i < partial.rows.size(); ++i) {
    if (partial.rows[i] != full.rows[i]) return false;
  }
  return true;
}

// --- governed evaluation over a stream dataspace ---------------------------

// An RSS feed far larger than the stream window: the rssatom group Q is
// infinite and only a window of it is indexed, which is exactly the
// workload the governor exists for.
class GovernanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = std::make_unique<Dataspace>();
    stream::Feed feed;
    feed.title = "ticker";
    feed.link = "http://ticker.example.com/feed";
    feed.description = "an unbounded event stream";
    for (int i = 0; i < 160; ++i) {
      feed.items.push_back({"tick" + std::to_string(i),
                            "http://ticker/" + std::to_string(i),
                            "streamed payload number " + std::to_string(i),
                            ds_->clock()->NowMicros()});
    }
    server_ = std::make_shared<stream::FeedServer>(feed, ds_->clock());
    auto stats = ds_->AddRss("ticker", server_);
    ASSERT_TRUE(stats.ok()) << stats.status();
    ASSERT_TRUE(stats->truncated);  // infinite Q: only the window indexed
  }

  std::unique_ptr<Dataspace> ds_;
  std::shared_ptr<stream::FeedServer> server_;
};

TEST_F(GovernanceTest, DeadlineYieldsUncachedPrefixPartialResult) {
  const std::string q = "//*";

  // Governed first, while the cache is empty: a 50ms simulated deadline at
  // 1ms per evaluation step dooms the query at step 51, long before the
  // ~500 views of the indexed stream window are enumerated.
  Dataspace::QueryOptions options;
  options.limits.deadline_micros = 50000;
  options.limits.micros_per_step = 1000;
  Micros before = ds_->clock()->NowMicros();
  auto partial = ds_->Query(q, options);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_FALSE(partial->meta.complete);
  EXPECT_NE(partial->meta.degraded_reason.find("deadline"), std::string::npos);
  EXPECT_GT(partial->meta.steps_used, 0u);
  // The simulated evaluation cost was applied to the dataspace clock.
  EXPECT_GE(ds_->clock()->NowMicros() - before, 50000);

  // The partial result must not have been admitted into the query cache.
  EXPECT_EQ(ds_->Stats().cache.entries, 0u);
  EXPECT_EQ(ds_->Stats().cache.hits, 0u);

  // The ungoverned run evaluates from scratch and is complete...
  auto full = ds_->Query(q);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(full->meta.complete);
  EXPECT_GT(full->size(), 0u);
  EXPECT_LT(partial->size(), full->size());
  // ...and the partial result is a prefix of it.
  EXPECT_TRUE(IsPrefixOf(*partial, *full));

  // Only the complete result was cached: the next lookup hits and serves
  // the full answer, not the prefix.
  auto again = ds_->Query(q);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(ds_->Stats().cache.hits, 1u);
  EXPECT_TRUE(again->meta.complete);
  EXPECT_EQ(again->size(), full->size());
}

TEST_F(GovernanceTest, RankedResultsDegradeToEmptyNotToWrongOrder) {
  // Ranked output is ordered by score, which is not a materialization
  // order: a truncated ranking would not be a prefix of anything, so it
  // degrades to empty instead.
  Dataspace::QueryOptions options;
  options.limits.max_steps = 5;
  auto result = ds_->Query("\"streamed payload\"", options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->meta.complete);
  EXPECT_EQ(result->size(), 0u);
  EXPECT_NE(result->meta.degraded_reason.find("step budget"),
            std::string::npos);
}

TEST_F(GovernanceTest, RootChildrenScanHonorsStepBudget) {
  // A child-axis first step scans every live view for the parentless
  // roots. That scan ticks like every other loop over views, so a step
  // budget stops it even when no name matches, and steps_used counts it.
  const size_t live = ds_->module().catalog().live_count();
  ASSERT_GT(live, 1u);
  Dataspace::QueryOptions options;
  options.limits.max_steps = 1;
  auto stopped = ds_->Query("/nosuchname", options);
  ASSERT_TRUE(stopped.ok()) << stopped.status();
  EXPECT_FALSE(stopped->meta.complete);
  EXPECT_EQ(stopped->size(), 0u);
  EXPECT_NE(stopped->meta.degraded_reason.find("step budget"),
            std::string::npos);

  options.limits.max_steps = 100 * live;
  auto counted = ds_->Query("/nosuchname", options);
  ASSERT_TRUE(counted.ok()) << counted.status();
  EXPECT_TRUE(counted->meta.complete);
  EXPECT_GE(counted->meta.steps_used, live);
}

TEST_F(GovernanceTest, MemoryBudgetOverrunDegradesGracefully) {
  Dataspace::QueryOptions options;
  options.limits.memory_limit_bytes = 256;
  auto partial = ds_->Query("//*", options);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_FALSE(partial->meta.complete);
  EXPECT_NE(partial->meta.degraded_reason.find("memory budget"),
            std::string::npos);
  auto full = ds_->Query("//*");
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(IsPrefixOf(*partial, *full));
}

TEST_F(GovernanceTest, UngovernedOptionsAreIdenticalToPlainQuery) {
  for (const std::string& q :
       {std::string("//item*"), std::string("\"streamed payload\"")}) {
    auto plain = ds_->Query(q);
    auto defaulted = ds_->Query(q, Dataspace::QueryOptions());
    ASSERT_TRUE(plain.ok()) << plain.status();
    ASSERT_TRUE(defaulted.ok()) << defaulted.status();
    EXPECT_TRUE(plain->meta.complete);
    EXPECT_TRUE(defaulted->meta.complete);
    EXPECT_EQ(plain->rows, defaulted->rows);
    EXPECT_EQ(plain->scores, defaulted->scores);
    EXPECT_EQ(plain->plan, defaulted->plan);
  }
}

// --- admission control -----------------------------------------------------

TEST(AdmissionControllerTest, DisabledControllerAdmitsEverything) {
  AdmissionController controller{AdmissionController::Options{}};
  EXPECT_FALSE(controller.enabled());
  auto ticket = controller.Admit();
  ASSERT_TRUE(ticket.ok());
  EXPECT_EQ(controller.stats().running, 0u);  // disabled: nothing tracked
}

TEST(AdmissionControllerTest, ShedsWhenTheQueueIsFull) {
  AdmissionController::Options options;
  options.max_concurrent = 1;
  options.max_queue = 0;  // no waiting: shed immediately under load
  AdmissionController controller{options};
  auto held = controller.Admit();
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(controller.stats().running, 1u);

  auto shed = controller.Admit();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(shed.status().IsRetryable());  // back off and try again
  AdmissionController::Stats stats = controller.stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.shed_queue_full, 1u);
}

TEST(AdmissionControllerTest, ShedsWhenTheQueueWaitTimesOut) {
  AdmissionController::Options options;
  options.max_concurrent = 1;
  options.max_queue = 4;
  options.queue_timeout_micros = 2000;  // 2ms of real wall time
  AdmissionController controller{options};
  auto held = controller.Admit();
  ASSERT_TRUE(held.ok());

  auto shed = controller.Admit();  // queues, waits 2ms, gives up
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(controller.stats().shed_timeout, 1u);
  EXPECT_EQ(controller.stats().queued, 0u);
}

TEST(AdmissionControllerTest, ReleasedSlotAdmitsAQueuedWaiter) {
  AdmissionController::Options options;
  options.max_concurrent = 1;
  options.max_queue = 1;
  options.queue_timeout_micros = 5'000'000;
  AdmissionController controller{options};
  AdmissionController::Ticket held;
  {
    auto admitted = controller.Admit();
    ASSERT_TRUE(admitted.ok());
    held = std::move(*admitted);
  }
  std::thread releaser([&held] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    held = AdmissionController::Ticket();  // frees the slot
  });
  auto waited = controller.Admit();  // blocks until the slot is released
  releaser.join();
  ASSERT_TRUE(waited.ok());
  EXPECT_EQ(controller.stats().admitted, 2u);
  EXPECT_EQ(controller.stats().shed_timeout, 0u);
}

TEST(AdmissionDataspaceTest, QueuedQueriesAllCompleteUnderConcurrency) {
  Dataspace::Config config;
  config.admission.max_concurrent = 1;
  config.admission.max_queue = 8;
  config.admission.queue_timeout_micros = 5'000'000;
  Dataspace ds(config);
  auto fs = std::make_shared<vfs::VirtualFileSystem>(ds.clock());
  ASSERT_TRUE(fs->CreateFolder("/notes").ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fs->WriteFile("/notes/doc" + std::to_string(i) + ".txt",
                              "admission test corpus " + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(ds.AddFileSystem("fs", fs).ok());

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&ds, &failures] {
      for (int i = 0; i < 2; ++i) {
        if (!ds.Query("//doc*").ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(ds.Stats().admission.admitted, 6u);
  EXPECT_EQ(ds.Stats().admission.running, 0u);

  // Internal/maintenance traffic can bypass the gate.
  Dataspace::QueryOptions bypass;
  bypass.bypass_admission = true;
  ASSERT_TRUE(ds.Query("//doc*", bypass).ok());
  EXPECT_GE(ds.Stats().admission.admitted, 6u);
}

// --- governed federation ---------------------------------------------------

class GovernedFederationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    laptop_ = std::make_unique<Dataspace>();
    auto laptop_fs = std::make_shared<vfs::VirtualFileSystem>(laptop_->clock());
    ASSERT_TRUE(laptop_fs->CreateFolder("/notes").ok());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(laptop_fs
                      ->WriteFile("/notes/note" + std::to_string(i) + ".txt",
                                  "federated corpus " + std::to_string(i))
                      .ok());
    }
    ASSERT_TRUE(laptop_->AddFileSystem("fs", laptop_fs).ok());

    desktop_ = std::make_unique<Dataspace>();
    auto desktop_fs =
        std::make_shared<vfs::VirtualFileSystem>(desktop_->clock());
    ASSERT_TRUE(desktop_fs->CreateFolder("/notes").ok());
    ASSERT_TRUE(
        desktop_fs->WriteFile("/notes/report.txt", "desktop corpus").ok());
    ASSERT_TRUE(desktop_->AddFileSystem("fs", desktop_fs).ok());
  }

  std::unique_ptr<Dataspace> laptop_;
  std::unique_ptr<Dataspace> desktop_;
  SimClock clock_;
};

TEST_F(GovernedFederationTest, RemainingBudgetDerivesPerPeerDeadlines) {
  Federation federation(&clock_);
  ASSERT_TRUE(federation.AddPeer("laptop", laptop_.get()).ok());
  ASSERT_TRUE(federation.AddPeer("desktop", desktop_.get()).ok());

  // 30ms total at 25ms per shipped round trip: the first peer gets a 5ms
  // evaluation deadline (degraded partial answer), the second peer's round
  // trip alone would blow the remaining budget and is abandoned.
  util::ExecContext::Limits limits;
  limits.deadline_micros = 30000;
  limits.micros_per_step = 500;
  util::ExecContext ctx(&clock_, limits);
  auto result = federation.Query("//notes//*", &ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->peers_reached, 1u);
  EXPECT_EQ(result->peers_degraded, 1u);
  EXPECT_EQ(result->peers_failed, 1u);
  ASSERT_EQ(result->failures.size(), 1u);
  EXPECT_NE(result->failures[0].find("deadline"), std::string::npos);
  for (const FederatedRow& row : result->rows) {
    EXPECT_EQ(row.peer, "laptop");
  }
}

TEST_F(GovernedFederationTest, DoomedContextAbandonsAllPeers) {
  Federation federation(&clock_);
  ASSERT_TRUE(federation.AddPeer("laptop", laptop_.get()).ok());
  ASSERT_TRUE(federation.AddPeer("desktop", desktop_.get()).ok());
  util::ExecContext ctx(&clock_, util::ExecContext::Limits{});
  ctx.Cancel(Status::Cancelled("caller went away"));
  auto result = federation.Query("//notes//*", &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(GovernedFederationTest, UngovernedQueryStillReachesEveryPeer) {
  Federation federation(&clock_);
  ASSERT_TRUE(federation.AddPeer("laptop", laptop_.get()).ok());
  ASSERT_TRUE(federation.AddPeer("desktop", desktop_.get()).ok());
  auto result = federation.Query("//notes//*");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->peers_reached, 2u);
  EXPECT_EQ(result->peers_degraded, 0u);
  EXPECT_EQ(result->peers_failed, 0u);
}

// --- query cache entry bound -----------------------------------------------

QueryResult MakeResult(size_t rows) {
  QueryResult result;
  result.columns = {""};
  for (size_t i = 0; i < rows; ++i) {
    result.rows.push_back({static_cast<index::DocId>(i + 1)});
  }
  result.plan = "synthetic plan text for cache sizing";
  return result;
}

TEST(QueryCacheGovernanceTest, IncompleteResultsAreNeverCached) {
  QueryCache cache{QueryCache::Options{}};
  QueryResult partial = MakeResult(4);
  partial.meta.complete = false;
  partial.meta.degraded_reason = "deadline of 50000us exceeded";
  cache.Insert("q", 1, partial);
  EXPECT_FALSE(cache.Lookup("q", 1).has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(QueryCacheGovernanceTest, OversizedEntriesAreRejectedAndCounted) {
  QueryCache::Options options;
  options.max_bytes = 4096;
  options.max_entry_fraction = 0.01;  // ~40-byte cap: everything is oversized
  QueryCache cache{options};
  cache.Insert("big", 1, MakeResult(64));
  QueryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.oversized, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_FALSE(cache.Lookup("big", 1).has_value());
}

TEST(QueryCacheGovernanceTest, FractionOfOneRestoresTheOldBehavior) {
  QueryCache::Options options;
  options.max_bytes = 1U << 20;
  options.max_entry_fraction = 1.0;
  QueryCache cache{options};
  cache.Insert("big", 1, MakeResult(64));
  EXPECT_EQ(cache.stats().oversized, 0u);
  ASSERT_TRUE(cache.Lookup("big", 1).has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
}

// --- infinite-content prefix indexing --------------------------------------

// A source whose root view carries *infinite* χ content (a live telemetry
// stream); without the prefix opt-in its text is unreachable by indexing.
class TickerSource : public rvm::DataSource {
 public:
  explicit TickerSource(std::string name) : name_(std::move(name)) {
    root_ = core::ViewBuilder("tick:" + name_)
                .Name(name_)
                .Content(core::ContentComponent::OfInfinite([](uint64_t i) {
                  return "tick " + std::to_string(i) +
                         " heartbeat telemetry sample ";
                }))
                .Build();
  }
  const std::string& name() const override { return name_; }
  Result<core::ViewPtr> RootView() override { return root_; }
  Result<core::ViewPtr> ViewByUri(const std::string& uri) override {
    if (uri == root_->uri()) return root_;
    return Status::NotFound("no such ticker view: " + uri);
  }
  Micros access_micros() const override { return 0; }
  uint64_t TotalBytes() const override { return 0; }

 private:
  std::string name_;
  core::ViewPtr root_;
};

TEST(InfiniteContentIndexingTest, PrefixOptInMakesStreamTextSearchable) {
  // Default: infinite χ is skipped entirely (no text indexed).
  Dataspace plain;
  ASSERT_TRUE(plain.AddSource(std::make_shared<TickerSource>("pulse")).ok());
  auto miss = plain.Query("\"heartbeat telemetry\"");
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_EQ(miss->size(), 0u);

  // Opt-in: a bounded prefix of the stream becomes keyword-searchable.
  Dataspace::Config config;
  config.indexing.infinite_content_prefix = 4096;
  Dataspace bounded(config);
  auto stats = bounded.AddSource(std::make_shared<TickerSource>("pulse"));
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(stats->truncated);  // only the prefix was indexed
  auto hit = bounded.Query("\"heartbeat telemetry\"");
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_EQ(hit->size(), 1u);
  EXPECT_EQ(bounded.UriOf(hit->rows[0][0]), "tick:pulse");
}

}  // namespace
}  // namespace idm::iql
