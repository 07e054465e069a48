// Trace trees and the unified introspection API (DESIGN.md §11): span-tree
// primitives and the span budget; the shape of the query trace for an
// uncached run, a cache hit, and a degraded (deadline-doomed) run; storage
// traces for checkpoint and recovery; federation per-peer RPC spans; and
// Dataspace::Stats()/LastTrace() — including that with observability off
// (the default) nothing is recorded at all.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "iql/dataspace.h"
#include "iql/federation.h"
#include "obs/obs.h"
#include "storage/env.h"
#include "stream/rss.h"

namespace idm::obs {
namespace {

// --- primitives -------------------------------------------------------------

TEST(TraceSpanTest, TreeShapeAndAttrs) {
  SimClock clock;
  Trace trace(&clock, "op");
  TraceSpan* root = trace.root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name(), "op");

  TraceSpan* a = root->AddChild("a");
  clock.AdvanceMicros(10);
  TraceSpan* b = root->AddChild("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->start_micros() - a->start_micros(), 10);
  b->SetAttr("rows", static_cast<int64_t>(7));
  b->SetAttr("outcome", "hit");
  clock.AdvanceMicros(5);
  b->End();
  EXPECT_EQ(b->duration_micros(), 5);
  b->End();  // idempotent: first End() wins
  EXPECT_EQ(b->duration_micros(), 5);

  TraceSpan* leaf = a->AddChild("leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(trace.span_count(), 4u);
  EXPECT_EQ(root->SubtreeSize(), 4u);
  EXPECT_EQ(root->FindChild("a"), a);
  EXPECT_EQ(root->FindChild("leaf"), nullptr);      // direct children only
  EXPECT_EQ(root->FindDescendant("leaf"), leaf);    // pre-order search
  EXPECT_EQ(b->AttrOr("rows"), "7");
  EXPECT_EQ(b->AttrOr("outcome"), "hit");
  EXPECT_EQ(b->AttrOr("absent"), "");
}

TEST(TraceSpanTest, NullClockStillBuildsAValidTree) {
  Trace trace(nullptr, "op");
  TraceSpan* child = trace.root()->AddChild("c");
  ASSERT_NE(child, nullptr);
  child->End();
  EXPECT_EQ(child->start_micros(), 0);
  EXPECT_EQ(child->duration_micros(), 0);
}

TEST(TraceTest, SpanBudgetTruncates) {
  SimClock clock;
  Trace trace(&clock, "op", /*max_spans=*/3);  // root + 2 children
  EXPECT_FALSE(trace.truncated());
  EXPECT_NE(trace.root()->AddChild("a"), nullptr);
  EXPECT_NE(trace.root()->AddChild("b"), nullptr);
  EXPECT_EQ(trace.root()->AddChild("c"), nullptr);  // budget exhausted
  EXPECT_TRUE(trace.truncated());
  EXPECT_EQ(trace.span_count(), 3u);
  // ScopedSpan tolerates the refusal.
  ScopedSpan refused(trace.root(), "d");
  EXPECT_FALSE(refused);
  EXPECT_NE(trace.ToText().find("truncated"), std::string::npos);
}

TEST(ScopedSpanTest, NullParentIsANoOp) {
  ScopedSpan span(nullptr, "anything");
  EXPECT_FALSE(span);
  EXPECT_EQ(span.get(), nullptr);
}

TEST(ObservabilityTest, StartFinishLastTraceProtocol) {
  SimClock clock;
  Options options;
  options.enabled = true;
  Observability obs(&clock, options);
  EXPECT_EQ(obs.LastTrace(kQueryTrace), nullptr);

  auto trace = obs.StartTrace(kQueryTrace, "query");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(obs.LastTrace(kQueryTrace), nullptr);  // not published yet
  clock.AdvanceMicros(9);
  obs.FinishTrace(kQueryTrace, trace);
  auto last = obs.LastTrace(kQueryTrace);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->root().duration_micros(), 9);
  EXPECT_EQ(obs.LastTrace(kStorageTrace), nullptr);  // categories isolated

  options.trace_queries = false;
  Observability untraced(&clock, options);
  EXPECT_EQ(untraced.StartTrace(kQueryTrace, "query"), nullptr);
  untraced.FinishTrace(kQueryTrace, nullptr);  // null-safe
}

// --- query trace shapes through the Dataspace facade ------------------------

class DataspaceTraceTest : public ::testing::Test {
 protected:
  iql::Dataspace::Config ObservedConfig() {
    iql::Dataspace::Config config;
    config.observability.enabled = true;
    return config;
  }

  // A stream dataspace whose indexed window is large enough that a tight
  // simulated deadline dooms //* mid-way (the degraded-query shape).
  void AddTicker(iql::Dataspace* ds, int items = 160) {
    stream::Feed feed;
    feed.title = "ticker";
    feed.link = "http://ticker.example.com/feed";
    feed.description = "event stream";
    for (int i = 0; i < items; ++i) {
      feed.items.push_back({"tick" + std::to_string(i),
                            "http://ticker/" + std::to_string(i),
                            "streamed payload number " + std::to_string(i),
                            ds->clock()->NowMicros()});
    }
    auto server = std::make_shared<stream::FeedServer>(feed, ds->clock());
    ASSERT_TRUE(ds->AddRss("ticker", server).ok());
  }
};

TEST_F(DataspaceTraceTest, UncachedThenCachedQueryShapes) {
  iql::Dataspace ds(ObservedConfig());
  AddTicker(&ds);

  const std::string q = "//tick1";
  ASSERT_TRUE(ds.Query(q).ok());
  auto miss = ds.LastTrace();
  ASSERT_NE(miss, nullptr);
  EXPECT_EQ(miss->root().name(), "query");
  ASSERT_NE(miss->root().FindChild("parse"), nullptr);
  const TraceSpan* lookup = miss->root().FindChild("cache.lookup");
  ASSERT_NE(lookup, nullptr);
  EXPECT_EQ(lookup->AttrOr("outcome"), "miss");
  const TraceSpan* eval = miss->root().FindChild("evaluate");
  ASSERT_NE(eval, nullptr);
  // The evaluation recorded at least one index probe underneath.
  EXPECT_NE(eval->FindDescendant("index.name.lookup"), nullptr);
  EXPECT_NE(eval->AttrOr("rows"), "");

  ASSERT_TRUE(ds.Query(q).ok());
  auto hit = ds.LastTrace();
  ASSERT_NE(hit, nullptr);
  EXPECT_NE(hit, miss);  // a fresh trace per query
  lookup = hit->root().FindChild("cache.lookup");
  ASSERT_NE(lookup, nullptr);
  EXPECT_EQ(lookup->AttrOr("outcome"), "hit");
  EXPECT_EQ(hit->root().FindChild("evaluate"), nullptr);  // nothing evaluated

  auto stats = ds.Stats();
  EXPECT_EQ(stats.metrics.CounterOr("iql.queries"), 2u);
  EXPECT_EQ(stats.metrics.CounterOr("iql.cache.hits"), 1u);
  EXPECT_EQ(stats.metrics.CounterOr("iql.cache.misses"), 1u);
  EXPECT_EQ(stats.cache.hits, 1u);
}

TEST_F(DataspaceTraceTest, DegradedQueryIsMarkedAndCounted) {
  iql::Dataspace ds(ObservedConfig());
  AddTicker(&ds);

  iql::Dataspace::QueryOptions options;
  options.limits.deadline_micros = 50000;
  options.limits.micros_per_step = 1000;
  auto partial = ds.Query("//*", options);
  ASSERT_TRUE(partial.ok()) << partial.status();
  ASSERT_FALSE(partial->meta.complete);

  auto trace = ds.LastTrace();
  ASSERT_NE(trace, nullptr);
  const TraceSpan* eval = trace->root().FindChild("evaluate");
  ASSERT_NE(eval, nullptr);
  EXPECT_EQ(eval->AttrOr("degraded"), "true");
  EXPECT_EQ(ds.Stats().metrics.CounterOr("iql.degraded"), 1u);
}

TEST_F(DataspaceTraceTest, AdmissionSpanAndBypass) {
  iql::Dataspace::Config config = ObservedConfig();
  config.admission.max_concurrent = 1;
  iql::Dataspace ds(config);
  AddTicker(&ds, 8);

  ASSERT_TRUE(ds.Query("//tick1").ok());
  auto trace = ds.LastTrace();
  ASSERT_NE(trace, nullptr);
  const TraceSpan* admission = trace->root().FindChild("admission");
  ASSERT_NE(admission, nullptr);
  EXPECT_EQ(admission->AttrOr("outcome"), "admitted");

  // Bypassing queries skip the admission span entirely.
  iql::Dataspace::QueryOptions bypass;
  bypass.bypass_admission = true;
  ASSERT_TRUE(ds.Query("//tick1", bypass).ok());
  trace = ds.LastTrace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->root().FindChild("admission"), nullptr);
}

TEST_F(DataspaceTraceTest, DisabledObservabilityRecordsNothing) {
  iql::Dataspace ds;  // default config: observability off
  AddTicker(&ds, 8);
  ASSERT_TRUE(ds.Query("//tick1").ok());
  EXPECT_EQ(ds.observability(), nullptr);
  EXPECT_EQ(ds.LastTrace(), nullptr);
  auto stats = ds.Stats();
  EXPECT_TRUE(stats.metrics.empty());
  // The rest of the snapshot is still live: Stats() works without obs.
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_GT(stats.mutations, 0u);
}

TEST_F(DataspaceTraceTest, MetricsOnTracesOffKeepsCountersOnly) {
  iql::Dataspace::Config config = ObservedConfig();
  config.observability.trace_queries = false;
  iql::Dataspace ds(config);
  AddTicker(&ds, 8);
  ASSERT_TRUE(ds.Query("//tick1").ok());
  EXPECT_EQ(ds.LastTrace(), nullptr);
  EXPECT_EQ(ds.Stats().metrics.CounterOr("iql.queries"), 1u);
}

// --- storage traces ---------------------------------------------------------

TEST_F(DataspaceTraceTest, CheckpointAndRecoveryTraces) {
  storage::MemEnv env;
  iql::Dataspace::Config config = ObservedConfig();
  config.storage_dir = "ds";
  config.env = &env;
  {
    iql::Dataspace ds(config);
    ASSERT_TRUE(ds.storage_status().ok());
    AddTicker(&ds, 8);
    ASSERT_TRUE(ds.Checkpoint().ok());
    auto trace = ds.LastTrace(kStorageTrace);
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(trace->root().name(), "checkpoint");
    EXPECT_NE(trace->root().FindDescendant("snapshot.export"), nullptr);
    EXPECT_NE(trace->root().FindDescendant("snapshot.write"), nullptr);
    EXPECT_NE(trace->root().FindDescendant("wal.rotate"), nullptr);
    auto stats = ds.Stats();
    EXPECT_EQ(stats.metrics.CounterOr("storage.checkpoints"), 1u);
    EXPECT_GT(stats.metrics.CounterOr("storage.commits"), 0u);
    // wal_bytes tracks the live WAL and resets at rotation; the cumulative
    // view lives in the metric.
    EXPECT_GT(stats.metrics.CounterOr("storage.wal.appended_bytes"), 0u);
    EXPECT_EQ(stats.storage.wal_bytes, 0u);
  }
  // Reopen: startup recovery publishes a "recovery" storage trace.
  iql::Dataspace ds(config);
  ASSERT_TRUE(ds.storage_status().ok());
  auto trace = ds.LastTrace(kStorageTrace);
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->root().name(), "recovery");
  EXPECT_NE(trace->root().FindDescendant("checkpoint.load"), nullptr);
  EXPECT_NE(trace->root().FindDescendant("snapshot.restore"), nullptr);
  EXPECT_NE(trace->root().FindDescendant("wal.replay"), nullptr);
}

// --- federation traces ------------------------------------------------------

TEST_F(DataspaceTraceTest, FederationRecordsOnePeerRpcSpanPerPeer) {
  iql::Dataspace coordinator(ObservedConfig());
  iql::Dataspace peer_a, peer_b;
  AddTicker(&peer_a, 8);
  AddTicker(&peer_b, 8);

  iql::Federation fed(coordinator.clock());
  ASSERT_TRUE(fed.AddPeer("alpha", &peer_a).ok());
  ASSERT_TRUE(fed.AddPeer("beta", &peer_b).ok());
  fed.SetObservability(coordinator.observability());

  auto result = fed.Query("//tick1");
  ASSERT_TRUE(result.ok()) << result.status();
  auto trace = coordinator.LastTrace(kFederationTrace);
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->root().name(), "federation");
  auto children = trace->root().children();
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0]->AttrOr("peer"), "alpha");
  EXPECT_EQ(children[1]->AttrOr("peer"), "beta");
  EXPECT_EQ(children[0]->AttrOr("outcome"), "reached");
  auto stats = coordinator.Stats();
  EXPECT_EQ(stats.metrics.CounterOr("fed.queries"), 1u);
  EXPECT_EQ(stats.metrics.CounterOr("fed.peer.rpcs"), 2u);
}

// --- unified stats ----------------------------------------------------------

TEST_F(DataspaceTraceTest, StatsUnifiesTheSubsystemCounters) {
  iql::Dataspace ds(ObservedConfig());
  AddTicker(&ds);
  ASSERT_TRUE(ds.Query("union(//tick1, //tick2)").ok());
  ASSERT_TRUE(ds.sync().Poll().ok());

  auto stats = ds.Stats();
  EXPECT_GT(stats.mutations, 0u);
  EXPECT_EQ(stats.sync.polls, 1u);
  EXPECT_EQ(stats.metrics.CounterOr("rvm.sync.polls"), 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.metrics.CounterOr("iql.queries"), 1u);
  EXPECT_GT(stats.metrics.CounterOr("rvm.mutations"), 0u);
  EXPECT_EQ(stats.metrics.CounterOr("rvm.mutations"), stats.mutations);
  ASSERT_EQ(stats.metrics.histograms.count("iql.latency_micros"), 1u);
  EXPECT_EQ(stats.metrics.histograms.at("iql.latency_micros").count, 1u);
  // The deprecated shims agree with the unified snapshot.
  EXPECT_EQ(ds.Stats().cache.misses, stats.cache.misses);
  EXPECT_EQ(ds.Stats().admission.admitted, stats.admission.admitted);
}

}  // namespace
}  // namespace idm::obs
