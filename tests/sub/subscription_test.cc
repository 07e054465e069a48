// Continuous-query subscriptions (DESIGN.md §14).
//
// Part 1 drives sub::SubscriptionManager directly with synthetic eval /
// match capabilities — the degraded, overflow, ordering, and skip
// behaviors are pinned without any query-language tuning.
//
// Part 2 goes through the Dataspace facade and runs the differential that
// the subsystem's correctness rests on: after EVERY mutation round, the
// incrementally maintained rows of each subscription must equal a fresh
// full evaluation of the same query (fresh evaluation as oracle), and a
// client state folded from the delta stream must equal the maintained
// rows. Query shapes cover the Table 4 families: phrase filter (ranked),
// attribute filter, single- and multi-step paths, union, join.

#include "sub/subscription.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "iql/dataspace.h"
#include "sub/footprint.h"

namespace idm::sub {
namespace {

using Rows = std::vector<std::vector<index::DocId>>;

MutationEvent Event(index::Version version, index::ChangeRecord::Op op,
                    index::DocId id, uint32_t source,
                    const std::string& name) {
  MutationEvent event;
  event.version = version;
  event.op = op;
  event.id = id;
  event.source = source;
  event.name = name;
  return event;
}

TEST(FootprintTest, PatternMatchesNameSemantics) {
  EXPECT_TRUE(PatternMatchesName("", "anything"));
  EXPECT_TRUE(PatternMatchesName("*", "anything"));
  EXPECT_TRUE(PatternMatchesName("*.tmp", "scratch.TMP"));  // case-insensitive
  EXPECT_TRUE(PatternMatchesName("?onclusion*", "Conclusions"));
  EXPECT_FALSE(PatternMatchesName("*.tmp", "scratch.txt"));
}

TEST(FootprintTest, AffectedByScopedAndGlobal) {
  Footprint global;  // default kind is kGlobal
  EXPECT_TRUE(AffectedBy(
      global, Event(1, index::ChangeRecord::Op::kAdded, 7, 9, "x")));

  Footprint scoped;
  scoped.kind = Footprint::Kind::kScoped;
  scoped.patterns = {"*.tmp"};
  scoped.substrates = {1, 3};
  // Inside a footprint substrate: always affecting (even removals).
  EXPECT_TRUE(AffectedBy(
      scoped, Event(1, index::ChangeRecord::Op::kRemoved, 7, 3, "")));
  // Outside, with a pattern-matching new name: affecting (a match appeared
  // in a previously irrelevant substrate).
  EXPECT_TRUE(AffectedBy(
      scoped, Event(1, index::ChangeRecord::Op::kAdded, 7, 2, "new.tmp")));
  // Outside, name matches nothing: irrelevant.
  EXPECT_FALSE(AffectedBy(
      scoped, Event(1, index::ChangeRecord::Op::kAdded, 7, 2, "new.txt")));
  // Removals outside the substrates cannot unseat a member (members live
  // inside substrates by the footprint invariant).
  EXPECT_FALSE(AffectedBy(
      scoped, Event(1, index::ChangeRecord::Op::kRemoved, 7, 2, "")));
}

// A controllable single-column query: "all ids in `members` of source 1".
struct FakeQuery {
  std::set<index::DocId> members;
  bool degrade_next = false;

  Footprint footprint() const {
    Footprint fp;
    fp.kind = Footprint::Kind::kScoped;
    fp.patterns = {"*.tmp"};
    fp.substrates = {1};
    return fp;
  }
  EvalFn eval() {
    return [this]() {
      EvalOutcome out;
      out.ok = true;
      if (degrade_next) {
        out.complete = false;
        out.degraded_reason = "step budget exhausted";
        return out;
      }
      for (index::DocId id : members) out.rows.push_back({id});
      return out;
    };
  }
  MatchFn match() {
    return [this](index::DocId id) { return members.count(id) > 0; };
  }
  Rows rows() const {
    Rows rows;
    for (index::DocId id : members) rows.push_back({id});
    return rows;
  }
};

TEST(SubscriptionManagerTest, InitialSnapshotQueuedAndPushed) {
  SubscriptionManager manager;
  FakeQuery q;
  q.members = {4, 9};
  std::vector<ResultDelta> pushed;
  SubscribeOptions options;
  options.on_delta = [&](const ResultDelta& d) { pushed.push_back(d); };
  auto sub = manager.Subscribe("q", q.footprint(), q.eval(), q.match(),
                               nullptr, options, 5, q.rows());
  ASSERT_EQ(pushed.size(), 1u);
  EXPECT_TRUE(pushed[0].snapshot);
  EXPECT_EQ(pushed[0].version, 5u);
  EXPECT_EQ(pushed[0].added, q.rows());
  auto drained = sub->Drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_TRUE(drained[0].snapshot);
  EXPECT_EQ(sub->Rows(), q.rows());
  EXPECT_EQ(sub->version(), 5u);
}

TEST(SubscriptionManagerTest, UnaffectedEventsAreSkippedEntirely) {
  SubscriptionManager manager;
  FakeQuery q;
  q.members = {4};
  auto sub = manager.Subscribe("q", q.footprint(), q.eval(), q.match(),
                               nullptr, {}, 5, q.rows());
  sub->Drain();
  // Source 2, non-matching name: outside the footprint.
  manager.OnMutation(Event(6, index::ChangeRecord::Op::kAdded, 8, 2, "a.txt"));
  auto stats = manager.Pump(6);
  EXPECT_EQ(stats.pumped, 1u);
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_EQ(stats.deltas, 0u);
  EXPECT_EQ(sub->pending(), 0u);
  EXPECT_EQ(sub->Rows(), q.rows());
}

TEST(SubscriptionManagerTest, FastPathPatchesWithoutEval) {
  SubscriptionManager manager;
  FakeQuery q;
  q.members = {4};
  bool eval_ran = false;
  EvalFn poisoned_eval = [&]() {
    eval_ran = true;
    return q.eval()();
  };
  auto sub = manager.Subscribe("q", q.footprint(), poisoned_eval, q.match(),
                               nullptr, {}, 5, q.rows());
  sub->Drain();
  q.members = {4, 9};  // 9 appears, matching
  manager.OnMutation(Event(6, index::ChangeRecord::Op::kAdded, 9, 1, "b.tmp"));
  // And 4 is removed.
  q.members = {9};
  manager.OnMutation(Event(7, index::ChangeRecord::Op::kRemoved, 4, 1, ""));
  auto stats = manager.Pump(7);
  EXPECT_EQ(stats.fastpath, 1u);
  EXPECT_EQ(stats.recomputes, 0u);
  EXPECT_FALSE(eval_ran);
  auto drained = sub->Drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].added, (Rows{{9}}));
  EXPECT_EQ(drained[0].removed, (Rows{{4}}));
  EXPECT_EQ(drained[0].version, 7u);
  EXPECT_EQ(sub->Rows(), (Rows{{9}}));
}

TEST(SubscriptionManagerTest, RecomputeDiffsAgainstMaintainedRows) {
  SubscriptionManager manager;
  FakeQuery q;
  q.members = {4, 9};
  // No match fn: every affecting event forces the recompute path.
  auto sub = manager.Subscribe("q", q.footprint(), q.eval(), nullptr, nullptr,
                               {}, 5, q.rows());
  sub->Drain();
  q.members = {9, 12};
  manager.OnMutation(Event(6, index::ChangeRecord::Op::kUpdated, 9, 1,
                           "b.tmp"));
  auto stats = manager.Pump(6);
  EXPECT_EQ(stats.recomputes, 1u);
  auto drained = sub->Drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].added, (Rows{{12}}));
  EXPECT_EQ(drained[0].removed, (Rows{{4}}));
  // 9 survived while its view changed: reported as updated.
  EXPECT_EQ(drained[0].updated, (Rows{{9}}));
  EXPECT_EQ(sub->Rows(), q.rows());
}

TEST(SubscriptionManagerTest, DegradedRecomputeKeepsRowsAndRetries) {
  SubscriptionManager manager;
  FakeQuery q;
  q.members = {4};
  auto sub = manager.Subscribe("q", q.footprint(), q.eval(), nullptr, nullptr,
                               {}, 5, q.rows());
  sub->Drain();
  q.degrade_next = true;
  q.members = {4, 9};
  manager.OnMutation(Event(6, index::ChangeRecord::Op::kAdded, 9, 1, "b.tmp"));
  auto stats = manager.Pump(6);
  EXPECT_EQ(stats.degraded, 1u);
  auto drained = sub->Drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_FALSE(drained[0].complete);
  EXPECT_FALSE(drained[0].degraded_reason.empty());
  // Partial-result contract: the maintained rows did NOT absorb a partial
  // answer — the last complete state stands.
  EXPECT_EQ(sub->Rows(), (Rows{{4}}));
  // The next pump retries even with no new events, and catches up.
  q.degrade_next = false;
  stats = manager.Pump(7);
  EXPECT_EQ(stats.recomputes, 1u);
  drained = sub->Drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_TRUE(drained[0].complete);
  EXPECT_EQ(drained[0].added, (Rows{{9}}));
  EXPECT_EQ(sub->Rows(), (Rows{{4}, {9}}));
}

TEST(SubscriptionManagerTest, OverflowCollapsesQueueToSnapshot) {
  SubscriptionManager manager;
  FakeQuery q;
  q.members = {1};
  SubscribeOptions options;
  options.max_queue = 1;
  auto sub = manager.Subscribe("q", q.footprint(), q.eval(), q.match(),
                               nullptr, options, 5, q.rows());
  // Never drained: the initial snapshot occupies the one queue slot; each
  // subsequent delta overflows and collapses the queue.
  for (index::DocId id = 10; id < 14; ++id) {
    q.members.insert(id);
    manager.OnMutation(Event(id, index::ChangeRecord::Op::kAdded, id, 1,
                             "x.tmp"));
    manager.Pump(id);
  }
  EXPECT_GE(sub->overflows(), 1u);
  auto drained = sub->Drain();
  ASSERT_FALSE(drained.empty());
  // Lossy in granularity, never in state: the surviving delta is a
  // snapshot carrying the full current rows.
  const ResultDelta& last = drained.back();
  EXPECT_TRUE(last.snapshot);
  EXPECT_EQ(last.added, sub->Rows());
  EXPECT_EQ(sub->Rows(), q.rows());
}

TEST(SubscriptionManagerTest, DeliveryFollowsSubscriptionIdOrder) {
  SubscriptionManager manager;
  FakeQuery q;
  q.members = {1};
  std::vector<uint64_t> order;
  SubscribeOptions first, second;
  first.on_delta = [&](const ResultDelta&) { order.push_back(1); };
  second.on_delta = [&](const ResultDelta&) { order.push_back(2); };
  auto a = manager.Subscribe("a", q.footprint(), q.eval(), nullptr, nullptr,
                             first, 5, q.rows());
  auto b = manager.Subscribe("b", q.footprint(), q.eval(), nullptr, nullptr,
                             second, 5, q.rows());
  EXPECT_LT(a->id(), b->id());
  order.clear();
  q.members = {1, 2};
  manager.OnMutation(Event(6, index::ChangeRecord::Op::kAdded, 2, 1, "y.tmp"));
  manager.Pump(6);
  EXPECT_EQ(order, (std::vector<uint64_t>{1, 2}));
}

TEST(SubscriptionManagerTest, UnsubscribeStopsDelivery) {
  SubscriptionManager manager;
  FakeQuery q;
  q.members = {1};
  auto sub = manager.Subscribe("q", q.footprint(), q.eval(), nullptr, nullptr,
                               {}, 5, q.rows());
  sub->Drain();
  EXPECT_TRUE(manager.Unsubscribe(sub->id()));
  EXPECT_FALSE(manager.Unsubscribe(sub->id()));
  EXPECT_EQ(manager.subscription_count(), 0u);
  q.members = {1, 2};
  manager.OnMutation(Event(6, index::ChangeRecord::Op::kAdded, 2, 1, "y.tmp"));
  manager.Pump(6);
  EXPECT_EQ(sub->pending(), 0u);
}

// ---------------------------------------------------------------------------
// Part 2: through the Dataspace — the incremental-vs-oracle differential.
// ---------------------------------------------------------------------------

Rows Sorted(Rows rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Client-side state folded from a delta stream (multiset semantics, so a
/// duplicate row in a join result is handled exactly).
class DeltaFollower {
 public:
  void Apply(const ResultDelta& delta) {
    if (delta.snapshot) state_.clear();
    if (!delta.complete) return;  // degraded: state unchanged by contract
    for (const auto& row : delta.removed) {
      auto it = state_.find(row);
      ASSERT_NE(it, state_.end()) << "delta removed a row we never had";
      if (--it->second == 0) state_.erase(it);
    }
    for (const auto& row : delta.added) ++state_[row];
  }
  Rows rows() const {
    Rows rows;
    for (const auto& [row, count] : state_) {
      for (int i = 0; i < count; ++i) rows.push_back(row);
    }
    return rows;
  }

 private:
  std::map<std::vector<index::DocId>, int> state_;
};

class DataspaceSubscriptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = std::make_unique<iql::Dataspace>();
    fs_ = std::make_shared<vfs::VirtualFileSystem>(ds_->clock());
    ASSERT_TRUE(fs_->CreateFolder("/work").ok());
    ASSERT_TRUE(fs_->CreateFolder("/spare").ok());
    ASSERT_TRUE(fs_->WriteFile("/work/keep.txt", "keep me around").ok());
    ASSERT_TRUE(fs_->WriteFile("/work/old1.tmp", "obsolete scratch one").ok());
    ASSERT_TRUE(fs_->WriteFile("/work/old2.tmp", "obsolete scratch two").ok());
    ASSERT_TRUE(fs_->WriteFile("/spare/keep.txt", "spare twin file").ok());
    imap_ = std::make_shared<email::ImapServer>(ds_->clock());
    email::Message m;
    m.from = "colleague@example.com";
    m.subject = "status report";
    m.date = ds_->clock()->NowMicros();
    m.body = "nothing about scratch files";
    ASSERT_TRUE(imap_->Append("INBOX", std::move(m)).ok());
    ASSERT_TRUE(ds_->AddFileSystem("Filesystem", fs_).ok());
    ASSERT_TRUE(ds_->AddImap("Email", imap_).ok());
  }

  void AppendMail(const std::string& subject, const std::string& body) {
    email::Message m;
    m.from = "colleague@example.com";
    m.subject = subject;
    m.date = ds_->clock()->NowMicros();
    m.body = body;
    ASSERT_TRUE(imap_->Append("INBOX", std::move(m)).ok());
  }

  Rows Oracle(const std::string& iql) {
    auto result = ds_->Query(iql);
    EXPECT_TRUE(result.ok()) << iql << ": " << result.status();
    return result.ok() ? result->rows : Rows{};
  }

  std::unique_ptr<iql::Dataspace> ds_;
  std::shared_ptr<vfs::VirtualFileSystem> fs_;
  std::shared_ptr<email::ImapServer> imap_;
};

TEST_F(DataspaceSubscriptionTest, InitialSnapshotMatchesQuery) {
  auto sub = ds_->Subscribe("//*.tmp");
  ASSERT_TRUE(sub.ok()) << sub.status();
  EXPECT_TRUE((*sub)->per_view());  // single descendant step: fast path
  EXPECT_TRUE((*sub)->scoped());
  auto drained = (*sub)->Drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_TRUE(drained[0].snapshot);
  EXPECT_EQ(Sorted(drained[0].added), Sorted(Oracle("//*.tmp")));
  EXPECT_EQ((*sub)->version(), ds_->module().versions().current());
}

TEST_F(DataspaceSubscriptionTest, MalformedQueryRejected) {
  EXPECT_FALSE(ds_->Subscribe("//a[").ok());
}

// The central differential: across the Table 4 query shapes, every
// mutation round must leave each subscription's maintained rows equal to
// a fresh full evaluation, and the delta stream must reconstruct the same
// state on a client that only sees deltas.
TEST_F(DataspaceSubscriptionTest, IncrementalEqualsFullReevaluation) {
  const std::vector<std::string> shapes = {
      "//*.tmp",                                   // 1-step path (fast path)
      "//work//*.tmp",                             // multi-step path
      "[size > 20]",                               // attribute filter
      "\"obsolete\"",                              // ranked phrase
      "union( //*.tmp, //*.txt )",                 // set op
      "join( //work/* as A, //spare/* as B, A.name = B.name )",  // join
  };
  struct Live {
    std::string iql;
    std::shared_ptr<Subscription> sub;
    DeltaFollower follower;
  };
  std::vector<Live> live;
  for (const std::string& iql : shapes) {
    auto sub = ds_->Subscribe(iql);
    ASSERT_TRUE(sub.ok()) << iql << ": " << sub.status();
    live.push_back({iql, *sub, {}});
  }

  auto check_all = [&](const std::string& what) {
    for (Live& entry : live) {
      SCOPED_TRACE("after " + what + ", query: " + entry.iql);
      for (const ResultDelta& delta : entry.sub->Drain()) {
        entry.follower.Apply(delta);
      }
      Rows maintained = Sorted(entry.sub->Rows());
      EXPECT_EQ(maintained, Sorted(Oracle(entry.iql)));
      EXPECT_EQ(Sorted(entry.follower.rows()), maintained);
    }
  };
  check_all("subscribe");

  const std::vector<std::pair<std::string, std::function<void()>>> script = {
      {"add matching tmp file",
       [&] {
         ASSERT_TRUE(
             fs_->WriteFile("/work/new.tmp", "obsolete scratch three").ok());
       }},
      {"add spare file without a twin",
       [&] {
         ASSERT_TRUE(
             fs_->WriteFile("/spare/solo.txt", "no twin in work").ok());
       }},
      {"add work twin joining with spare",
       [&] {
         ASSERT_TRUE(fs_->WriteFile("/work/solo.txt", "twin appears").ok());
       }},
      {"overwrite existing file",
       [&] {
         ASSERT_TRUE(fs_->WriteFile("/work/keep.txt",
                                    "keep me around, now longer and obsolete")
                         .ok());
       }},
      {"remove a tmp file",
       [&] { ASSERT_TRUE(fs_->Remove("/work/old1.tmp").ok()); }},
      {"append unrelated mail",
       [&] { AppendMail("meeting notes", "unrelated to files"); }},
  };
  for (const auto& [what, mutate] : script) {
    mutate();
    ASSERT_TRUE(ds_->sync().ProcessNotifications().ok());  // auto-pumps
    check_all(what);
  }

  // A write-through delete (catalog removals behind the facade).
  auto update = ds_->ExecuteUpdate("delete //work//*.tmp");
  ASSERT_TRUE(update.ok()) << update.status();
  EXPECT_EQ(update->deleted, 2u);
  ds_->PumpSubscriptions();
  check_all("delete statement");

  auto stats = ds_->Stats().subscriptions;
  EXPECT_EQ(stats.subscriptions, live.size());
  EXPECT_GT(stats.fastpath, 0u);
  EXPECT_GT(stats.recomputes, 0u);
  EXPECT_GT(stats.deltas, 0u);
}

TEST_F(DataspaceSubscriptionTest, UnrelatedSubstrateMutationIsSkipped) {
  auto sub = ds_->Subscribe("//work//*.tmp");
  ASSERT_TRUE(sub.ok()) << sub.status();
  (*sub)->Drain();
  uint64_t skipped_before = ds_->Stats().subscriptions.skipped;
  // Mail lands in the imap substrate; the subscription's footprint covers
  // only the filesystem. The pump must not touch it.
  AppendMail("quarterly numbers", "all fine");
  ASSERT_TRUE(ds_->sync().ProcessNotifications().ok());
  EXPECT_GT(ds_->Stats().subscriptions.skipped, skipped_before);
  EXPECT_EQ((*sub)->pending(), 0u);
}

TEST_F(DataspaceSubscriptionTest, CacheEntrySurvivesUnrelatedSubstrateWrite) {
  // Prime the cache with a filesystem-scoped query.
  ASSERT_TRUE(ds_->Query("//work//*.tmp").ok());
  auto before = ds_->Stats().cache;
  // An imap mutation advances the global epoch ...
  AppendMail("unrelated memo", "nothing matching the patterns");
  ASSERT_TRUE(ds_->sync().ProcessNotifications().ok());
  ASSERT_GT(ds_->module().versions().current(), 0u);
  // ... yet the entry survives: the footprint proof runs instead of the
  // classic whole-epoch drop, and the result is served from cache.
  auto again = ds_->Query("//work//*.tmp");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->elapsed_micros, 0);  // cache hit
  auto after = ds_->Stats().cache;
  EXPECT_EQ(after.footprint_survived, before.footprint_survived + 1);
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_GT(after.survival_rate(), 0.0);

  // A write that DOES touch the footprint kills the entry as before.
  ASSERT_TRUE(fs_->WriteFile("/work/fresh.tmp", "new scratch").ok());
  ASSERT_TRUE(ds_->sync().ProcessNotifications().ok());
  auto third = ds_->Query("//work//*.tmp");
  ASSERT_TRUE(third.ok());
  EXPECT_GT(ds_->Stats().cache.stale_skipped, before.stale_skipped);
  EXPECT_EQ(third->rows.size(), 3u);  // old1, old2, fresh
}

TEST_F(DataspaceSubscriptionTest, SubActivitySurfacesInStatsAndMetrics) {
  iql::Dataspace::Config config;
  config.observability.enabled = true;
  auto ds = std::make_unique<iql::Dataspace>(std::move(config));
  auto fs = std::make_shared<vfs::VirtualFileSystem>(ds->clock());
  ASSERT_TRUE(fs->WriteFile("/a.tmp", "scratch").ok());
  ASSERT_TRUE(ds->AddFileSystem("Filesystem", fs).ok());
  auto sub = ds->Subscribe("//*.tmp");
  ASSERT_TRUE(sub.ok()) << sub.status();
  ASSERT_TRUE(fs->WriteFile("/b.tmp", "more scratch").ok());
  ASSERT_TRUE(ds->sync().ProcessNotifications().ok());

  iql::DataspaceStats stats = ds->Stats();
  EXPECT_EQ(stats.subscriptions.subscriptions, 1u);
  EXPECT_EQ(stats.subscriptions.opened, 1u);
  EXPECT_GT(stats.subscriptions.pumps, 0u);
  EXPECT_GT(stats.subscriptions.deltas, 0u);
  const auto& counters = stats.metrics.counters;
  ASSERT_TRUE(counters.count("sub.opened"));
  EXPECT_EQ(counters.at("sub.opened"), 1u);
  ASSERT_TRUE(counters.count("sub.deltas"));
  EXPECT_GT(counters.at("sub.deltas"), 0u);
  // The pump records a span tree in its own trace category.
  auto trace = ds->LastTrace(obs::kSubTrace);
  ASSERT_NE(trace, nullptr);
}

}  // namespace
}  // namespace idm::sub
