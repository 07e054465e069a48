// Tests for NameIndex, TupleIndex, GroupStore and Catalog.

#include <gtest/gtest.h>

#include "core/view_class.h"
#include "index/catalog.h"
#include "index/group_store.h"
#include "index/name_index.h"
#include "index/tuple_index.h"

namespace idm::index {
namespace {

using core::Domain;
using core::Schema;
using core::TupleComponent;
using core::Value;

// --- NameIndex -------------------------------------------------------------

TEST(NameIndexTest, LookupIsCaseInsensitive) {
  NameIndex index;
  index.Add(1, "Introduction");
  index.Add(2, "introduction");
  index.Add(3, "Conclusions");
  EXPECT_EQ(index.Lookup("INTRODUCTION"), (std::vector<DocId>{1, 2}));
  EXPECT_EQ(index.NameOf(3), "Conclusions");  // replica keeps original case
  EXPECT_TRUE(index.Lookup("missing").empty());
}

TEST(NameIndexTest, WildcardPatterns) {
  NameIndex index;
  index.Add(1, "vldb2005 paper.tex");
  index.Add(2, "vldb2006 paper.tex");
  index.Add(3, "Conclusions");
  index.Add(4, "conclusion");
  index.Add(5, "notes.txt");
  EXPECT_EQ(index.LookupPattern("*.tex"), (std::vector<DocId>{1, 2}));
  EXPECT_EQ(index.LookupPattern("?onclusion*"), (std::vector<DocId>{3, 4}));
  EXPECT_EQ(index.LookupPattern("vldb200?*"), (std::vector<DocId>{1, 2}));
  EXPECT_EQ(index.LookupPattern("notes.txt"), (std::vector<DocId>{5}));
  EXPECT_TRUE(index.LookupPattern("zzz*").empty());
}

TEST(NameIndexTest, PrefixBoundedScan) {
  NameIndex index;
  for (DocId id = 0; id < 50; ++id) {
    index.Add(id, "file" + std::to_string(id));
  }
  index.Add(100, "target42x");
  EXPECT_EQ(index.LookupPattern("target*"), (std::vector<DocId>{100}));
}

TEST(NameIndexTest, RemoveAndReAdd) {
  NameIndex index;
  index.Add(1, "a");
  index.Add(2, "a");
  index.Remove(1);
  EXPECT_EQ(index.Lookup("a"), (std::vector<DocId>{2}));
  EXPECT_EQ(index.NameOf(1), "");
  index.Add(2, "renamed");  // re-add moves the id
  EXPECT_TRUE(index.Lookup("a").empty());
  EXPECT_EQ(index.Lookup("renamed"), (std::vector<DocId>{2}));
}

// --- TupleIndex --------------------------------------------------------------

TupleComponent FsTuple(int64_t size, Micros modified) {
  return TupleComponent::MakeUnchecked(
      core::FileSystemSchema(),
      {Value::Int(size), Value::Date(0), Value::Date(modified)});
}

class TupleIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    index_.Add(1, FsTuple(100, 1000));
    index_.Add(2, FsTuple(500000, 2000));
    index_.Add(3, FsTuple(420001, 3000));
    index_.Add(4, FsTuple(42, 4000));
  }
  TupleIndex index_;
};

TEST_F(TupleIndexTest, NormalizeAttribute) {
  EXPECT_EQ(TupleIndex::NormalizeAttribute("last modified time"),
            "lastmodifiedtime");
  EXPECT_EQ(TupleIndex::NormalizeAttribute("Size"), "size");
}

TEST_F(TupleIndexTest, RangeScans) {
  EXPECT_EQ(index_.Scan("size", CompareOp::kGt, Value::Int(420000)),
            (std::vector<DocId>{2, 3}));
  EXPECT_EQ(index_.Scan("size", CompareOp::kLe, Value::Int(100)),
            (std::vector<DocId>{1, 4}));
  EXPECT_EQ(index_.Scan("size", CompareOp::kEq, Value::Int(42)),
            (std::vector<DocId>{4}));
  EXPECT_EQ(index_.Scan("size", CompareOp::kNe, Value::Int(42)),
            (std::vector<DocId>{1, 2, 3}));
}

TEST_F(TupleIndexTest, QueryAliasMatchesByNormalizedPrefix) {
  // iQL's "lastmodified" finds the "last modified time" column.
  EXPECT_EQ(index_.Scan("lastmodified", CompareOp::kLt, Value::Date(2500)),
            (std::vector<DocId>{1, 2}));
}

TEST_F(TupleIndexTest, UnknownAttributeMatchesNothing) {
  EXPECT_TRUE(index_.Scan("owner", CompareOp::kEq, Value::Int(1)).empty());
}

TEST_F(TupleIndexTest, ReplicaKeepsTuples) {
  EXPECT_EQ(index_.TupleOf(2).Get("size")->AsInt(), 500000);
  EXPECT_TRUE(index_.TupleOf(99).empty());
}

TEST_F(TupleIndexTest, RemoveAndUpdate) {
  index_.Remove(2);
  EXPECT_EQ(index_.Scan("size", CompareOp::kGt, Value::Int(420000)),
            (std::vector<DocId>{3}));
  index_.Add(3, FsTuple(1, 1));  // update
  EXPECT_TRUE(index_.Scan("size", CompareOp::kGt, Value::Int(420000)).empty());
  EXPECT_EQ(index_.size(), 3u);
}

TEST_F(TupleIndexTest, MixedSchemasShareColumns) {
  // iDM: schemas are per-view; different W with a same-named attribute
  // land in the same vertical partition.
  index_.Add(10, TupleComponent::MakeUnchecked(
                     Schema().Add("size", Domain::kInt), {Value::Int(999999)}));
  EXPECT_EQ(index_.Scan("size", CompareOp::kGt, Value::Int(500001)),
            (std::vector<DocId>{10}));
}

TEST_F(TupleIndexTest, StringComparisons) {
  index_.Add(20, TupleComponent::MakeUnchecked(
                     Schema().Add("label", Domain::kString),
                     {Value::String("fig:a")}));
  EXPECT_EQ(index_.Scan("label", CompareOp::kEq, Value::String("fig:a")),
            (std::vector<DocId>{20}));
  EXPECT_TRUE(index_.Scan("label", CompareOp::kEq, Value::String("fig:b")).empty());
}

// --- GroupStore --------------------------------------------------------------

class GroupStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    //        1
    //       / \
    //      2   3
    //     / \ /
    //    4   5    (5 shared by 2 and 3)
    store_.SetChildren(1, {2, 3});
    store_.SetChildren(2, {4, 5});
    store_.SetChildren(3, {5});
  }
  GroupStore store_;
};

TEST_F(GroupStoreTest, ChildrenAndParents) {
  EXPECT_EQ(store_.Children(1), (std::vector<DocId>{2, 3}));
  EXPECT_TRUE(store_.Children(4).empty());
  EXPECT_EQ(store_.Parents(5), (std::vector<DocId>{2, 3}));
  EXPECT_TRUE(store_.Parents(1).empty());
  EXPECT_EQ(store_.edge_count(), 5u);
}

TEST_F(GroupStoreTest, Descendants) {
  auto desc = store_.Descendants({1});
  EXPECT_EQ(desc.size(), 4u);
  EXPECT_TRUE(desc.count(5) > 0);
  EXPECT_FALSE(desc.count(1) > 0);  // the root itself is excluded
}

TEST_F(GroupStoreTest, DescendantsReportsExpansionWork) {
  size_t expanded = 0;
  store_.Descendants({1}, SIZE_MAX, &expanded);
  EXPECT_GE(expanded, 5u);  // every reachable node was dequeued
}

TEST_F(GroupStoreTest, DescendantsBounded) {
  auto desc = store_.Descendants({1}, /*max_nodes=*/2);
  EXPECT_LE(desc.size(), 3u);  // bound is approximate but respected ±batch
}

TEST_F(GroupStoreTest, Ancestors) {
  auto anc = store_.Ancestors({5});
  EXPECT_EQ(anc.size(), 3u);  // 2, 3, 1
  EXPECT_TRUE(anc.count(1) > 0);
}

TEST_F(GroupStoreTest, CycleTerminates) {
  store_.SetChildren(5, {1});  // close a cycle
  auto desc = store_.Descendants({1});
  EXPECT_EQ(desc.size(), 5u);  // includes 1 itself via the cycle
}

TEST_F(GroupStoreTest, ReachedFromAnyWalksParentsUpToASortedSource) {
  size_t expanded = 0;
  EXPECT_TRUE(store_.ReachedFromAny(5, {3, 9}, SIZE_MAX, &expanded));
  EXPECT_EQ(expanded, 1u);  // 5's parent 3 is a source
  EXPECT_TRUE(store_.ReachedFromAny(4, {1}, SIZE_MAX, &expanded));
  EXPECT_EQ(expanded, 3u);  // accumulates: 4, then 2 meets 1
  expanded = 0;
  EXPECT_FALSE(store_.ReachedFromAny(4, {3}, SIZE_MAX, &expanded));
  EXPECT_EQ(expanded, 3u);  // 4, 2, 1: every ancestor, then no more
  EXPECT_FALSE(store_.ReachedFromAny(1, {1}));  // a start is not its own
  EXPECT_FALSE(store_.ReachedFromAny(4, {}));
}

TEST_F(GroupStoreTest, ReachedFromAnyTerminatesOnACycle) {
  store_.SetChildren(5, {1});  // close a cycle: 1 -> 2 -> 5 -> 1
  size_t expanded = 0;
  EXPECT_FALSE(store_.ReachedFromAny(1, {7}, SIZE_MAX, &expanded));
  EXPECT_EQ(expanded, 4u);  // 1, 5, 2, 3, each once
  expanded = 0;
  EXPECT_TRUE(store_.ReachedFromAny(1, {1}, SIZE_MAX, &expanded));
  EXPECT_EQ(expanded, 3u);  // 1, 5, then 2 meets 1 via the cycle
}

TEST_F(GroupStoreTest, ReachedFromAnyStopsAtMaxNodes) {
  size_t expanded = 0;
  // Visiting 4 and its parent 2 fills a two-node bound before 2 is
  // expanded, so source 1 is never met.
  EXPECT_FALSE(store_.ReachedFromAny(4, {1}, /*max_nodes=*/2, &expanded));
  EXPECT_EQ(expanded, 1u);
  EXPECT_FALSE(store_.ReachedFromAny(4, {1}, /*max_nodes=*/1, &expanded));
  EXPECT_EQ(expanded, 1u);  // the start alone fills the bound
  EXPECT_TRUE(store_.ReachedFromAny(4, {1}, /*max_nodes=*/3, &expanded));
}

TEST_F(GroupStoreTest, SetChildrenReplaces) {
  store_.SetChildren(1, {4});
  EXPECT_EQ(store_.Children(1), (std::vector<DocId>{4}));
  EXPECT_EQ(store_.Parents(2), std::vector<DocId>{});
  EXPECT_EQ(store_.Parents(4), (std::vector<DocId>{1, 2}));
}

TEST_F(GroupStoreTest, RemoveAllEdges) {
  store_.RemoveAllEdgesOf(5);
  EXPECT_EQ(store_.Children(2), (std::vector<DocId>{4}));
  EXPECT_TRUE(store_.Children(3).empty());
  EXPECT_TRUE(store_.Parents(5).empty());
}

// --- Catalog -----------------------------------------------------------------

TEST(CatalogTest, RegisterIsIdempotent) {
  Catalog catalog;
  uint32_t fs = catalog.InternSource("Filesystem");
  DocId a = catalog.Register("vfs:/a", "file", fs, false);
  DocId b = catalog.Register("vfs:/a", "file", fs, false);
  EXPECT_EQ(a, b);
  EXPECT_EQ(catalog.live_count(), 1u);
  EXPECT_EQ(catalog.Find("vfs:/a"), a);
  EXPECT_EQ(catalog.Entry(a)->class_name, "file");
  EXPECT_EQ(catalog.SourceName(fs), "Filesystem");
}

TEST(CatalogTest, TombstoneAndResurrect) {
  Catalog catalog;
  uint32_t fs = catalog.InternSource("fs");
  DocId a = catalog.Register("vfs:/a", "file", fs, false);
  catalog.Remove(a);
  EXPECT_FALSE(catalog.Find("vfs:/a").has_value());
  EXPECT_EQ(catalog.live_count(), 0u);
  EXPECT_TRUE(catalog.Entry(a)->deleted);
  DocId again = catalog.Register("vfs:/a", "folder", fs, false);
  EXPECT_EQ(again, a);  // ids are stable across delete/re-add
  EXPECT_EQ(catalog.Entry(a)->class_name, "folder");
  EXPECT_EQ(catalog.live_count(), 1u);
}

TEST(CatalogTest, CountBySourceSplitsBaseAndDerived) {
  Catalog catalog;
  uint32_t fs = catalog.InternSource("fs");
  uint32_t mail = catalog.InternSource("mail");
  catalog.Register("vfs:/a", "file", fs, false);
  catalog.Register("vfs:/a#tex/0", "latex_section", fs, true);
  catalog.Register("vfs:/a#tex/1", "figure", fs, true);
  catalog.Register("imap://INBOX/1", "emailmessage", mail, false);
  size_t base = 0, derived = 0;
  catalog.CountBySource(fs, &base, &derived);
  EXPECT_EQ(base, 1u);
  EXPECT_EQ(derived, 2u);
  catalog.CountBySource(mail, &base, &derived);
  EXPECT_EQ(base, 1u);
  EXPECT_EQ(derived, 0u);
}

TEST(CatalogTest, SerializeRoundTrip) {
  Catalog catalog;
  uint32_t fs = catalog.InternSource("Filesystem");
  uint32_t mail = catalog.InternSource("Email / IMAP");
  DocId a = catalog.Register("vfs:/a", "file", fs, false);
  catalog.Register("imap://INBOX/1", "emailmessage", mail, false);
  DocId c = catalog.Register("vfs:/a#tex/0", "latex_section", fs, true);
  catalog.Remove(c);

  auto restored = Catalog::Deserialize(catalog.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->live_count(), 2u);
  EXPECT_EQ(restored->total_count(), 3u);
  EXPECT_EQ(restored->Find("vfs:/a"), a);
  EXPECT_FALSE(restored->Find("vfs:/a#tex/0").has_value());
  EXPECT_EQ(restored->Entry(a)->class_name, "file");
  EXPECT_EQ(restored->SourceName(1), "Email / IMAP");
}

TEST(CatalogTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Catalog::Deserialize("not a catalog").ok());
  EXPECT_FALSE(Catalog::Deserialize("").ok());
  Catalog catalog;
  catalog.Register("u", "", catalog.InternSource("s"), false);
  std::string data = catalog.Serialize();
  data.resize(data.size() / 2);  // truncate
  EXPECT_FALSE(Catalog::Deserialize(data).ok());
}

TEST(CatalogTest, LiveIdsAscending) {
  Catalog catalog;
  uint32_t fs = catalog.InternSource("fs");
  for (int i = 0; i < 10; ++i) {
    catalog.Register("u" + std::to_string(i), "", fs, false);
  }
  catalog.Remove(4);
  auto ids = catalog.LiveIds();
  EXPECT_EQ(ids.size(), 9u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

}  // namespace
}  // namespace idm::index
