// Catalog live-set snapshot and class-id table: the snapshot LiveSnapshot()
// publishes must equal "filter the entries for live ones" after any write
// sequence, a held snapshot must never change, and Deserialize must
// rebuild both the snapshot and the per-id class ids.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "index/catalog.h"
#include "util/rng.h"

namespace idm::index {
namespace {

/// The oracle: one pass over the entries.
std::vector<DocId> FilterLive(const Catalog& catalog) {
  std::vector<DocId> out;
  for (DocId id = 0; id < catalog.total_count(); ++id) {
    if (!catalog.Entry(id)->deleted) out.push_back(id);
  }
  return out;
}

void ExpectClassIdsMatchEntries(const Catalog& catalog) {
  for (DocId id = 0; id < catalog.total_count(); ++id) {
    uint32_t cls = catalog.ClassId(id);
    ASSERT_LT(cls, catalog.class_names().size()) << "id " << id;
    EXPECT_EQ(catalog.class_names()[cls], catalog.Entry(id)->class_name)
        << "id " << id;
  }
  EXPECT_EQ(catalog.ClassId(catalog.total_count()), Catalog::kNoClass);
}

TEST(CatalogSnapshotTest, ChurnMatchesFilterOracle) {
  static const char* kClasses[] = {"file", "folder", "emailmessage", ""};
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    Catalog catalog;
    uint32_t src = catalog.InternSource("s");
    for (int step = 0; step < 300; ++step) {
      double roll = rng.NextDouble();
      const char* cls = kClasses[rng.Uniform(std::size(kClasses))];
      if (roll < 0.35) {  // a new uri
        catalog.Register("new" + std::to_string(step), cls, src, false);
      } else if (roll < 0.55 && catalog.total_count() > 0) {
        // Re-register a known uri: resurrects it if tombstoned.
        DocId id = rng.Uniform(catalog.total_count());
        catalog.Register(catalog.Entry(id)->uri, cls, src, rng.Chance(0.5));
      } else if (roll < 0.85 && catalog.total_count() > 0) {
        catalog.Remove(rng.Uniform(catalog.total_count()));
      } else {
        catalog.Remove(catalog.total_count() + rng.Uniform(5));  // unknown
      }
      // Read at random points so folds see batches of every size.
      if (rng.Chance(0.3)) {
        std::vector<DocId> expected = FilterLive(catalog);
        ASSERT_EQ(*catalog.LiveSnapshot(), expected)
            << "seed " << seed << " step " << step;
        ASSERT_EQ(catalog.LiveIds(), expected);
        ASSERT_EQ(catalog.live_count(), expected.size());
      }
    }
    EXPECT_EQ(*catalog.LiveSnapshot(), FilterLive(catalog)) << "seed " << seed;
    ExpectClassIdsMatchEntries(catalog);
  }
}

TEST(CatalogSnapshotTest, UnchangedReadsShareOneSnapshot) {
  Catalog catalog;
  uint32_t src = catalog.InternSource("s");
  catalog.Register("a", "file", src, false);
  auto first = catalog.LiveSnapshot();
  EXPECT_EQ(catalog.LiveSnapshot().get(), first.get());
  catalog.Remove(99);  // unknown id: nothing to publish
  EXPECT_EQ(catalog.LiveSnapshot().get(), first.get());
}

TEST(CatalogSnapshotTest, HeldSnapshotIsNeverMutated) {
  Catalog catalog;
  uint32_t src = catalog.InternSource("s");
  for (int i = 0; i < 6; ++i) {
    catalog.Register("u" + std::to_string(i), "file", src, false);
  }
  catalog.Remove(2);
  auto held = catalog.LiveSnapshot();
  const std::vector<DocId> copy = *held;
  ASSERT_EQ(copy, (std::vector<DocId>{0, 1, 3, 4, 5}));

  catalog.Register("u6", "file", src, false);  // append
  EXPECT_EQ(*held, copy);
  catalog.Remove(4);  // removal
  EXPECT_EQ(*held, copy);
  catalog.Register("u2", "folder", src, false);  // resurrection
  EXPECT_EQ(*held, copy);

  auto now = catalog.LiveSnapshot();
  EXPECT_NE(now.get(), held.get());
  EXPECT_EQ(*now, (std::vector<DocId>{0, 1, 2, 3, 5, 6}));
  EXPECT_EQ(*held, copy);
}

TEST(CatalogSnapshotTest, DeserializeRebuildsSnapshotAndClassIds) {
  Rng rng(7);
  Catalog catalog;
  uint32_t src = catalog.InternSource("s");
  static const char* kClasses[] = {"file", "folder", "latex_section", ""};
  for (int i = 0; i < 60; ++i) {
    catalog.Register("u" + std::to_string(i),
                     kClasses[rng.Uniform(std::size(kClasses))], src, false);
    if (rng.Chance(0.3)) catalog.Remove(rng.Uniform(catalog.total_count()));
  }
  // Some writes stay unpublished: the image must not depend on reads.
  (void)catalog.LiveSnapshot();
  catalog.Remove(0);
  catalog.Register("late", "emailmessage", src, false);

  auto restored = Catalog::Deserialize(catalog.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(*restored->LiveSnapshot(), FilterLive(catalog));
  EXPECT_EQ(*restored->LiveSnapshot(), *catalog.LiveSnapshot());
  EXPECT_EQ(restored->live_count(), catalog.live_count());
  ExpectClassIdsMatchEntries(*restored);
  EXPECT_EQ(restored->Serialize(), catalog.Serialize());

  // A move carries the snapshot; the moved-from catalog is empty.
  Catalog moved = std::move(*restored);
  EXPECT_EQ(*moved.LiveSnapshot(), FilterLive(catalog));
  ExpectClassIdsMatchEntries(moved);
}

}  // namespace
}  // namespace idm::index
