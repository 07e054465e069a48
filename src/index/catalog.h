// Resource View Catalog (paper §5.2): all managed resource views are
// registered here. Replaces the Apache Derby tables of the prototype with
// an in-memory store plus a binary serialization (Save/Load) so a PDSMS
// instance can persist and recover its catalog.

#ifndef IDM_INDEX_CATALOG_H_
#define IDM_INDEX_CATALOG_H_

#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "index/inverted_index.h"  // for DocId
#include "util/result.h"

namespace idm::index {

/// Catalog record of one resource view.
struct CatalogEntry {
  std::string uri;         ///< stable identity (ResourceView::uri())
  /// Resource view class ("" = schema-never). Views the owning catalog's
  /// interned class table (class_names()), valid as long as the catalog.
  std::string_view class_name;
  uint32_t source = 0;     ///< id of the data source that owns the view
  bool derived = false;    ///< true when produced by a Content2iDM converter
  bool deleted = false;    ///< tombstone (ids are never reused)
};

class Catalog {
 public:
  /// Class id of unknown ids (ClassId); never indexes class_names().
  static constexpr uint32_t kNoClass = std::numeric_limits<uint32_t>::max();

  Catalog();
  // The live-set mutex is not movable; a moved catalog takes the entries
  // and the published snapshot, and the moved-from one is left empty.
  Catalog(Catalog&& other) noexcept;
  Catalog& operator=(Catalog&& other) noexcept;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Interns a data source name; stable small integer per name.
  uint32_t InternSource(const std::string& source_name);
  const std::string& SourceName(uint32_t source) const;

  /// Registers a view, or returns the existing id for a known uri
  /// (idempotent; re-registration clears a tombstone and updates the
  /// class/source/derived fields).
  DocId Register(const std::string& uri, const std::string& class_name,
                 uint32_t source, bool derived);

  /// Id of \p uri, if registered and live.
  std::optional<DocId> Find(const std::string& uri) const;

  /// Entry of \p id; nullptr for unknown ids (tombstoned entries are
  /// returned — check `deleted`).
  const CatalogEntry* Entry(DocId id) const;

  /// Tombstones an id. Unknown ids are a no-op.
  void Remove(DocId id);

  /// All live ids, ascending, as a shared immutable snapshot. O(1) when
  /// nothing changed since the last call; after writes, the first call
  /// merges the ids they touched into a fresh vector in one pass. A
  /// returned snapshot is never mutated: later writes publish a new one.
  /// Safe to call from concurrent readers.
  std::shared_ptr<const std::vector<DocId>> LiveSnapshot() const;

  /// A copy of LiveSnapshot().
  std::vector<DocId> LiveIds() const;
  size_t live_count() const { return live_count_; }
  size_t total_count() const { return entries_.size(); }

  /// Interned class names: ClassId(id) indexes this table. Append-only.
  const std::deque<std::string>& class_names() const { return class_names_; }

  /// Interned class of \p id (tombstoned entries keep theirs); kNoClass
  /// for unknown ids.
  uint32_t ClassId(DocId id) const {
    return id < class_ids_.size() ? class_ids_[id] : kNoClass;
  }

  /// Live views per source: (base, derived) counts — the split reported in
  /// the paper's Table 2.
  void CountBySource(uint32_t source, size_t* base, size_t* derived) const;

  /// Approximate footprint in bytes for Table 3 accounting.
  size_t MemoryUsage() const;

  /// Binary serialization of the whole catalog.
  std::string Serialize() const;
  static Result<Catalog> Deserialize(const std::string& data);

 private:
  // deque: stable element addresses, so the uri lookup can key on
  // string_views into the entries instead of duplicating every uri.
  std::deque<CatalogEntry> entries_;                // index = DocId
  std::unordered_map<std::string_view, DocId> by_uri_;
  std::vector<std::string> sources_;
  size_t live_count_ = 0;

  // Class table. A deque for the same reason as entries_: the entries'
  // class_name and the intern map's keys are views into it.
  uint32_t InternClass(std::string_view class_name);
  std::deque<std::string> class_names_;                       // id -> name
  std::unordered_map<std::string_view, uint32_t> class_by_name_;
  std::vector<uint32_t> class_ids_;                           // DocId -> id

  // Live set. live_ids_ is the last published snapshot and covers the ids
  // below folded_end_. Ids registered since are [folded_end_, entries_
  // size); touched_ lists the ids below folded_end_ removed or resurrected
  // since. LiveSnapshot() folds both in (the entries' `deleted` flags
  // decide). live_mu_ guards all three and serializes writers against
  // that fold.
  void FoldLocked() const;
  mutable std::mutex live_mu_;
  mutable std::shared_ptr<const std::vector<DocId>> live_ids_;
  mutable DocId folded_end_ = 0;
  mutable std::vector<DocId> touched_;
};

}  // namespace idm::index

#endif  // IDM_INDEX_CATALOG_H_
