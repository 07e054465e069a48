// Name Index & Replica (paper §7.2, structure 1): maps resource view names
// to ids and retains the names themselves (it is a replica, unlike the
// content index). Supports exact (case-insensitive) lookup and the iQL
// wildcard patterns of Table 4 ("VLDB200?", "?onclusion*", "*.tex").
//
// Wildcard lookups go through a lexicon accelerator kept per distinct
// lowered name, updated only when a name's id list turns empty or
// non-empty: the ordered name map answers literal prefixes, the names in
// reversed-byte order answer literal suffixes, and trigram postings answer
// patterns whose literal sits in the middle ("?onclusion*", "*vision*").
// Every candidate is verified with WildcardMatch.

#ifndef IDM_INDEX_NAME_INDEX_H_
#define IDM_INDEX_NAME_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "index/inverted_index.h"  // for DocId
#include "util/result.h"

namespace idm::index {

class NameIndex {
 public:
  NameIndex() = default;
  // The accelerator points into by_name_'s nodes: moving keeps the nodes,
  // copying would not.
  NameIndex(NameIndex&&) = default;
  NameIndex& operator=(NameIndex&&) = default;
  NameIndex(const NameIndex&) = delete;
  NameIndex& operator=(const NameIndex&) = delete;

  /// Associates \p id with \p name, replacing any previous association.
  void Add(DocId id, const std::string& name);

  /// Drops the association. Unknown ids are a no-op.
  void Remove(DocId id);

  /// The replica: the stored name of \p id ("" when unknown or unnamed).
  const std::string& NameOf(DocId id) const;

  /// Ids whose name equals \p name, ASCII case-insensitively. Sorted.
  std::vector<DocId> Lookup(const std::string& name) const;

  /// Ids whose name matches the wildcard \p pattern ('*', '?'; case-
  /// insensitive). Patterns without a wildcard degrade to Lookup. The
  /// candidate distinct names: with a literal suffix of kGram or more
  /// bytes, longer than the literal prefix, the names ending in it (the
  /// reversed order); else, with a prefix under kGram bytes and a literal
  /// run of kGram bytes anywhere, the postings of the run's rarest
  /// trigram; else the names in the prefix's range (all names when there
  /// is no prefix). Every candidate is verified with WildcardMatch. Sorted.
  std::vector<DocId> LookupPattern(const std::string& pattern) const;

  /// Length of the n-grams in the infix postings; also the shortest
  /// literal the accelerator uses.
  static constexpr size_t kGram = 3;

  size_t size() const { return names_.size(); }
  size_t distinct_names() const { return by_name_.size(); }

  /// Approximate footprint in bytes for Table 3 accounting.
  size_t MemoryUsage() const;

  /// Deterministic binary image (entries sorted by id) for checkpoints;
  /// Deserialize rebuilds the by-name index from the replica.
  std::string Serialize() const;
  static Result<NameIndex> Deserialize(const std::string& data);

 private:
  using ByName = std::map<std::string, std::vector<DocId>>;
  using NameEntry = ByName::value_type;
  using NameEntryList = std::vector<const NameEntry*>;

  /// Adds / drops a distinct name in the suffix lexicon and the trigram
  /// postings (called when its id list turns non-empty / empty).
  void IndexName(const NameEntry* entry);
  void UnindexName(const NameEntry* entry);

  /// Postings of the rarest trigram in the literal runs of the lowered
  /// \p pattern; nullptr when no run has kGram bytes.
  const NameEntryList* RarestTrigram(
      std::string_view pattern) const;

  /// Orders names by their reversed bytes, so names that share a suffix
  /// are adjacent; a string_view operand is a suffix to seek to.
  struct ReversedLess {
    using is_transparent = void;
    static bool Less(std::string_view a, std::string_view b) {
      return std::lexicographical_compare(a.rbegin(), a.rend(), b.rbegin(),
                                          b.rend());
    }
    bool operator()(const NameEntry* a, const NameEntry* b) const {
      return Less(a->first, b->first);
    }
    bool operator()(const NameEntry* a, std::string_view b) const {
      return Less(a->first, b);
    }
    bool operator()(std::string_view a, const NameEntry* b) const {
      return Less(a, b->first);
    }
  };

  std::unordered_map<DocId, std::string> names_;          // replica
  ByName by_name_;                                        // lower(name) -> ids
  // The by_name_ entries in reversed-name order (the suffix lexicon).
  std::set<const NameEntry*, ReversedLess> by_suffix_;
  // trigram of lower(name) -> the by_name_ entries containing it, unordered.
  std::unordered_map<uint32_t, NameEntryList> trigrams_;
};

}  // namespace idm::index

#endif  // IDM_INDEX_NAME_INDEX_H_
