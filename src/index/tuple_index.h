// Tuple Index & Replica (paper §7.2, structure 2): an in-memory replica of
// all tuple components plus vertically partitioned, per-attribute sorted
// column indexes (the paper cites the Decomposition Storage Model [11]).
// Supports point and range predicates over any attribute name.

#ifndef IDM_INDEX_TUPLE_INDEX_H_
#define IDM_INDEX_TUPLE_INDEX_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/tuple.h"
#include "index/inverted_index.h"  // for DocId
#include "util/exec_context.h"
#include "util/result.h"

namespace idm::index {

/// Comparison operators of iQL tuple predicates.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

class TupleIndex {
 public:
  /// Stores the replica and indexes every attribute of \p tuple under the
  /// attribute's *normalized* name (lower-cased, non-alphanumerics
  /// stripped: "last modified time" and "lastmodified" both normalize
  /// toward "lastmodifiedtime", and query attributes match by normalized
  /// prefix). Re-adding an id replaces its tuple.
  void Add(DocId id, const core::TupleComponent& tuple);

  void Remove(DocId id);

  /// The replica: tuple of \p id (empty component when unknown).
  const core::TupleComponent& TupleOf(DocId id) const;

  /// Ids whose attribute (matched by normalized name or normalized prefix,
  /// e.g. query "lastmodified" → column "lastmodifiedtime") satisfies
  /// `value <op> literal`. Sorted ascending. Views without the attribute
  /// never match.
  ///
  /// Thread-safety: concurrent Scan calls are safe (the lazy column sort
  /// is guarded); Add/Remove must not run concurrently with Scan — sync
  /// and query never overlap, as everywhere else in the index layer.
  ///
  /// Under a governed context (\p ctx non-null) the copy-out loop ticks at
  /// bounded stride and stops early once the context is doomed; the result
  /// is then a subset (incomplete — check ctx->status()).
  std::vector<DocId> Scan(const std::string& attribute, CompareOp op,
                          const core::Value& literal,
                          util::ExecContext* ctx = nullptr) const;

  /// Normalizes an attribute name as described at Add().
  static std::string NormalizeAttribute(const std::string& name);

  size_t size() const { return replica_.size(); }

  /// Approximate footprint in bytes for Table 3 accounting.
  size_t MemoryUsage() const;

  /// Deterministic binary image (replica sorted by id) for checkpoints;
  /// DeserializeInto re-Adds every tuple into \p out (cleared first),
  /// rebuilding the column indexes. Out-parameter form because the mutex
  /// and atomic members make TupleIndex non-movable.
  std::string Serialize() const;
  static Status DeserializeInto(const std::string& data, TupleIndex* out);

  /// Drops all tuples and columns.
  void Clear();

 private:
  struct Column {
    // (value, id), kept sorted; rebuilt lazily after bulk inserts. `dirty`
    // is atomic and the rebuild mutex-guarded so that concurrent queries
    // may Scan the same column (release on the sorter, acquire on readers
    // orders the sorted entries before dirty=false).
    std::vector<std::pair<core::Value, DocId>> entries;
    std::atomic<bool> dirty{false};
  };
  const Column* FindColumn(const std::string& attribute) const;
  void SortColumn(Column* column) const;

  std::unordered_map<DocId, core::TupleComponent> replica_;
  mutable std::map<std::string, Column> columns_;
  mutable std::mutex sort_mu_;  ///< serializes lazy column rebuilds
};

}  // namespace idm::index

#endif  // IDM_INDEX_TUPLE_INDEX_H_
