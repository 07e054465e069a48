// Group Replica (paper §7.2, structure 4): an in-memory adjacency store of
// the resource view graph's γ edges. Queries that navigate relatedness
// (path expressions, forward expansion) run against this replica instead of
// hitting the underlying data sources.

#ifndef IDM_INDEX_GROUP_STORE_H_
#define IDM_INDEX_GROUP_STORE_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "index/inverted_index.h"  // for DocId
#include "util/exec_context.h"
#include "util/result.h"

namespace idm::index {

class GroupStore {
 public:
  /// Replaces the child list of \p parent (S ∪ enumerable Q, in order).
  void SetChildren(DocId parent, std::vector<DocId> children);

  /// Removes \p id as a parent (its child edges). Edges *into* id from
  /// other parents are kept; use RemoveAllEdgesOf to drop those too.
  void RemoveParent(DocId id);

  /// Removes every edge incident to \p id.
  void RemoveAllEdgesOf(DocId id);

  /// Direct children (γ-related views) of \p id, in stored order.
  const std::vector<DocId>& Children(DocId id) const;

  /// Direct parents of \p id (sorted ascending).
  const std::vector<DocId>& Parents(DocId id) const;

  /// All ids reachable from \p roots by following child edges, excluding
  /// the roots themselves unless reached via a cycle. Bounded by
  /// \p max_nodes. `expanded` (optional) reports how many nodes were
  /// touched — the paper's Q8 discussion is about exactly this cost.
  /// \p ctx (optional) governs the traversal: each expanded node counts
  /// one step, and a doomed context stops the BFS early — the caller must
  /// then treat the returned set as incomplete (ctx->status() reports why).
  std::unordered_set<DocId> Descendants(const std::vector<DocId>& roots,
                                        size_t max_nodes = SIZE_MAX,
                                        size_t* expanded = nullptr,
                                        util::ExecContext* ctx = nullptr) const;

  /// All ids that reach \p targets (ancestors), analogous bound.
  std::unordered_set<DocId> Ancestors(const std::vector<DocId>& targets,
                                      size_t max_nodes = SIZE_MAX,
                                      size_t* expanded = nullptr,
                                      util::ExecContext* ctx = nullptr) const;

  /// True iff some member of \p sources (sorted ascending) reaches
  /// \p start by following child edges — i.e. \p start is a descendant of
  /// one of them. Runs a *backward* BFS over parent edges from \p start
  /// with early exit; this is the primitive behind backward expansion (the
  /// paper's proposed remedy for Q8-style forward-expansion blowup).
  /// Upward walks are short, so the visited nodes are one flat vector that
  /// doubles as the queue. `expanded` accumulates the nodes touched. A
  /// doomed \p ctx stops the probe (returning false); callers under
  /// governance check ctx->status() before trusting it.
  bool ReachedFromAny(DocId start, const std::vector<DocId>& sources,
                      size_t max_nodes = SIZE_MAX,
                      size_t* expanded = nullptr,
                      util::ExecContext* ctx = nullptr) const;

  size_t parent_count() const { return children_.size(); }
  size_t edge_count() const { return edges_; }

  /// Approximate footprint in bytes for Table 3 accounting.
  size_t MemoryUsage() const;

  /// Deterministic binary image (parents sorted by id, child lists in
  /// stored order) for checkpoints; Deserialize rebuilds the parent lists.
  std::string Serialize() const;
  static Result<GroupStore> Deserialize(const std::string& data);

 private:
  std::unordered_map<DocId, std::vector<DocId>> children_;
  std::unordered_map<DocId, std::vector<DocId>> parents_;
  size_t edges_ = 0;
};

}  // namespace idm::index

#endif  // IDM_INDEX_GROUP_STORE_H_
