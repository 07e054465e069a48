// A deliberately naive reference evaluator for iQL (test-only).
//
// It answers a parsed query with plain set semantics straight from the
// replica: names by NameOf + WildcardMatch over the live catalog entries,
// classes by the entry's class + ClassRegistry::IsSubclassOf, comparisons
// by walking each view's tuple, paths by per-node BFS over the group
// replica, joins by a nested loop. The only index it trusts is the classic
// blob PhraseQuery (and TermQueryWithTf for tf-idf scores). No name index,
// block postings, live snapshot, thread pool or cache is involved, so it
// shares no fast path with the VM it checks.
//
// Only columns, rows (order included) and scores are produced; the
// diagnostics (plan, probes, expanded_views) and governance are the
// engine's business, not part of the query's meaning.

#ifndef IDM_TESTS_IQL_REFERENCE_EVAL_H_
#define IDM_TESTS_IQL_REFERENCE_EVAL_H_

#include <set>
#include <string>

#include "core/view_class.h"
#include "iql/ast.h"
#include "iql/query_processor.h"
#include "rvm/rvm.h"
#include "util/clock.h"

namespace idm::iql {

class ReferenceEvaluator {
 public:
  /// All pointers must outlive the evaluator. \p clock answers now() and
  /// yesterday() exactly like the processor's clock.
  ReferenceEvaluator(const rvm::ReplicaIndexesModule* module,
                     const core::ClassRegistry* classes, Clock* clock)
      : module_(*module), classes_(*classes), clock_(clock) {}

  /// Columns, rows and scores of \p query. Shapes the engine rejects (set
  /// operators over joins, nested join inputs, content joins) are errors
  /// here too.
  Result<QueryResult> Evaluate(const Query& query) const;

  /// The ids \p query returns, as a set (the membership MatchesDoc
  /// answers). Errors as Evaluate.
  Result<std::set<index::DocId>> Members(const Query& query) const;

 private:
  using IdSet = std::set<index::DocId>;

  IdSet Live() const;
  IdSet Names(const std::string& pattern) const;
  IdSet Pred(const PredNode& pred, const IdSet& universe) const;
  IdSet Compare(const PredNode& pred, const IdSet& universe) const;
  IdSet Path(const std::vector<PathStep>& steps) const;
  bool HasAncestorIn(index::DocId id, const IdSet& ancestors) const;
  Result<QueryResult> Join(const JoinSpec& join) const;
  void Rank(const PredNode& filter, QueryResult* result) const;

  const rvm::ReplicaIndexesModule& module_;
  const core::ClassRegistry& classes_;
  Clock* clock_;
};

}  // namespace idm::iql

#endif  // IDM_TESTS_IQL_REFERENCE_EVAL_H_
