// PreparedQuery (DESIGN.md §16): a parse-once / plan-once query handle.
//
//   IDM_ASSIGN_OR_RETURN(PreparedQuery q, ds.Prepare("//PIM//*[\"budget\"]"));
//   auto r1 = q.Execute();                  // no parse, no plan
//   auto r2 = q.Execute({.limits = ...});   // same plan, governed run
//   std::cout << q.Explain();               // stable bytecode listing
//
// The handle owns an immutable parsed AST plus the compiled PlanProgram
// (iql/plan.h) and is therefore cheap to copy and safe to share across
// threads; Execute() routes through the owning Dataspace's full query path
// (admission, governance, result cache), so a handle behaves exactly like
// Query(text) minus the per-call parse + plan work. The plan's canonical
// cache key — insensitive to and/or/union/intersect operand order — is
// what the result cache is keyed on.

#ifndef IDM_IQL_PREPARED_QUERY_H_
#define IDM_IQL_PREPARED_QUERY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "iql/ast.h"
#include "iql/plan.h"
#include "iql/query_options.h"
#include "iql/query_processor.h"
#include "sub/footprint.h"

namespace idm::iql {

class Dataspace;

class PreparedQuery {
 public:
  /// An empty handle; valid() is false and Execute() fails. Assign a
  /// Dataspace::Prepare() result to make it useful.
  PreparedQuery() = default;

  bool valid() const { return plan_ != nullptr; }

  /// The normalized rendering of the parsed query (whitespace/escape
  /// variants of the same query normalize identically).
  const std::string& normalized() const { return plan_->normalized; }

  /// The canonical cache key: same-kind and/or chains and set-operator
  /// arms are sorted, so semantically identical reorderings share it.
  const std::string& cache_key() const { return plan_->cache_key; }

  /// 64-bit fingerprint of cache_key() (display / metrics identity).
  uint64_t fingerprint() const { return plan_->fingerprint; }

  /// Executes against the owning dataspace: admission, optional
  /// governance limits, result cache, tracing — the full Query() path
  /// with parse + plan already paid.
  Result<QueryResult> Execute(const QueryOptions& options = {}) const;

  /// Stable, golden-testable description of the compiled plan: the
  /// normalized query, canonical key, fingerprint, and the full
  /// bytecode listing (ops, registers, sub-programs, join inputs).
  std::string Explain() const;

  /// The query's dependency footprint against the dataspace's *current*
  /// replica state (which substrates and name patterns it reads) — the
  /// same structure the cache and subscription engine use for
  /// fine-grained invalidation.
  sub::Footprint Footprint() const;

  const Query& query() const { return *query_; }
  const PlanProgram& plan() const { return *plan_; }

 private:
  friend class Dataspace;

  PreparedQuery(const Dataspace* dataspace,
                std::shared_ptr<const Query> query,
                std::shared_ptr<const PlanProgram> plan)
      : dataspace_(dataspace),
        query_(std::move(query)),
        plan_(std::move(plan)) {}

  const Dataspace* dataspace_ = nullptr;
  std::shared_ptr<const Query> query_;
  std::shared_ptr<const PlanProgram> plan_;
};

}  // namespace idm::iql

#endif  // IDM_IQL_PREPARED_QUERY_H_
