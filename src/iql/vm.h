// Bytecode VM (DESIGN.md §16): executes the PlanPrograms the Planner
// lowers, vector-at-a-time — every register holds one batch of sorted
// candidate view ids, shared (not copied) between ops that merely forward
// it. It is the only query evaluator; tests/iql/reference_eval.h is the
// naive set-semantics oracle its rows, columns and scores are checked
// against. Governed runs tick the ExecContext in every loop over views or
// postings (a deterministic tick schedule and §10 prefix degradation at
// threads = 1, pinned by goldens); parallel sub-programs fan out over the
// processor's pool with input-order merges, so results never depend on
// the thread count. Ungoverned runs take the fast lane: phrase predicates
// are answered from the inverted index's block-compressed postings
// (skip-pointer intersection, positions decoded only for survivors)
// instead of full posting-list decodes.

#ifndef IDM_IQL_VM_H_
#define IDM_IQL_VM_H_

#include "iql/plan.h"
#include "iql/query_processor.h"
#include "obs/trace.h"
#include "util/exec_context.h"

namespace idm::iql {

class Vm {
 public:
  /// Everything a program needs to execute; all pointers must outlive the
  /// call (they are the owning QueryProcessor's own members).
  struct Env {
    const rvm::ReplicaIndexesModule* module;
    const core::ClassRegistry* classes;
    Clock* clock;
    const QueryProcessor::Options* options;
    util::ThreadPool* pool;  ///< null when threads <= 1
  };

  /// Runs the root \p program and returns the raw result — elapsed time,
  /// governance meta and root span attributes are filled in by
  /// QueryProcessor::Evaluate.
  static Result<QueryResult> Run(const Env& env, const PlanProgram& program,
                                 util::ExecContext* ctx,
                                 obs::TraceSpan* span);

  /// Runs the pred-flavored \p program (Planner::LowerPredProgram),
  /// ungoverned and untraced, over \p universe (sorted ids); returns the
  /// ids of \p universe the predicate holds for.
  static Result<std::vector<index::DocId>> RunPred(
      const Env& env, const PlanProgram& program,
      std::vector<index::DocId> universe);
};

}  // namespace idm::iql

#endif  // IDM_IQL_VM_H_
