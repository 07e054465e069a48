// Lowers parsed + rule-optimized iQL (the logical algebra of ast.h) into
// flat PlanPrograms (plan.h) for the VM. And-chains become accumulator
// register chains with short-circuit jumps, or-chains union their
// children's batches, and set-operator arms and join inputs become
// sub-programs the VM runs in order. There is one program shape per query:
// its rows and scores are checked against tests/iql/reference_eval.h (the
// set-semantics oracle) and its governed tick schedule is pinned.

#ifndef IDM_IQL_PLANNER_H_
#define IDM_IQL_PLANNER_H_

#include <memory>

#include "iql/ast.h"
#include "iql/plan.h"

namespace idm::iql {

class Planner {
 public:
  /// Compiles \p query into a root program (normalized text, canonical
  /// cache key and fingerprint filled in). Never fails: shapes the VM
  /// rejects (nested join inputs, set ops over joins) lower fine and
  /// produce a runtime error when executed.
  std::unique_ptr<PlanProgram> Lower(const Query& query) const;

  /// Compiles \p pred into a pred-flavored program: the executor seeds r0
  /// with the universe and reads the result from out_reg.
  std::unique_ptr<PlanProgram> LowerPredProgram(const PredNode& pred) const;

  /// True when \p filter is a pure keyword query — and/or/not over phrases
  /// only — i.e. one that gets tf-idf relevance ranking (§5.1).
  static bool IsRankable(const PredNode& filter);

 private:
  std::unique_ptr<PlanProgram> LowerQueryProgram(const Query& query) const;
  uint16_t LowerPred(const PredNode& pred, uint16_t universe,
                     PlanProgram* program) const;
};

}  // namespace idm::iql

#endif  // IDM_IQL_PLANNER_H_
