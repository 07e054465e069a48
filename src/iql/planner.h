// Lowers parsed + rule-optimized iQL (the logical algebra of ast.h) into
// flat PlanPrograms (plan.h) for the VM. Serial and/or chains become
// accumulator register chains with short-circuit jumps; pool-backed
// processors lower multi-child and/or nodes and set-operator arms to
// parallel sub-programs. Rows and scores do not depend on the shape chosen
// (tests/iql/reference_eval.h is the set-semantics oracle); at threads = 1
// the governed tick schedule is a pinned property of the serial shape.

#ifndef IDM_IQL_PLANNER_H_
#define IDM_IQL_PLANNER_H_

#include <memory>

#include "iql/ast.h"
#include "iql/plan.h"

namespace idm::iql {

class Planner {
 public:
  /// \p parallel: whether the executing processor owns a thread pool
  /// (QueryProcessor::Options::threads > 1). The flag is static per
  /// processor, so it is compiled into the program shape.
  explicit Planner(bool parallel) : parallel_(parallel) {}

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

  bool parallel_;
};

}  // namespace idm::iql

#endif  // IDM_IQL_PLANNER_H_
