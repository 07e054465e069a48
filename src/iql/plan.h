// Compiled query plans (DESIGN.md §16): the physical form the Planner
// lowers an optimized logical query into, and the program the VM executes.
//
// A PlanProgram is a flat array of fixed-width PlanOps over virtual
// registers, each register holding one batch of sorted candidate view ids.
// Strings (phrases, name patterns, attributes) and comparison literals are
// interned into per-program pools; sub-queries (set-operator arms, join
// inputs) become nested sub-programs referenced by index. Lowering is
// deterministic, so a program doubles as the query's *canonical* identity:
// CanonicalQueryKey() flattens and sorts commutative operands (and/or
// chains, union/intersect arms, except subtrahends), and its FNV-1a hash
// is the plan fingerprint the QueryCache and Explain() report — two
// spellings of the same conjunction share one cache entry (§10).
//
// The bytecode is an execution recipe, not a serialization format: ops
// hold indexes into the owning program only and programs never outlive
// the QueryProcessor that planned them.

#ifndef IDM_IQL_PLAN_H_
#define IDM_IQL_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/value.h"
#include "iql/ast.h"

namespace idm::iql {

/// One bytecode operator. Register operands are indexes into the executing
/// program's register file; `str`, `aux` index the program's interned
/// pools (their meaning is per-opcode, see the enum comments).
enum class OpCode : uint8_t {
  kLoadLive,      ///< r[dst] = all live view ids (shared, not copied)
  kRootChildren,  ///< r[dst] = direct children of the parentless views
  kNameMatch,     ///< r[dst] = NameMatches(strings[str])  (R2 or ablation scan)
  kPhrase,        ///< r[dst] = content phrase strings[str] ∩ r[a]  (R1)
  kTupleScan,     ///< r[dst] = tuple scan ∩ r[a]  (R3); str = attribute,
                  ///< aux = literal index, flags = CompareOp | LiteralKind<<4
  kClassFilter,   ///< r[dst] = {id in r[a] : class conforms to strings[str]}
  kIntersect,     ///< r[dst] = r[a] ∩ r[b]
  kUnion,         ///< r[dst] = r[a] ∪ r[b]
  kDifference,    ///< r[dst] = r[a] \ r[b]
  kMove,          ///< r[dst] = r[a]
  kJumpIfEmpty,   ///< if r[a] is empty, continue at ops[aux]
  kStepChild,     ///< r[dst] = (children of frontier r[a]) ∩ name set r[b]
  kExpand,        ///< r[dst] = descendant step: frontier r[a], names r[b]
                  ///< (R4 forward / R6 backward chosen at run time)
  kSetOp,         ///< r[dst] = fold of subs[aux, aux+b);
                  ///< flags: 0 = union, 1 = intersect, 2 = except
  kJoin,          ///< hash join per the program's JoinInfo (R5); writes the
                  ///< two-column result directly
  kMaterialize,   ///< result rows = r[a]; flags bit 0: governed root
                  ///< materialization (§10 prefix capture)
  kRankOrClear,   ///< tf-idf rank the result via the program's rank phrases,
                  ///< or clear it when the context is doomed (§10)
};

struct PlanOp {
  OpCode code;
  uint8_t flags = 0;
  uint16_t dst = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  uint32_t str = 0;
  uint32_t aux = 0;
};

struct PlanProgram;

/// Lowered join(left as A, right as B, A.x = B.y).
struct JoinInfo {
  std::unique_ptr<PlanProgram> left;
  std::unique_ptr<PlanProgram> right;
  std::string left_binding;
  std::string right_binding;
  JoinRef left_ref;
  JoinRef right_ref;
};

/// One compiled (sub-)program. Query-flavored programs produce a full
/// QueryResult (they end in kMaterialize / kRankOrClear / kJoin);
/// pred-flavored programs are per-view membership tests (MatchesDoc): the
/// executor seeds r[0] with the universe and reads the id batch from
/// out_reg.
struct PlanProgram {
  enum class Flavor { kQuery, kPred };

  Flavor flavor = Flavor::kQuery;
  Query::Kind kind = Query::Kind::kFilter;
  std::vector<PlanOp> ops;
  uint16_t num_regs = 0;
  uint16_t out_reg = 0;

  std::vector<std::string> strings;    ///< interned patterns/phrases/attrs
  std::vector<core::Value> literals;   ///< kTupleScan comparison operands

  /// Ranking metadata (§5.1): the filter's phrases in predicate-tree order
  /// and whether the query is a pure keyword query. Set on query-flavored
  /// filter programs only.
  std::vector<std::string> rank_phrases;
  bool rankable = false;

  std::vector<std::unique_ptr<PlanProgram>> subs;
  std::unique_ptr<JoinInfo> join;  ///< kind == kJoin only

  // Root-program identity (unset on sub-programs).
  std::string normalized;  ///< ToString of the source query
  std::string cache_key;   ///< canonical plan key (CanonicalQueryKey)
  uint64_t fingerprint = 0;  ///< FNV-1a 64 of cache_key
};

/// Canonical identity of \p query under plan equivalence: commutative
/// operands (and/or conjuncts, union/intersect arms, except subtrahends)
/// are flattened and sorted, everything else renders as ToString. Two
/// queries with equal keys produce identical complete results (rows,
/// columns and scores; diagnostics such as probe counts may differ).
std::string CanonicalQueryKey(const Query& query);

/// FNV-1a 64-bit hash — the displayed plan fingerprint.
uint64_t Fingerprint64(const std::string& key);

/// Stable, golden-testable rendering of a compiled program (Explain()).
/// Contains no pointers, sizes or timings — only the lowered structure.
std::string ExplainProgram(const PlanProgram& program);

}  // namespace idm::iql

#endif  // IDM_IQL_PLAN_H_
