// iQL Query Processor (paper §5.1): parses queries, plans them with simple
// rewrite rules, lowers them to bytecode (iql/planner.h) and runs them on
// the VM (iql/vm.h) against the Replica&Indexes module —
// queries never touch the underlying data sources (that is the point of
// the replicas, paper §5.2).
//
// Planning rules (rule-based optimization, as in the paper's prototype):
//   R1  Phrase predicates are answered by the positional content index.
//   R2  Non-wildcard (or wildcard) name steps are answered by the name
//       index instead of scanning the catalog.
//   R3  A top-level conjunction starting with an attribute comparison is
//       seeded from the vertically partitioned tuple index.
//   R4  Descendant steps run forward expansion (BFS over the group
//       replica) from the current frontier, testing membership against the
//       next step's name-match set; expansion work is reported in
//       QueryResult::expanded_views (the paper's Q8 discussion).
//   R5  Joins hash the smaller input.
//   R6  When the name-match set of a descendant step is much smaller than
//       the frontier, expansion runs *backward*: a parent-edge BFS from
//       each candidate with early exit on hitting the frontier. This is
//       the paper's proposed remedy ("backward or bidirectional
//       expansion") for Q8-style blowup, implemented.
//
// Parallel execution (DESIGN.md §8): with Options::threads > 1 the
// processor owns a fixed util::ThreadPool and the VM fans independent work
// out across it — set-operator arms, or/and-children, join inputs, the
// probe side of hash joins, class-conformance filters, and per-candidate
// backward expansion. Every fan-out merges by *input order* (ordered
// merge), so rows, columns, scores, and expanded_views are identical to a
// serial run; only diagnostics (elapsed time, and in rare short-circuit
// corners the rule annotation inside `plan`) may differ.

#ifndef IDM_IQL_QUERY_PROCESSOR_H_
#define IDM_IQL_QUERY_PROCESSOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/view_class.h"
#include "index/probe_counts.h"
#include "iql/ast.h"
#include "iql/query_options.h"
#include "obs/trace.h"
#include "rvm/rvm.h"
#include "util/clock.h"
#include "util/exec_context.h"
#include "util/thread_pool.h"

namespace idm::iql {

struct PlanProgram;  // iql/plan.h

/// Result of one query. Unary queries (paths, filters, unions) produce
/// one-column rows; joins produce one column per binding.
struct QueryResult {
  std::vector<std::string> columns;            ///< binding names; {""} unary
  std::vector<std::vector<index::DocId>> rows; ///< matched view ids
  /// tf-idf relevance scores, parallel to rows, when the query was a
  /// keyword/phrase search (the §5.1 ranking extension). Rows are then
  /// ordered by descending score. Empty for structural queries.
  std::vector<double> scores;
  size_t expanded_views = 0;  ///< forward-expansion work (intermediate results)
  Micros elapsed_micros = 0;  ///< wall-clock evaluation time
  std::string plan;           ///< normalized query text (plan display)
  ResultMeta meta;            ///< governance outcome (complete by default)
  index::ProbeCounts probes;  ///< index lookups this evaluation issued

  size_t size() const { return rows.size(); }
  bool ranked() const { return !scores.empty(); }
};

class QueryProcessor {
 public:
  /// Expansion strategy for descendant ('//') steps.
  enum class Expansion {
    kAuto,      ///< R6 heuristic: backward when candidates << frontier
    kForward,   ///< always BFS down from the frontier (the paper's default)
    kBackward,  ///< always BFS up from the candidates
  };

  struct Options {
    /// Cap on nodes touched by forward expansion per step.
    size_t max_expansion = 5U << 20;
    /// R2 off (ablation A3): name steps scan all catalog entries with
    /// per-name wildcard matching instead of using the name index.
    bool use_name_index = true;
    /// Descendant-step strategy (ablation A3.3 compares these).
    Expansion expansion = Expansion::kAuto;
    /// Evaluation threads. 1 (the default) keeps evaluation strictly
    /// serial — no pool is created. N > 1 spawns a pool of N workers that
    /// leaf scans and sub-queries fan out across; results are merged in
    /// input order and match the serial run view-for-view.
    size_t threads = 1;
    /// Minimum items per chunk before an element-wise scan is split
    /// across the pool (fan-out overhead guard).
    size_t min_parallel_chunk = 256;
  };

  /// All pointers must outlive the processor. \p clock provides now() /
  /// yesterday() (the paper's Q3).
  QueryProcessor(const rvm::ReplicaIndexesModule* module,
                 const core::ClassRegistry* classes, Clock* clock)
      : QueryProcessor(module, classes, clock, Options()) {}
  QueryProcessor(const rvm::ReplicaIndexesModule* module,
                 const core::ClassRegistry* classes, Clock* clock,
                 Options options);
  ~QueryProcessor();

  /// Parses, plans and evaluates \p iql. The governed overloads thread
  /// \p ctx through every evaluation loop (bounded-stride checks, see
  /// util/exec_context.h); parallel arms run under Child() contexts so the
  /// first overrun cancels the siblings. ctx == nullptr (and the
  /// two-argument forms) run exactly the ungoverned code paths.
  Result<QueryResult> Execute(const std::string& iql) const;
  Result<QueryResult> Execute(const std::string& iql,
                              util::ExecContext* ctx) const;

  /// Evaluates an already parsed query. The three-argument form
  /// additionally records the evaluation as children of \p span (node
  /// structure, set-op/join arms, index probes, expansion work); a null
  /// span runs the untraced path bit-for-bit.
  Result<QueryResult> Evaluate(const Query& query) const;
  Result<QueryResult> Evaluate(const Query& query,
                               util::ExecContext* ctx) const;
  Result<QueryResult> Evaluate(const Query& query, util::ExecContext* ctx,
                               obs::TraceSpan* span) const;

  /// Compiles \p query into a bytecode program (iql/plan.h): normalized
  /// text, canonical cache key, fingerprint and ops. Deterministic — the
  /// same query and processor configuration always produce the same
  /// program, so callers (PreparedQuery, the subscription engine) may plan
  /// once and execute many times.
  std::unique_ptr<PlanProgram> Plan(const Query& query) const;

  /// Executes a pre-compiled \p program (from Plan()) exactly like the
  /// plain overloads, without planning again.
  Result<QueryResult> Evaluate(const PlanProgram& program,
                               util::ExecContext* ctx,
                               obs::TraceSpan* span) const;

  const Options& options() const { return options_; }

  /// Engine counters (cumulative since construction).
  struct EngineStats {
    uint64_t plans = 0;    ///< programs compiled by Plan()
    uint64_t vm_runs = 0;  ///< VM evaluations
  };
  EngineStats engine_stats() const;

  /// True when \p query is a pure keyword/phrase filter, i.e. one that
  /// gets tf-idf relevance ranking: its row *order* depends on corpus-wide
  /// statistics, not just on the matching views.
  static bool IsRankedQuery(const Query& query);

  /// True when membership of a single view in \p query's result is a
  /// function of that view's own components alone — un-ranked filters and
  /// single-descendant-step paths. These shapes support MatchesDoc and
  /// therefore O(changed views) incremental maintenance (DESIGN.md §14).
  static bool SupportsMatchesDoc(const Query& query);

  /// The per-view membership test of a SupportsMatchesDoc query: the path
  /// step's name pattern ("" for filters) and its predicate lowered to a
  /// pred program (null when there is no predicate).
  struct MatchPlan {
    std::string name_pattern;
    std::shared_ptr<const PlanProgram> predicate;
  };

  /// Compiles \p query's membership test once (a serial pred program, so
  /// a one-view batch never fans out to the pool). Unsupported shapes
  /// return InvalidArgument.
  Result<MatchPlan> PlanMatch(const Query& query) const;

  /// True iff the live view \p id is in the (unordered) result set of the
  /// query \p plan was compiled from, right now. Dead/unknown ids are
  /// simply not members.
  Result<bool> MatchesDoc(const MatchPlan& plan, index::DocId id) const;

  /// The evaluation pool (null when threads <= 1) — exposed so the facade
  /// can sample its telemetry for DataspaceStats.
  util::ThreadPool* pool() const { return pool_.get(); }

 private:
  const rvm::ReplicaIndexesModule* module_;
  const core::ClassRegistry* classes_;
  Clock* clock_;
  Options options_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< null when threads <= 1
  mutable std::atomic<uint64_t> plans_{0};
  mutable std::atomic<uint64_t> vm_runs_{0};
};

}  // namespace idm::iql

#endif  // IDM_IQL_QUERY_PROCESSOR_H_
