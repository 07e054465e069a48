#include "iql/query_processor.h"

#include <chrono>

#include "iql/parser.h"
#include "iql/plan.h"
#include "iql/planner.h"
#include "iql/vm.h"
#include "util/string_util.h"

namespace idm::iql {

namespace {

Micros WallNow() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

QueryProcessor::QueryProcessor(const rvm::ReplicaIndexesModule* module,
                               const core::ClassRegistry* classes,
                               Clock* clock, Options options)
    : module_(module), classes_(classes), clock_(clock), options_(options) {
  if (options_.threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(options_.threads);
  }
}

QueryProcessor::~QueryProcessor() = default;

bool QueryProcessor::IsRankedQuery(const Query& query) {
  return query.kind == Query::Kind::kFilter && query.filter != nullptr &&
         Planner::IsRankable(*query.filter);
}

bool QueryProcessor::SupportsMatchesDoc(const Query& query) {
  switch (query.kind) {
    case Query::Kind::kFilter:
      // Un-ranked filters test only the view's own name/tuple/content/
      // class components. Ranked (pure keyword) results are ordered by
      // corpus-wide idf, so a single view cannot be judged in isolation.
      return query.filter != nullptr && !Planner::IsRankable(*query.filter);
    case Query::Kind::kPath:
      // `//name[pred]` — one descendant step has no ancestry constraint:
      // membership is name-match plus the step predicate on the view.
      return query.steps.size() == 1 && query.steps[0].descendant;
    default:
      return false;
  }
}

Result<QueryProcessor::MatchPlan> QueryProcessor::PlanMatch(
    const Query& query) const {
  if (!SupportsMatchesDoc(query)) {
    return Status::InvalidArgument(
        "MatchesDoc: query shape is not per-view maintainable");
  }
  MatchPlan plan;
  const PredNode* predicate = query.filter.get();
  if (query.kind == Query::Kind::kPath) {
    plan.name_pattern = query.steps[0].name_pattern;
    predicate = query.steps[0].predicate.get();
  }
  if (predicate != nullptr) {
    plan.predicate = Planner(/*parallel=*/false).LowerPredProgram(*predicate);
  }
  return plan;
}

Result<bool> QueryProcessor::MatchesDoc(const MatchPlan& plan,
                                        index::DocId id) const {
  const index::CatalogEntry* entry = module_->catalog().Entry(id);
  if (entry == nullptr || entry->deleted) return false;
  const std::string& pattern = plan.name_pattern;
  if (!pattern.empty() && pattern != "*" &&
      !WildcardMatch(pattern, module_->names().NameOf(id))) {
    return false;
  }
  if (plan.predicate == nullptr) return true;
  // Predicates are intersective — pred(X) == X ∩ pred(U) for any universe
  // U containing X — so the singleton universe answers membership exactly
  // (liveness was just checked; predicate leaves only ever produce live
  // ids, and negation subtracts from the universe we pass).
  Vm::Env env{module_, classes_, clock_, &options_, /*pool=*/nullptr};
  IDM_ASSIGN_OR_RETURN(std::vector<index::DocId> hit,
                       Vm::RunPred(env, *plan.predicate, {id}));
  return !hit.empty();
}

Result<QueryResult> QueryProcessor::Execute(const std::string& iql) const {
  return Execute(iql, nullptr);
}

Result<QueryResult> QueryProcessor::Execute(const std::string& iql,
                                            util::ExecContext* ctx) const {
  IDM_ASSIGN_OR_RETURN(Query query, ParseQuery(iql));
  return Evaluate(query, ctx);
}

Result<QueryResult> QueryProcessor::Evaluate(const Query& query) const {
  return Evaluate(query, nullptr);
}

Result<QueryResult> QueryProcessor::Evaluate(const Query& query,
                                             util::ExecContext* ctx) const {
  return Evaluate(query, ctx, nullptr);
}

Result<QueryResult> QueryProcessor::Evaluate(const Query& query,
                                             util::ExecContext* ctx,
                                             obs::TraceSpan* span) const {
  return Evaluate(*Plan(query), ctx, span);
}

std::unique_ptr<PlanProgram> QueryProcessor::Plan(const Query& query) const {
  plans_.fetch_add(1, std::memory_order_relaxed);
  return Planner(pool_ != nullptr && pool_->size() > 0).Lower(query);
}

QueryProcessor::EngineStats QueryProcessor::engine_stats() const {
  EngineStats stats;
  stats.plans = plans_.load(std::memory_order_relaxed);
  stats.vm_runs = vm_runs_.load(std::memory_order_relaxed);
  return stats;
}

Result<QueryResult> QueryProcessor::Evaluate(const PlanProgram& program,
                                             util::ExecContext* ctx,
                                             obs::TraceSpan* span) const {
  vm_runs_.fetch_add(1, std::memory_order_relaxed);
  Micros start = WallNow();
  Vm::Env env{module_, classes_, clock_, &options_, pool_.get()};
  Result<QueryResult> run = Vm::Run(env, program, ctx, span);
  if (!run.ok()) {
    // A genuine evaluation error while the family was doomed is still an
    // error; governance never hides real failures.
    return run.status();
  }
  QueryResult result = std::move(*run);
  result.elapsed_micros = WallNow() - start;
  if (ctx != nullptr) {
    result.meta.steps_used = ctx->steps_used();
    result.meta.bytes_peak = ctx->bytes_peak();
    if (ctx->doomed()) {
      result.meta.complete = false;
      result.meta.degraded_reason = ctx->status().ToString();
    }
  }
  if (span != nullptr) {
    span->SetAttr("rows", static_cast<int64_t>(result.rows.size()));
    span->SetAttr("expanded", static_cast<int64_t>(result.expanded_views));
    span->SetAttr("probes", static_cast<int64_t>(result.probes.total()));
    if (!result.meta.complete) span->SetAttr("degraded", "true");
  }
  return result;
}

}  // namespace idm::iql
