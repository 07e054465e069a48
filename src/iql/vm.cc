#include "iql/vm.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "index/analyzer.h"
#include "util/string_util.h"

namespace idm::iql {

using index::DocId;

namespace {

/// One register: a shared, immutable batch of sorted view ids. Ops that
/// forward a batch (kMove, kLoadLive) share the pointer; ops that compute
/// allocate a fresh batch.
using Batch = std::shared_ptr<const std::vector<DocId>>;

Batch MakeBatch(std::vector<DocId> ids) {
  return std::make_shared<const std::vector<DocId>>(std::move(ids));
}

const Batch& EmptyBatch() {
  static const Batch empty = std::make_shared<const std::vector<DocId>>();
  return empty;
}

/// Size ratio from which Intersect searches the larger side instead of
/// merging: k binary searches beat a k + n merge once n is ~32x k.
constexpr size_t kSkewRatio = 32;

/// Sorted intersection costing min(k + n, k log n): a plain merge for
/// similar sizes, else a walk over the smaller side with lower_bound into
/// the rest of the larger one.
std::vector<DocId> Intersect(const std::vector<DocId>& a,
                             const std::vector<DocId>& b) {
  const std::vector<DocId>& small = a.size() <= b.size() ? a : b;
  const std::vector<DocId>& large = a.size() <= b.size() ? b : a;
  std::vector<DocId> out;
  if (small.size() * kSkewRatio < large.size()) {
    auto pos = large.begin();
    for (DocId id : small) {
      pos = std::lower_bound(pos, large.end(), id);
      if (pos == large.end()) break;
      if (*pos == id) out.push_back(id);
    }
    return out;
  }
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<DocId> UnionSets(const std::vector<DocId>& a,
                             const std::vector<DocId>& b) {
  std::vector<DocId> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

std::vector<DocId> Difference(const std::vector<DocId>& a,
                              const std::vector<DocId>& b) {
  std::vector<DocId> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

/// Mutable per-run state: rule firings, probe counts and expansion work
/// accumulate here across the root program and its sub-programs.
struct VmState {
  const rvm::ReplicaIndexesModule& module;
  const core::ClassRegistry& classes;
  Clock* clock;
  const QueryProcessor::Options& options;
  util::ExecContext* ctx;
  obs::TraceSpan* span;
  size_t expanded = 0;
  index::ProbeCounts probes;
  std::set<std::string> rules;
  Batch live;  ///< all live ids, loaded on first use (once per run)

  VmState(const Vm::Env& env, util::ExecContext* c, obs::TraceSpan* s)
      : module(*env.module),
        classes(*env.classes),
        clock(env.clock),
        options(*env.options),
        ctx(c),
        span(s) {}

  const Batch& AllLiveBatch() {
    if (live == nullptr) live = module.catalog().LiveSnapshot();
    return live;
  }
  const std::vector<DocId>& AllLive() { return *AllLiveBatch(); }

  /// accept[k]: the catalog's interned class k equals or specializes
  /// \p wanted — one registry walk per distinct class, not per view.
  /// Unregistered classes match only by exact string equality
  /// (schema-later tolerance).
  std::vector<char> ClassAccept(const std::string& wanted) const {
    const std::deque<std::string>& names = module.catalog().class_names();
    std::vector<char> accept(names.size());
    for (size_t k = 0; k < names.size(); ++k) {
      accept[k] = names[k] == wanted || classes.IsSubclassOf(names[k], wanted);
    }
    return accept;
  }
};

/// Redirects the state's span into a named child for the enclosing scope;
/// nested probes/steps attach underneath. A no-op when untraced.
struct SpanScope {
  SpanScope(VmState* st, const char* name) : st_(st), saved_(st->span) {
    span_ = saved_ == nullptr ? nullptr : saved_->AddChild(name);
    if (span_ != nullptr) st_->span = span_;
  }
  ~SpanScope() {
    if (span_ != nullptr) span_->End();
    st_->span = saved_;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  obs::TraceSpan* get() const { return span_; }
  explicit operator bool() const { return span_ != nullptr; }

 private:
  VmState* st_;
  obs::TraceSpan* saved_;
  obs::TraceSpan* span_ = nullptr;
};

Result<QueryResult> RunQueryProgram(VmState& st, const PlanProgram& program);

Result<Batch> RunPredProgram(VmState& st, const PlanProgram& program,
                             const Batch& universe);

Batch NameMatch(VmState& st, const std::string& pattern) {
  if (pattern.empty() || pattern == "*") return st.AllLiveBatch();
  if (st.options.use_name_index) {
    st.rules.insert("R2:name-index");
    ++st.probes.name_lookups;
    obs::ScopedSpan probe_span(st.span, "index.name.lookup");
    std::vector<DocId> ids = st.module.names().LookupPattern(pattern);
    if (probe_span) {
      probe_span.get()->SetAttr("pattern", pattern);
      probe_span.get()->SetAttr("matches", static_cast<int64_t>(ids.size()));
    }
    return MakeBatch(std::move(ids));
  }
  std::vector<DocId> out;
  for (DocId id : st.AllLive()) {
    if (st.ctx != nullptr && !st.ctx->TickAlive()) break;
    if (WildcardMatch(pattern, st.module.names().NameOf(id))) {
      out.push_back(id);
    }
  }
  return MakeBatch(std::move(out));
}

core::Value ResolveLiteral(const VmState& st, const PlanProgram& program,
                           const PlanOp& op) {
  switch (static_cast<PredNode::LiteralKind>(op.flags >> 4)) {
    case PredNode::LiteralKind::kValue:
      return program.literals[op.aux];
    case PredNode::LiteralKind::kYesterday:
      return core::Value::Date(st.clock->NowMicros() - 86400LL * 1000000);
    case PredNode::LiteralKind::kNow:
      return core::Value::Date(st.clock->NowMicros());
  }
  return program.literals[op.aux];
}

/// Descendant step: R4 forward expansion from the frontier, or R6 backward
/// parent-BFS per candidate when candidates are few (the Q8 shape).
Batch ExecExpand(VmState& st, const Batch& frontier_b, const Batch& names_b) {
  const std::vector<DocId>& frontier = *frontier_b;
  const std::vector<DocId>& name_set = *names_b;
  bool backward;
  switch (st.options.expansion) {
    case QueryProcessor::Expansion::kForward: backward = false; break;
    case QueryProcessor::Expansion::kBackward: backward = true; break;
    case QueryProcessor::Expansion::kAuto:
    default:
      backward = name_set.size() * 16 < frontier.size();
      break;
  }
  std::vector<DocId> matched;
  if (backward) {
    st.rules.insert("R6:backward-expansion");
    st.probes.graph_walks += name_set.size();
    SpanScope expand_scope(&st, "expand.backward");
    if (expand_scope) {
      expand_scope.get()->SetAttr("candidates",
                                  static_cast<int64_t>(name_set.size()));
    }
    for (DocId candidate : name_set) {
      if (st.ctx != nullptr && st.ctx->doomed()) break;
      if (st.module.groups().ReachedFromAny(candidate, frontier,
                                            st.options.max_expansion,
                                            &st.expanded, st.ctx)) {
        matched.push_back(candidate);
      }
    }
  } else {
    st.rules.insert("R4:forward-expansion");
    ++st.probes.graph_walks;
    SpanScope expand_scope(&st, "expand.forward");
    size_t expanded = 0;
    std::unordered_set<DocId> descendants = st.module.groups().Descendants(
        frontier, st.options.max_expansion, &expanded, st.ctx);
    st.expanded += expanded;
    if (expand_scope) {
      expand_scope.get()->SetAttr("expanded", static_cast<int64_t>(expanded));
    }
    util::ScopedCharge descendants_charge(st.ctx);
    if (!descendants_charge.Add(descendants.size() * sizeof(DocId)).ok()) {
      descendants.clear();
    }
    // The step counts one tick per candidate name, charged in bulk; a
    // doom here empties the result at the root materialize (§10).
    if (st.ctx != nullptr && !name_set.empty()) {
      (void)st.ctx->Tick(name_set.size());
    }
    // Iterate the smaller side: probe the descendants per name, or sort
    // the fewer descendants and search the name set for them.
    if (name_set.size() <= descendants.size()) {
      for (DocId id : name_set) {
        if (descendants.count(id) > 0) matched.push_back(id);
      }
    } else {
      std::vector<DocId> reached(descendants.begin(), descendants.end());
      std::sort(reached.begin(), reached.end());
      matched = Intersect(reached, name_set);
    }
  }
  return MakeBatch(std::move(matched));
}

/// Child step ('/'): children of the frontier intersected with the name
/// match set.
Batch ExecStepChild(VmState& st, const Batch& frontier_b,
                    const Batch& names_b) {
  const std::vector<DocId>& frontier = *frontier_b;
  std::vector<DocId> children;
  for (DocId id : frontier) {
    if (st.ctx != nullptr && !st.ctx->TickAlive()) break;
    const auto& ch = st.module.groups().Children(id);
    children.insert(children.end(), ch.begin(), ch.end());
  }
  st.expanded += frontier.size();
  std::sort(children.begin(), children.end());
  children.erase(std::unique(children.begin(), children.end()),
                 children.end());
  return MakeBatch(Intersect(children, *names_b));
}

/// union/intersect/except fold over the sub-programs, run in arm order.
Result<Batch> ExecSetOp(VmState& st, const PlanProgram& program,
                        const PlanOp& op) {
  std::vector<DocId> acc;
  for (size_t i = 0; i < op.b; ++i) {
    Result<QueryResult> arm = [&] {
      SpanScope arm_scope(&st, "arm");
      return RunQueryProgram(st, *program.subs[op.aux + i]);
    }();
    if (!arm.ok()) return arm.status();
    if (arm->columns.size() != 1) {
      return Status::Unimplemented("set operators over join results");
    }
    std::vector<DocId> ids;
    ids.reserve(arm->rows.size());
    for (const auto& row : arm->rows) ids.push_back(row[0]);
    std::sort(ids.begin(), ids.end());
    if (i == 0) {
      acc = std::move(ids);
    } else if (op.flags == 0) {
      acc = UnionSets(acc, ids);
    } else if (op.flags == 1) {
      acc = Intersect(acc, ids);
    } else {
      acc = Difference(acc, ids);
    }
  }
  return MakeBatch(std::move(acc));
}

Result<std::optional<std::string>> JoinKey(VmState& st, DocId id,
                                           const JoinRef& ref) {
  switch (ref.field) {
    case JoinRef::Field::kName: {
      const std::string& name = st.module.names().NameOf(id);
      if (name.empty()) return std::optional<std::string>();
      return std::optional<std::string>(ToLower(name));
    }
    case JoinRef::Field::kClass: {
      const index::CatalogEntry* entry = st.module.catalog().Entry(id);
      if (entry == nullptr || entry->class_name.empty()) {
        return std::optional<std::string>();
      }
      return std::optional<std::string>(entry->class_name);
    }
    case JoinRef::Field::kTupleAttr: {
      auto value = st.module.tuples().TupleOf(id).Get(ref.attribute);
      if (!value.has_value() || value->is_null()) {
        return std::optional<std::string>();
      }
      return std::optional<std::string>(ToLower(value->ToString()));
    }
    case JoinRef::Field::kContent:
      return Status::Unimplemented("joins on content components");
  }
  return std::optional<std::string>();
}

/// Hash join (R5): hashes the smaller input, probes with the other.
Status ExecJoin(VmState& st, const PlanProgram& program, QueryResult* result) {
  const JoinInfo& join = *program.join;
  QueryResult left, right;
  {
    SpanScope left_scope(&st, "join.left");
    IDM_ASSIGN_OR_RETURN(left, RunQueryProgram(st, *join.left));
  }
  {
    SpanScope right_scope(&st, "join.right");
    IDM_ASSIGN_OR_RETURN(right, RunQueryProgram(st, *join.right));
  }
  if (left.columns.size() != 1 || right.columns.size() != 1) {
    return Status::Unimplemented("nested join inputs must be unary");
  }
  result->columns = {join.left_binding, join.right_binding};

  st.rules.insert("R5:hash-join");
  bool left_is_build = left.rows.size() <= right.rows.size();
  const QueryResult& build = left_is_build ? left : right;
  const QueryResult& probe = left_is_build ? right : left;
  const JoinRef& build_ref = left_is_build ? join.left_ref : join.right_ref;
  const JoinRef& probe_ref = left_is_build ? join.right_ref : join.left_ref;

  std::unordered_map<std::string, std::vector<DocId>> table;
  util::ScopedCharge table_charge(st.ctx);
  for (const auto& row : build.rows) {
    if (st.ctx != nullptr && !st.ctx->TickAlive()) break;
    IDM_ASSIGN_OR_RETURN(std::optional<std::string> key,
                         JoinKey(st, row[0], build_ref));
    if (!key.has_value()) continue;
    if (!table_charge.Add(key->size() + sizeof(DocId)).ok()) break;
    table[*key].push_back(row[0]);
  }

  SpanScope probe_scope(&st, "join.probe");
  if (probe_scope) {
    probe_scope.get()->SetAttr("build_rows",
                               static_cast<int64_t>(build.rows.size()));
    probe_scope.get()->SetAttr("probe_rows",
                               static_cast<int64_t>(probe.rows.size()));
  }
  for (const auto& row : probe.rows) {
    if (st.ctx != nullptr && !st.ctx->TickAlive()) break;
    IDM_ASSIGN_OR_RETURN(std::optional<std::string> key,
                         JoinKey(st, row[0], probe_ref));
    if (!key.has_value()) continue;
    auto it = table.find(*key);
    if (it == table.end()) continue;
    for (DocId match : it->second) {
      ++st.expanded;
      if (left_is_build) {
        result->rows.push_back({match, row[0]});
      } else {
        result->rows.push_back({row[0], match});
      }
    }
  }
  std::sort(result->rows.begin(), result->rows.end());
  // Join output is sorted after the probe: truncation is not a prefix, so
  // a doomed context degrades to the empty prefix (§10).
  if (st.ctx != nullptr && st.ctx->doomed()) {
    result->rows.clear();
    result->scores.clear();
  }
  return Status::OK();
}

/// tf-idf ranking (§5.1) over the program's precollected phrases: pure
/// keyword queries get descending-score row order (ties by id). The rows
/// come from the root materialize, ascending by id, so each term's
/// ascending postings merge-join into a flat score per row.
void RankRows(VmState& st, const PlanProgram& program, QueryResult* result) {
  if (!program.rankable || program.rank_phrases.empty() ||
      result->rows.empty()) {
    return;
  }
  std::vector<std::vector<DocId>>& rows = result->rows;
  std::vector<DocId> ids;
  ids.reserve(rows.size());
  for (const auto& row : rows) ids.push_back(row[0]);
  std::vector<double> score(ids.size(), 0.0);

  const double n_docs =
      static_cast<double>(std::max<size_t>(st.module.content().doc_count(), 1));
  for (const std::string& phrase : program.rank_phrases) {
    for (const std::string& term : index::PhraseTerms(phrase)) {
      size_t df = st.module.content().DocumentFrequency(term);
      if (df == 0) continue;
      double idf = std::log(1.0 + n_docs / static_cast<double>(df));
      // Same pairs as TermQueryWithTf, without re-skipping position
      // varints (ranking never ticks, so no governed counterpart needed).
      size_t r = 0;
      for (const auto& [doc, tf] : st.module.content().TermTfDocs(term)) {
        while (r < ids.size() && ids[r] < doc) ++r;
        if (r == ids.size()) break;
        if (ids[r] == doc) score[r] += tf * idf;
      }
    }
  }
  // (score, row) pairs: rows are id-ascending, so row order breaks ties.
  std::vector<std::pair<double, size_t>> order(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) order[r] = {score[r], r};
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<std::vector<DocId>> ranked;
  ranked.reserve(rows.size());
  result->scores.reserve(rows.size());
  for (const auto& [s, r] : order) {
    ranked.push_back(std::move(rows[r]));
    result->scores.push_back(s);
  }
  rows = std::move(ranked);
}

Status ExecOps(VmState& st, const PlanProgram& program,
               std::vector<Batch>& regs, QueryResult* result) {
  for (size_t pc = 0; pc < program.ops.size(); ++pc) {
    const PlanOp& op = program.ops[pc];
    switch (op.code) {
      case OpCode::kLoadLive:
        regs[op.dst] = st.AllLiveBatch();
        break;
      case OpCode::kRootChildren: {
        std::vector<DocId> out;
        for (DocId id : st.AllLive()) {
          if (st.ctx != nullptr && !st.ctx->TickAlive()) break;
          if (st.module.groups().Parents(id).empty()) {
            const auto& children = st.module.groups().Children(id);
            out.insert(out.end(), children.begin(), children.end());
          }
        }
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
        regs[op.dst] = MakeBatch(std::move(out));
        break;
      }
      case OpCode::kNameMatch:
        regs[op.dst] = NameMatch(st, program.strings[op.str]);
        break;
      case OpCode::kPhrase: {
        st.rules.insert("R1:content-index");
        ++st.probes.content_phrases;
        obs::ScopedSpan probe_span(st.span, "index.content.phrase");
        const std::string& text = program.strings[op.str];
        // Ungoverned runs take the block-compressed fast path; governed
        // runs take the classic scan, which ticks per posting (the step
        // schedule the governance goldens pin).
        std::vector<DocId> hits =
            st.ctx == nullptr ? st.module.content().PhraseDocs(text)
                              : st.module.content().PhraseQuery(text, st.ctx);
        std::vector<DocId> ids = Intersect(hits, *regs[op.a]);
        if (probe_span) {
          probe_span.get()->SetAttr("matches",
                                    static_cast<int64_t>(ids.size()));
        }
        regs[op.dst] = MakeBatch(std::move(ids));
        break;
      }
      case OpCode::kTupleScan: {
        st.rules.insert("R3:tuple-index");
        ++st.probes.tuple_scans;
        obs::ScopedSpan probe_span(st.span, "index.tuple.scan");
        const std::string& attribute = program.strings[op.str];
        std::vector<DocId> ids = Intersect(
            st.module.tuples().Scan(attribute,
                                    static_cast<index::CompareOp>(op.flags &
                                                                  0xF),
                                    ResolveLiteral(st, program, op), st.ctx),
            *regs[op.a]);
        if (probe_span) {
          probe_span.get()->SetAttr("attribute", attribute);
          probe_span.get()->SetAttr("matches",
                                    static_cast<int64_t>(ids.size()));
        }
        regs[op.dst] = MakeBatch(std::move(ids));
        break;
      }
      case OpCode::kClassFilter: {
        const std::vector<DocId>& universe = *regs[op.a];
        const std::vector<char> accept =
            st.ClassAccept(program.strings[op.str]);
        const index::Catalog& catalog = st.module.catalog();
        std::vector<DocId> out;
        for (DocId id : universe) {
          if (st.ctx != nullptr && !st.ctx->TickAlive()) break;
          uint32_t cls = catalog.ClassId(id);  // kNoClass if unknown
          if (cls < accept.size() && accept[cls]) out.push_back(id);
        }
        regs[op.dst] = MakeBatch(std::move(out));
        break;
      }
      case OpCode::kIntersect:
        regs[op.dst] = MakeBatch(Intersect(*regs[op.a], *regs[op.b]));
        break;
      case OpCode::kUnion:
        regs[op.dst] = MakeBatch(UnionSets(*regs[op.a], *regs[op.b]));
        break;
      case OpCode::kDifference:
        regs[op.dst] = MakeBatch(Difference(*regs[op.a], *regs[op.b]));
        break;
      case OpCode::kMove:
        regs[op.dst] = regs[op.a];
        break;
      case OpCode::kJumpIfEmpty:
        if (regs[op.a]->empty()) pc = static_cast<size_t>(op.aux) - 1;
        break;
      case OpCode::kStepChild:
        regs[op.dst] = ExecStepChild(st, regs[op.a], regs[op.b]);
        break;
      case OpCode::kExpand:
        regs[op.dst] = ExecExpand(st, regs[op.a], regs[op.b]);
        break;
      case OpCode::kSetOp: {
        IDM_ASSIGN_OR_RETURN(regs[op.dst], ExecSetOp(st, program, op));
        break;
      }
      case OpCode::kJoin:
        IDM_RETURN_NOT_OK(ExecJoin(st, program, result));
        break;
      case OpCode::kMaterialize: {
        result->columns = {""};
        const std::vector<DocId>& ids = *regs[op.a];
        // §10 prefix capture: only the root materialization is governed;
        // a context doomed before the loop may have truncated index scans
        // upstream, so it keeps the empty prefix.
        const bool governed = (op.flags & 1) != 0 && st.ctx != nullptr;
        if (governed && st.ctx->doomed()) break;
        result->rows.reserve(ids.size());
        for (DocId id : ids) {
          if (governed) {
            if (!st.ctx->TickAlive()) break;
            if (!st.ctx
                     ->ChargeMemory(sizeof(std::vector<DocId>) +
                                    sizeof(DocId))
                     .ok()) {
              break;
            }
          }
          result->rows.push_back({id});
        }
        break;
      }
      case OpCode::kRankOrClear:
        if (st.ctx == nullptr || !st.ctx->doomed()) {
          RankRows(st, program, result);
        } else {
          // Ranked order is not a materialization order: a truncated
          // ranked result is not a prefix, degrade to empty (§10).
          result->rows.clear();
          result->scores.clear();
        }
        break;
    }
  }
  return Status::OK();
}

Result<QueryResult> RunQueryProgram(VmState& st, const PlanProgram& program) {
  QueryResult result;
  result.plan = program.normalized;
  std::vector<Batch> regs(program.num_regs, EmptyBatch());
  IDM_RETURN_NOT_OK(ExecOps(st, program, regs, &result));
  result.expanded_views = st.expanded;
  result.probes = st.probes;
  if (!st.rules.empty()) {
    result.plan += "  [rules:";
    for (const std::string& rule : st.rules) result.plan += " " + rule;
    result.plan += "]";
  }
  return result;
}

Result<Batch> RunPredProgram(VmState& st, const PlanProgram& program,
                             const Batch& universe) {
  std::vector<Batch> regs(program.num_regs, EmptyBatch());
  regs[0] = universe;
  QueryResult scratch;  // pred programs have no materialize/rank ops
  IDM_RETURN_NOT_OK(ExecOps(st, program, regs, &scratch));
  return regs[program.out_reg];
}

}  // namespace

Result<QueryResult> Vm::Run(const Env& env, const PlanProgram& program,
                            util::ExecContext* ctx, obs::TraceSpan* span) {
  VmState state(env, ctx, span);
  return RunQueryProgram(state, program);
}

Result<std::vector<DocId>> Vm::RunPred(const Env& env,
                                       const PlanProgram& program,
                                       std::vector<DocId> universe) {
  VmState state(env, nullptr, nullptr);
  Batch seed = MakeBatch(std::move(universe));
  IDM_ASSIGN_OR_RETURN(Batch ids, RunPredProgram(state, program, seed));
  return *ids;
}

}  // namespace idm::iql
