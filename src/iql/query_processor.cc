#include "iql/query_processor.h"

#include <algorithm>
#include <cmath>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "index/analyzer.h"
#include "iql/parser.h"
#include "iql/plan.h"
#include "iql/planner.h"
#include "iql/vm.h"
#include "util/string_util.h"

namespace idm::iql {

using index::DocId;

namespace {

Micros WallNow() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<DocId> Intersect(const std::vector<DocId>& a,
                             const std::vector<DocId>& b) {
  std::vector<DocId> out;
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

/// Live-id cache shared between an evaluation and the parallel child
/// evaluations it spawns: computed at most once per query, safely from any
/// thread.
struct LiveCache {
  std::once_flag once;
  std::shared_ptr<const std::vector<DocId>> ids;
};

}  // namespace

// ---------------------------------------------------------------------------

class QueryProcessor::Evaluation {
 public:
  /// Root evaluation of one query. \p ctx (may be null) governs every
  /// loop this evaluation and its parallel children run; \p span (may be
  /// null) collects the evaluation's trace tree.
  Evaluation(const QueryProcessor& processor, util::ExecContext* ctx,
             obs::TraceSpan* span)
      : module_(*processor.module_),
        classes_(*processor.classes_),
        clock_(processor.clock_),
        options_(processor.options_),
        pool_(processor.pool_.get()),
        live_(&own_live_),
        ctx_(ctx),
        span_(span),
        root_(true) {}

  /// Child evaluation for a parallel sub-query: shares the parent's pool
  /// and live-id cache but accumulates its own statistics, which the
  /// parent merges back in input order after the fan-out completes. Under
  /// governance the child runs on a Child() context: same family (shared
  /// deadline, steps, cancellation — the first arm to overrun dooms the
  /// siblings) with its own memory sub-budget.
  /// \p span: a pre-created arm span the parent allocated in input order
  /// before fanning out (so the trace tree is deterministic under
  /// parallelism); null when untraced.
  explicit Evaluation(const Evaluation& parent, obs::TraceSpan* span = nullptr)
      : module_(parent.module_),
        classes_(parent.classes_),
        clock_(parent.clock_),
        options_(parent.options_),
        pool_(parent.pool_),
        live_(parent.live_),
        span_(span),
        root_(false) {
    if (parent.ctx_ != nullptr) {
      ctx_owned_ = parent.ctx_->Child();
      ctx_ = ctx_owned_.get();
    }
  }

  Result<QueryResult> Run(const Query& query) {
    ++depth_;
    Result<QueryResult> result = RunImpl(query);
    --depth_;
    return result;
  }

 private:
  Result<QueryResult> RunImpl(const Query& query) {
    QueryResult result;
    result.plan = iql::ToString(query);
    switch (query.kind) {
      case Query::Kind::kFilter: {
        IDM_ASSIGN_OR_RETURN(std::vector<DocId> ids,
                             EvalPred(*query.filter, AllLive()));
        Unary(&result, std::move(ids));
        if (ctx_ == nullptr || !ctx_->doomed()) {
          RankIfKeywordQuery(*query.filter, &result);
        } else if (IsRankable(*query.filter)) {
          // A ranked result is ordered by score, not by materialization:
          // a truncated one would not be a prefix of the complete answer.
          result.rows.clear();
          result.scores.clear();
        }
        break;
      }
      case Query::Kind::kPath: {
        IDM_ASSIGN_OR_RETURN(std::vector<DocId> ids, EvalPath(query.steps));
        Unary(&result, std::move(ids));
        break;
      }
      case Query::Kind::kUnion:
      case Query::Kind::kIntersect:
      case Query::Kind::kExcept: {
        IDM_ASSIGN_OR_RETURN(std::vector<DocId> acc, EvalSetOp(query));
        Unary(&result, std::move(acc));
        break;
      }
      case Query::Kind::kJoin: {
        IDM_RETURN_NOT_OK(EvalJoin(*query.join, &result));
        if (ctx_ != nullptr && ctx_->doomed()) {
          // Join output is sorted after the probe: truncation is not a
          // prefix. Degrade to the empty prefix.
          result.rows.clear();
          result.scores.clear();
        }
        break;
      }
    }
    result.expanded_views = expanded_;
    result.probes = probes_;
    if (!rules_.empty()) {
      result.plan += "  [rules:";
      for (const std::string& rule : rules_) result.plan += " " + rule;
      result.plan += "]";
    }
    return result;
  }

 private:
  /// Opens a child span and redirects this evaluation's span pointer into
  /// it for the enclosing scope — nested probes/steps attach underneath.
  /// A no-op (and no allocation) when the evaluation is untraced.
  struct SpanScope {
    SpanScope(Evaluation* eval, const char* name)
        : eval_(eval), saved_(eval->span_) {
      span_ = saved_ == nullptr ? nullptr : saved_->AddChild(name);
      if (span_ != nullptr) eval_->span_ = span_;
    }
    ~SpanScope() {
      if (span_ != nullptr) span_->End();
      eval_->span_ = saved_;
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;
    obs::TraceSpan* get() const { return span_; }
    explicit operator bool() const { return span_ != nullptr; }

   private:
    Evaluation* eval_;
    obs::TraceSpan* saved_;
    obs::TraceSpan* span_ = nullptr;
  };

  /// True when this evaluation may fan work out. Nested fan-outs from
  /// worker threads degrade to inline execution inside ThreadPool::RunAll,
  /// so checking the pool here is sufficient.
  bool Parallel() const { return pool_ != nullptr && pool_->size() > 0; }

  /// Fan-out width for chunked scans: workers plus the contributing caller.
  size_t FanWays() const { return Parallel() ? pool_->size() + 1 : 1; }

  /// Splits an element-wise scan over [0, n) into pool-sized chunks,
  /// applies \p fn : (begin, end) -> vector<DocId> to each, and
  /// concatenates the chunk outputs in chunk order — the exact output of
  /// one serial `fn(0, n)` pass whenever fn is element-wise.
  template <typename Fn>
  std::vector<DocId> ChunkedConcat(size_t n, Fn fn) {
    auto ranges = util::ChunkRanges(n, FanWays(), options_.min_parallel_chunk);
    if (!Parallel() || ranges.size() <= 1) return fn(0, n);
    auto parts = util::OrderedParallelMap<std::vector<DocId>>(
        pool_, ranges.size(),
        [&](size_t i) { return fn(ranges[i].first, ranges[i].second); });
    std::vector<DocId> out;
    for (auto& part : parts) {
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }

  /// Collects the phrases of a predicate tree; sets *rankable to false when
  /// a non-keyword leaf (comparison, class, name) participates.
  static void CollectPhrases(const PredNode& pred,
                             std::vector<std::string>* phrases,
                             bool* rankable) {
    switch (pred.kind) {
      case PredNode::Kind::kPhrase:
        phrases->push_back(pred.text);
        return;
      case PredNode::Kind::kAnd:
      case PredNode::Kind::kOr:
      case PredNode::Kind::kNot:
        for (const auto& child : pred.children) {
          CollectPhrases(*child, phrases, rankable);
        }
        return;
      default:
        *rankable = false;
        return;
    }
  }

  /// The §5.1 ranking extension: pure keyword/phrase queries get tf-idf
  /// relevance scores and descending-score row order. Terms under a `not`
  /// still contribute nothing (they cannot occur in matching documents).
  /// True when the filter is a pure keyword query (would get ranked).
  static bool IsRankable(const PredNode& filter) {
    std::vector<std::string> phrases;
    bool rankable = true;
    CollectPhrases(filter, &phrases, &rankable);
    return rankable && !phrases.empty();
  }

  void RankIfKeywordQuery(const PredNode& filter, QueryResult* result) {
    std::vector<std::string> phrases;
    bool rankable = true;
    CollectPhrases(filter, &phrases, &rankable);
    if (!rankable || phrases.empty() || result->rows.empty()) return;

    std::unordered_map<DocId, double> score;
    score.reserve(result->rows.size());
    for (const auto& row : result->rows) score.emplace(row[0], 0.0);

    const double n_docs =
        static_cast<double>(std::max<size_t>(module_.content().doc_count(), 1));
    for (const std::string& phrase : phrases) {
      for (const std::string& term : index::PhraseTerms(phrase)) {
        size_t df = module_.content().DocumentFrequency(term);
        if (df == 0) continue;
        double idf = std::log(1.0 + n_docs / static_cast<double>(df));
        for (const auto& [doc, tf] : module_.content().TermQueryWithTf(term)) {
          auto it = score.find(doc);
          if (it != score.end()) it->second += tf * idf;
        }
      }
    }
    std::sort(result->rows.begin(), result->rows.end(),
              [&score](const std::vector<DocId>& a, const std::vector<DocId>& b) {
                double sa = score[a[0]], sb = score[b[0]];
                if (sa != sb) return sa > sb;
                return a[0] < b[0];
              });
    result->scores.reserve(result->rows.size());
    for (const auto& row : result->rows) result->scores.push_back(score[row[0]]);
  }

  void Unary(QueryResult* result, std::vector<DocId> ids) {
    result->columns = {""};
    // Prefix capture (DESIGN.md §10): only the *root* materialization of a
    // top-level unary query may stop mid-loop and keep what it built — its
    // input ids are complete (nothing doomed before), so the kept rows are
    // a prefix of the serial complete result. If the family was doomed
    // before this loop started, `ids` may itself be an arbitrary subset
    // (truncated index scans), so the only safe prefix is the empty one.
    const bool governed = ctx_ != nullptr && root_ && depth_ == 1;
    if (governed && ctx_->doomed()) return;
    result->rows.reserve(ids.size());
    for (DocId id : ids) {
      if (governed) {
        if (!ctx_->TickAlive()) return;
        if (!ctx_->ChargeMemory(sizeof(std::vector<DocId>) + sizeof(DocId))
                 .ok()) {
          return;
        }
      }
      result->rows.push_back({id});
    }
  }

  const std::vector<DocId>& AllLive() {
    std::call_once(live_->once,
                   [this] { live_->ids = module_.catalog().LiveSnapshot(); });
    return *live_->ids;
  }

  /// Merges a completed child evaluation's statistics (in fan-out input
  /// order, so the totals match the serial accumulation).
  void Absorb(Evaluation& child) {
    expanded_ += child.expanded_;
    probes_.Merge(child.probes_);
    rules_.insert(child.rules_.begin(), child.rules_.end());
  }

  /// R2: ids whose name matches the (possibly wildcarded) pattern.
  std::vector<DocId> NameMatches(const std::string& pattern) {
    if (pattern.empty() || pattern == "*") return AllLive();
    if (options_.use_name_index) {
      rules_.insert("R2:name-index");
      ++probes_.name_lookups;
      obs::ScopedSpan probe_span(span_, "index.name.lookup");
      std::vector<DocId> ids = module_.names().LookupPattern(pattern);
      if (probe_span) {
        probe_span.get()->SetAttr("pattern", pattern);
        probe_span.get()->SetAttr("matches", static_cast<int64_t>(ids.size()));
      }
      return ids;
    }
    // Ablation: full scan with per-view wildcard matching.
    const std::vector<DocId>& live = AllLive();
    return ChunkedConcat(live.size(), [&](size_t begin, size_t end) {
      std::vector<DocId> out;
      for (size_t i = begin; i < end; ++i) {
        if (ctx_ != nullptr && !ctx_->TickAlive()) break;
        if (WildcardMatch(pattern, module_.names().NameOf(live[i]))) {
          out.push_back(live[i]);
        }
      }
      return out;
    });
  }

  core::Value ResolveLiteral(const PredNode& pred) const {
    switch (pred.literal_kind) {
      case PredNode::LiteralKind::kValue:
        return pred.literal;
      case PredNode::LiteralKind::kYesterday:
        return core::Value::Date(clock_->NowMicros() - 86400LL * 1000000);
      case PredNode::LiteralKind::kNow:
        return core::Value::Date(clock_->NowMicros());
    }
    return pred.literal;
  }

  /// accept[k]: the catalog's interned class k equals or specializes
  /// \p wanted — one registry walk per distinct class, not per view.
  /// Unregistered classes match only by exact string equality
  /// (schema-later tolerance).
  std::vector<char> ClassAccept(const std::string& wanted) const {
    const std::deque<std::string>& names = module_.catalog().class_names();
    std::vector<char> accept(names.size());
    for (size_t k = 0; k < names.size(); ++k) {
      accept[k] = names[k] == wanted || classes_.IsSubclassOf(names[k], wanted);
    }
    return accept;
  }

  /// Evaluates the children of an and/or node against \p universe, in
  /// parallel child evaluations, returning per-child id sets in child
  /// order (and the children themselves for stat absorption).
  ///
  /// Correctness of evaluating an and-child against the *incoming*
  /// universe instead of the narrowed accumulator: every predicate is
  /// intersective — EvalPred(p, X) == X ∩ EvalPred(p, U) for X ⊆ U (leaves
  /// intersect with their universe; and/or/not preserve the property) — so
  /// folding Intersect(acc, EvalPred(child, universe)) in child order
  /// reproduces the serial narrowing exactly.
  struct ChildEval {
    Result<std::vector<DocId>> ids;
    std::unique_ptr<Evaluation> eval;
  };
  std::vector<ChildEval> EvalChildrenParallel(
      const std::vector<std::unique_ptr<PredNode>>& children,
      const std::vector<DocId>& universe) {
    // Arm spans are allocated here, in input order, BEFORE the fan-out —
    // the trace tree shape is then independent of worker scheduling.
    std::vector<obs::TraceSpan*> arm_spans(children.size(), nullptr);
    if (span_ != nullptr) {
      for (auto& arm_span : arm_spans) arm_span = span_->AddChild("pred");
    }
    return util::OrderedParallelMap<ChildEval>(
        pool_, children.size(), [&](size_t i) {
          auto eval = std::make_unique<Evaluation>(*this, arm_spans[i]);
          Result<std::vector<DocId>> ids =
              eval->EvalPred(*children[i], universe);
          if (arm_spans[i] != nullptr) arm_spans[i]->End();
          return ChildEval{std::move(ids), std::move(eval)};
        });
  }

  Result<std::vector<DocId>> EvalPred(const PredNode& pred,
                                      const std::vector<DocId>& universe) {
    switch (pred.kind) {
      case PredNode::Kind::kPhrase: {
        rules_.insert("R1:content-index");
        ++probes_.content_phrases;
        obs::ScopedSpan probe_span(span_, "index.content.phrase");
        std::vector<DocId> ids =
            Intersect(module_.content().PhraseQuery(pred.text, ctx_), universe);
        if (probe_span) {
          probe_span.get()->SetAttr("matches",
                                    static_cast<int64_t>(ids.size()));
        }
        return ids;
      }
      case PredNode::Kind::kCompare: {
        rules_.insert("R3:tuple-index");
        ++probes_.tuple_scans;
        obs::ScopedSpan probe_span(span_, "index.tuple.scan");
        std::vector<DocId> ids =
            Intersect(module_.tuples().Scan(pred.attribute, pred.op,
                                            ResolveLiteral(pred), ctx_),
                      universe);
        if (probe_span) {
          probe_span.get()->SetAttr("attribute", pred.attribute);
          probe_span.get()->SetAttr("matches",
                                    static_cast<int64_t>(ids.size()));
        }
        return ids;
      }
      case PredNode::Kind::kClassEq: {
        const std::vector<char> accept = ClassAccept(pred.text);
        const index::Catalog& catalog = module_.catalog();
        return ChunkedConcat(universe.size(), [&](size_t begin, size_t end) {
          std::vector<DocId> out;
          for (size_t i = begin; i < end; ++i) {
            if (ctx_ != nullptr && !ctx_->TickAlive()) break;
            DocId id = universe[i];
            uint32_t cls = catalog.ClassId(id);  // kNoClass if unknown
            if (cls < accept.size() && accept[cls]) out.push_back(id);
          }
          return out;
        });
      }
      case PredNode::Kind::kNameEq:
        return Intersect(NameMatches(pred.text), universe);
      case PredNode::Kind::kAnd: {
        if (Parallel() && pred.children.size() > 1) {
          std::vector<ChildEval> outs =
              EvalChildrenParallel(pred.children, universe);
          std::vector<DocId> acc = universe;
          for (size_t i = 0; i < outs.size(); ++i) {
            // Serial short-circuit: child i runs only while the
            // accumulator is non-empty.
            if (i > 0 && acc.empty()) break;
            if (!outs[i].ids.ok()) return outs[i].ids.status();
            Absorb(*outs[i].eval);
            acc = Intersect(acc, *outs[i].ids);
          }
          return acc;
        }
        std::vector<DocId> acc = universe;
        for (const auto& child : pred.children) {
          IDM_ASSIGN_OR_RETURN(acc, EvalPred(*child, acc));
          if (acc.empty()) break;
        }
        return acc;
      }
      case PredNode::Kind::kOr: {
        if (Parallel() && pred.children.size() > 1) {
          std::vector<ChildEval> outs =
              EvalChildrenParallel(pred.children, universe);
          std::vector<DocId> acc;
          for (auto& out : outs) {
            if (!out.ids.ok()) return out.ids.status();
            Absorb(*out.eval);
            acc = UnionSets(acc, *out.ids);
          }
          return acc;
        }
        std::vector<DocId> acc;
        for (const auto& child : pred.children) {
          IDM_ASSIGN_OR_RETURN(std::vector<DocId> ids,
                               EvalPred(*child, universe));
          acc = UnionSets(acc, ids);
        }
        return acc;
      }
      case PredNode::Kind::kNot: {
        IDM_ASSIGN_OR_RETURN(std::vector<DocId> ids,
                             EvalPred(*pred.children[0], universe));
        return Difference(universe, ids);
      }
    }
    return Status::Unimplemented("unknown predicate");
  }

  /// union/intersect/except over the arms, each arm optionally evaluated
  /// in a parallel child evaluation; the fold runs in arm order either
  /// way, so the result is identical to the serial loop.
  Result<std::vector<DocId>> EvalSetOp(const Query& query) {
    struct ArmEval {
      Result<QueryResult> result;
      std::unique_ptr<Evaluation> eval;  ///< null when run in place
    };
    std::vector<ArmEval> arms;
    arms.reserve(query.arms.size());
    if (Parallel() && query.arms.size() > 1) {
      // Arm spans allocated in input order before the fan-out (see
      // EvalChildrenParallel for why).
      std::vector<obs::TraceSpan*> arm_spans(query.arms.size(), nullptr);
      if (span_ != nullptr) {
        for (auto& arm_span : arm_spans) arm_span = span_->AddChild("arm");
      }
      arms = util::OrderedParallelMap<ArmEval>(
          pool_, query.arms.size(), [&](size_t i) {
            auto eval = std::make_unique<Evaluation>(*this, arm_spans[i]);
            Result<QueryResult> sub = eval->Run(*query.arms[i]);
            if (arm_spans[i] != nullptr) arm_spans[i]->End();
            return ArmEval{std::move(sub), std::move(eval)};
          });
    } else {
      for (const auto& arm : query.arms) {
        SpanScope arm_scope(this, "arm");
        arms.push_back(ArmEval{Run(*arm), nullptr});
        if (!arms.back().result.ok()) break;  // serial early-out
      }
    }

    std::vector<DocId> acc;
    bool first = true;
    for (ArmEval& arm : arms) {
      if (!arm.result.ok()) return arm.result.status();
      if (arm.eval != nullptr) Absorb(*arm.eval);
      QueryResult& sub = *arm.result;
      if (sub.columns.size() != 1) {
        return Status::Unimplemented("set operators over join results");
      }
      std::vector<DocId> ids;
      ids.reserve(sub.rows.size());
      for (const auto& row : sub.rows) ids.push_back(row[0]);
      std::sort(ids.begin(), ids.end());
      if (first) {
        acc = std::move(ids);
        first = false;
      } else if (query.kind == Query::Kind::kUnion) {
        acc = UnionSets(acc, ids);
      } else if (query.kind == Query::Kind::kIntersect) {
        acc = Intersect(acc, ids);
      } else {
        acc = Difference(acc, ids);
      }
    }
    return acc;
  }

  /// Direct children of the views that have no parents (the source roots).
  std::vector<DocId> RootChildren() {
    std::vector<DocId> out;
    for (DocId id : AllLive()) {
      if (module_.groups().Parents(id).empty()) {
        const auto& children = module_.groups().Children(id);
        out.insert(out.end(), children.begin(), children.end());
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  Result<std::vector<DocId>> EvalPath(const std::vector<PathStep>& steps) {
    std::vector<DocId> frontier;
    for (size_t i = 0; i < steps.size(); ++i) {
      const PathStep& step = steps[i];
      SpanScope step_scope(this, "step");
      if (step_scope) {
        step_scope.get()->SetAttr("pattern", step.name_pattern);
        step_scope.get()->SetAttr("descendant",
                                  step.descendant ? "true" : "false");
      }
      std::vector<DocId> name_set = NameMatches(step.name_pattern);
      std::vector<DocId> matched;
      if (i == 0) {
        if (step.descendant) {
          // Every indexed view is (indirectly) related to a source root.
          matched = std::move(name_set);
        } else {
          matched = Intersect(RootChildren(), name_set);
        }
      } else if (step.descendant) {
        // R4/R6: choose the expansion direction. Backward pays a bounded
        // parent-BFS per candidate; forward pays one full descendant BFS of
        // the frontier. Backward wins when candidates are few and shallow —
        // exactly the Q8 shape (huge frontier, tiny name-match set).
        bool backward;
        switch (options_.expansion) {
          case Expansion::kForward: backward = false; break;
          case Expansion::kBackward: backward = true; break;
          case Expansion::kAuto:
            backward = name_set.size() * 16 < frontier.size();
            break;
        }
        if (backward) {
          rules_.insert("R6:backward-expansion");
          probes_.graph_walks += name_set.size();
          SpanScope expand_scope(this, "expand.backward");
          if (expand_scope) {
            expand_scope.get()->SetAttr("candidates",
                                        static_cast<int64_t>(name_set.size()));
          }
          // Per-candidate parent-BFS probes are independent; fan them out
          // and keep per-chunk expansion counts (summed in chunk order).
          std::unordered_set<DocId> sources(frontier.begin(), frontier.end());
          auto ranges = util::ChunkRanges(name_set.size(), FanWays(),
                                          options_.min_parallel_chunk);
          struct ChunkOut {
            std::vector<DocId> matched;
            size_t expanded = 0;
          };
          auto probe = [&](size_t begin, size_t end) {
            ChunkOut out;
            for (size_t c = begin; c < end; ++c) {
              if (ctx_ != nullptr && ctx_->doomed()) break;
              if (module_.groups().ReachedFromAny(name_set[c], sources,
                                                  options_.max_expansion,
                                                  &out.expanded, ctx_)) {
                out.matched.push_back(name_set[c]);
              }
            }
            return out;
          };
          if (Parallel() && ranges.size() > 1) {
            auto parts = util::OrderedParallelMap<ChunkOut>(
                pool_, ranges.size(), [&](size_t c) {
                  return probe(ranges[c].first, ranges[c].second);
                });
            for (ChunkOut& part : parts) {
              matched.insert(matched.end(), part.matched.begin(),
                             part.matched.end());
              expanded_ += part.expanded;
            }
          } else {
            ChunkOut all = probe(0, name_set.size());
            matched = std::move(all.matched);
            expanded_ += all.expanded;
          }
        } else {
          rules_.insert("R4:forward-expansion");
          ++probes_.graph_walks;
          SpanScope expand_scope(this, "expand.forward");
          size_t expanded = 0;
          std::unordered_set<DocId> descendants = module_.groups().Descendants(
              frontier, options_.max_expansion, &expanded, ctx_);
          expanded_ += expanded;
          if (expand_scope) {
            expand_scope.get()->SetAttr("expanded",
                                        static_cast<int64_t>(expanded));
          }
          // Reserve the descendant set against the memory budget for the
          // time it is held — forward expansion is the paper's Q8 blowup.
          util::ScopedCharge descendants_charge(ctx_);
          if (!descendants_charge.Add(descendants.size() * sizeof(DocId)).ok()) {
            descendants.clear();
          }
          matched = ChunkedConcat(name_set.size(), [&](size_t b, size_t e) {
            std::vector<DocId> out;
            for (size_t c = b; c < e; ++c) {
              if (ctx_ != nullptr && !ctx_->TickAlive()) break;
              if (descendants.count(name_set[c]) > 0) out.push_back(name_set[c]);
            }
            return out;
          });
        }
      } else {
        std::vector<DocId> children =
            ChunkedConcat(frontier.size(), [&](size_t b, size_t e) {
              std::vector<DocId> out;
              for (size_t c = b; c < e; ++c) {
                if (ctx_ != nullptr && !ctx_->TickAlive()) break;
                const auto& ch = module_.groups().Children(frontier[c]);
                out.insert(out.end(), ch.begin(), ch.end());
              }
              return out;
            });
        expanded_ += frontier.size();
        std::sort(children.begin(), children.end());
        children.erase(std::unique(children.begin(), children.end()),
                       children.end());
        matched = Intersect(children, name_set);
      }
      if (step.predicate != nullptr) {
        IDM_ASSIGN_OR_RETURN(matched, EvalPred(*step.predicate, matched));
      }
      if (step_scope) {
        step_scope.get()->SetAttr("matched",
                                  static_cast<int64_t>(matched.size()));
      }
      frontier = std::move(matched);
      if (frontier.empty()) break;
    }
    return frontier;
  }

  /// Join key of a view under \p ref; nullopt when the view lacks the
  /// referenced component. Keys compare case-insensitively.
  Result<std::optional<std::string>> JoinKey(DocId id, const JoinRef& ref) {
    switch (ref.field) {
      case JoinRef::Field::kName: {
        const std::string& name = module_.names().NameOf(id);
        if (name.empty()) return std::optional<std::string>();
        return std::optional<std::string>(ToLower(name));
      }
      case JoinRef::Field::kClass: {
        const index::CatalogEntry* entry = module_.catalog().Entry(id);
        if (entry == nullptr || entry->class_name.empty()) {
          return std::optional<std::string>();
        }
        return std::optional<std::string>(entry->class_name);
      }
      case JoinRef::Field::kTupleAttr: {
        auto value = module_.tuples().TupleOf(id).Get(ref.attribute);
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

  Status EvalJoin(const JoinSpec& join, QueryResult* result) {
    QueryResult left, right;
    if (Parallel()) {
      // The two join inputs are independent sub-queries: evaluate them
      // concurrently in child evaluations, then absorb left-before-right.
      // Both arm spans are allocated before the fan-out, left first.
      obs::TraceSpan* left_span =
          span_ == nullptr ? nullptr : span_->AddChild("join.left");
      obs::TraceSpan* right_span =
          span_ == nullptr ? nullptr : span_->AddChild("join.right");
      Evaluation left_eval(*this, left_span), right_eval(*this, right_span);
      std::optional<Result<QueryResult>> left_res, right_res;
      util::ThreadPool::RunAll(
          pool_, {[&] {
                    left_res.emplace(left_eval.Run(*join.left));
                    if (left_span != nullptr) left_span->End();
                  },
                  [&] {
                    right_res.emplace(right_eval.Run(*join.right));
                    if (right_span != nullptr) right_span->End();
                  }});
      if (!left_res->ok()) return left_res->status();
      if (!right_res->ok()) return right_res->status();
      Absorb(left_eval);
      Absorb(right_eval);
      left = std::move(**left_res);
      right = std::move(**right_res);
    } else {
      {
        SpanScope left_scope(this, "join.left");
        IDM_ASSIGN_OR_RETURN(left, Run(*join.left));
      }
      {
        SpanScope right_scope(this, "join.right");
        IDM_ASSIGN_OR_RETURN(right, Run(*join.right));
      }
    }
    if (left.columns.size() != 1 || right.columns.size() != 1) {
      return Status::Unimplemented("nested join inputs must be unary");
    }
    result->columns = {join.left_binding, join.right_binding};

    // R5: hash the smaller input.
    rules_.insert("R5:hash-join");
    bool left_is_build = left.rows.size() <= right.rows.size();
    const QueryResult& build = left_is_build ? left : right;
    const QueryResult& probe = left_is_build ? right : left;
    const JoinRef& build_ref = left_is_build ? join.left_ref : join.right_ref;
    const JoinRef& probe_ref = left_is_build ? join.right_ref : join.left_ref;

    std::unordered_map<std::string, std::vector<DocId>> table;
    util::ScopedCharge table_charge(ctx_);
    for (const auto& row : build.rows) {
      if (ctx_ != nullptr && !ctx_->TickAlive()) break;
      IDM_ASSIGN_OR_RETURN(std::optional<std::string> key,
                           JoinKey(row[0], build_ref));
      if (!key.has_value()) continue;
      if (!table_charge.Add(key->size() + sizeof(DocId)).ok()) break;
      table[*key].push_back(row[0]);
    }

    // Probe chunks read the hash table concurrently (it is no longer
    // mutated); match rows concatenate in probe order, as serially.
    struct ProbeOut {
      std::vector<std::vector<DocId>> rows;
      size_t matches = 0;
      Status error;
    };
    auto probe_chunk = [&](size_t begin, size_t end) {
      ProbeOut out;
      for (size_t r = begin; r < end; ++r) {
        if (ctx_ != nullptr && !ctx_->TickAlive()) break;
        const auto& row = probe.rows[r];
        Result<std::optional<std::string>> key = JoinKey(row[0], probe_ref);
        if (!key.ok()) {
          out.error = key.status();
          return out;
        }
        if (!key->has_value()) continue;
        auto it = table.find(**key);
        if (it == table.end()) continue;
        for (DocId match : it->second) {
          ++out.matches;
          if (left_is_build) {
            out.rows.push_back({match, row[0]});
          } else {
            out.rows.push_back({row[0], match});
          }
        }
      }
      return out;
    };
    SpanScope probe_scope(this, "join.probe");
    if (probe_scope) {
      probe_scope.get()->SetAttr("build_rows",
                                 static_cast<int64_t>(build.rows.size()));
      probe_scope.get()->SetAttr("probe_rows",
                                 static_cast<int64_t>(probe.rows.size()));
    }
    auto ranges = util::ChunkRanges(probe.rows.size(), FanWays(),
                                    options_.min_parallel_chunk);
    std::vector<ProbeOut> parts;
    if (Parallel() && ranges.size() > 1) {
      parts = util::OrderedParallelMap<ProbeOut>(
          pool_, ranges.size(), [&](size_t c) {
            return probe_chunk(ranges[c].first, ranges[c].second);
          });
    } else if (!probe.rows.empty()) {
      parts.push_back(probe_chunk(0, probe.rows.size()));
    }
    for (ProbeOut& part : parts) {
      if (!part.error.ok()) return part.error;
      expanded_ += part.matches;
      result->rows.insert(result->rows.end(),
                          std::make_move_iterator(part.rows.begin()),
                          std::make_move_iterator(part.rows.end()));
    }
    std::sort(result->rows.begin(), result->rows.end());
    // Sub-runs already accumulated their expansion work into expanded_.
    return Status::OK();
  }

  const rvm::ReplicaIndexesModule& module_;
  const core::ClassRegistry& classes_;
  Clock* clock_;
  Options options_;
  util::ThreadPool* pool_;
  LiveCache* live_;
  LiveCache own_live_;
  util::ExecContext* ctx_ = nullptr;  ///< null = ungoverned (byte-identical)
  std::unique_ptr<util::ExecContext> ctx_owned_;  ///< child context, if any
  obs::TraceSpan* span_ = nullptr;  ///< null = untraced (byte-identical)
  bool root_ = false;  ///< true on the query's top-level evaluation
  int depth_ = 0;      ///< Run() nesting on *this* object (set-op arms)
  size_t expanded_ = 0;
  index::ProbeCounts probes_;
  std::set<std::string> rules_;

  friend class iql::QueryProcessor;  // MatchesDoc/IsRankedQuery helpers
};

// ---------------------------------------------------------------------------

QueryProcessor::QueryProcessor(const rvm::ReplicaIndexesModule* module,
                               const core::ClassRegistry* classes,
                               Clock* clock, Options options)
    : module_(module), classes_(classes), clock_(clock), options_(options) {
  if (const char* env = std::getenv("IDM_QUERY_ENGINE"); env != nullptr) {
    std::string name = env;
    if (name == "interp") {
      options_.engine = Engine::kInterp;
    } else if (name == "vm") {
      options_.engine = Engine::kVm;
    } else if (name == "both") {
      options_.engine = Engine::kBoth;
    }
  }
  if (options_.threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(options_.threads);
  }
}

QueryProcessor::~QueryProcessor() = default;

bool QueryProcessor::IsRankedQuery(const Query& query) {
  return query.kind == Query::Kind::kFilter && query.filter != nullptr &&
         Evaluation::IsRankable(*query.filter);
}

bool QueryProcessor::SupportsMatchesDoc(const Query& query) {
  switch (query.kind) {
    case Query::Kind::kFilter:
      // Un-ranked filters test only the view's own name/tuple/content/
      // class components. Ranked (pure keyword) results are ordered by
      // corpus-wide idf, so a single view cannot be judged in isolation.
      return query.filter != nullptr && !Evaluation::IsRankable(*query.filter);
    case Query::Kind::kPath:
      // `//name[pred]` — one descendant step has no ancestry constraint:
      // membership is name-match plus the step predicate on the view.
      return query.steps.size() == 1 && query.steps[0].descendant;
    default:
      return false;
  }
}

Result<bool> QueryProcessor::MatchesDoc(const Query& query,
                                        index::DocId id) const {
  if (!SupportsMatchesDoc(query)) {
    return Status::InvalidArgument(
        "MatchesDoc: query shape is not per-view maintainable");
  }
  const index::CatalogEntry* entry = module_->catalog().Entry(id);
  if (entry == nullptr || entry->deleted) return false;
  // EvalPred is intersective — EvalPred(p, {id}) == {id} ∩ EvalPred(p, U)
  // for any universe containing id — so the singleton universe answers
  // membership exactly (liveness was just checked; predicate leaves only
  // ever produce live ids, and kNot subtracts from the universe we pass).
  const PredNode* predicate = nullptr;
  if (query.kind == Query::Kind::kFilter) {
    predicate = query.filter.get();
  } else {
    const PathStep& step = query.steps[0];
    const std::string& pattern = step.name_pattern;
    if (!pattern.empty() && pattern != "*" &&
        !WildcardMatch(pattern, module_->names().NameOf(id))) {
      return false;
    }
    predicate = step.predicate.get();
  }
  if (predicate == nullptr) return true;
  Evaluation evaluation(*this, nullptr, nullptr);
  IDM_ASSIGN_OR_RETURN(std::vector<index::DocId> hit,
                       evaluation.EvalPred(*predicate, {id}));
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
  switch (options_.engine) {
    case Engine::kInterp:
      return RunInterp(query, ctx, span);
    case Engine::kVm:
      return RunVm(query, nullptr, ctx, span);
    case Engine::kBoth:
      return RunBoth(query, nullptr, ctx, span);
  }
  return Status::Internal("unknown query engine");
}

Result<QueryResult> QueryProcessor::Evaluate(const Query& query,
                                             const PlanProgram& program,
                                             util::ExecContext* ctx,
                                             obs::TraceSpan* span) const {
  switch (options_.engine) {
    case Engine::kInterp:
      return RunInterp(query, ctx, span);
    case Engine::kVm:
      return RunVm(query, &program, ctx, span);
    case Engine::kBoth:
      return RunBoth(query, &program, ctx, span);
  }
  return Status::Internal("unknown query engine");
}

std::unique_ptr<PlanProgram> QueryProcessor::Plan(const Query& query) const {
  plans_.fetch_add(1, std::memory_order_relaxed);
  return Planner(pool_ != nullptr && pool_->size() > 0).Lower(query);
}

QueryProcessor::EngineStats QueryProcessor::engine_stats() const {
  EngineStats stats;
  stats.plans = plans_.load(std::memory_order_relaxed);
  stats.interp_runs = interp_runs_.load(std::memory_order_relaxed);
  stats.vm_runs = vm_runs_.load(std::memory_order_relaxed);
  stats.both_runs = both_runs_.load(std::memory_order_relaxed);
  stats.mismatches = mismatches_.load(std::memory_order_relaxed);
  return stats;
}

Result<QueryResult> QueryProcessor::RunInterp(const Query& query,
                                              util::ExecContext* ctx,
                                              obs::TraceSpan* span) const {
  interp_runs_.fetch_add(1, std::memory_order_relaxed);
  Micros start = WallNow();
  Evaluation evaluation(*this, ctx, span);
  return Finish(evaluation.Run(query), start, ctx, span);
}

Result<QueryResult> QueryProcessor::RunVm(const Query& query,
                                          const PlanProgram* program,
                                          util::ExecContext* ctx,
                                          obs::TraceSpan* span) const {
  vm_runs_.fetch_add(1, std::memory_order_relaxed);
  Micros start = WallNow();
  std::unique_ptr<PlanProgram> owned;
  if (program == nullptr) {
    owned = Plan(query);
    program = owned.get();
  }
  Vm::Env env{module_, classes_, clock_, &options_, pool_.get()};
  return Finish(Vm::Run(env, *program, ctx, span), start, ctx, span);
}

namespace {

/// Differential check for kBoth: every observable field except wall-clock
/// time must agree. Strict mode (threads <= 1, where even governed doom
/// points are deterministic) also compares incomplete results row-for-row;
/// under parallel evaluation a doomed run's partial prefix depends on
/// thread timing, so only then an incomplete pair is exempt.
Status CompareEngines(const Result<QueryResult>& interp,
                      const Result<QueryResult>& vm, bool strict) {
  auto fail = [](const std::string& what) {
    return Status::Internal("engine mismatch (interp vs vm): " + what);
  };
  if (interp.ok() != vm.ok()) {
    return fail(interp.ok() ? "vm errored: " + vm.status().ToString()
                            : "interp errored: " + interp.status().ToString());
  }
  if (!interp.ok()) {
    if (interp.status().ToString() != vm.status().ToString()) {
      return fail("errors differ: " + interp.status().ToString() + " vs " +
                  vm.status().ToString());
    }
    return Status::OK();
  }
  const QueryResult& a = *interp;
  const QueryResult& b = *vm;
  if (!strict && (!a.meta.complete || !b.meta.complete)) return Status::OK();
  if (a.meta.complete != b.meta.complete) return fail("meta.complete");
  if (a.columns != b.columns) return fail("columns");
  if (a.rows != b.rows) {
    std::ostringstream os;
    os << "rows (" << a.rows.size() << " vs " << b.rows.size() << ")";
    return fail(os.str());
  }
  if (a.scores != b.scores) return fail("scores");
  if (a.expanded_views != b.expanded_views) return fail("expanded_views");
  if (a.plan != b.plan) {
    return fail("plan: \"" + a.plan + "\" vs \"" + b.plan + "\"");
  }
  if (a.probes.name_lookups != b.probes.name_lookups ||
      a.probes.content_phrases != b.probes.content_phrases ||
      a.probes.tuple_scans != b.probes.tuple_scans ||
      a.probes.graph_walks != b.probes.graph_walks) {
    return fail("probe counts");
  }
  if (strict && a.meta.steps_used != b.meta.steps_used) {
    std::ostringstream os;
    os << "steps_used (" << a.meta.steps_used << " vs " << b.meta.steps_used
       << ")";
    return fail(os.str());
  }
  return Status::OK();
}

}  // namespace

Result<QueryResult> QueryProcessor::RunBoth(const Query& query,
                                            const PlanProgram* program,
                                            util::ExecContext* ctx,
                                            obs::TraceSpan* span) const {
  both_runs_.fetch_add(1, std::memory_order_relaxed);
  // The interpreter is the primary: it gets the caller's context and span,
  // and its result (or error) is what the caller sees. The VM runs second
  // under a fresh context with the same clock and limits — at threads = 1
  // both engines issue identical tick sequences, so even §10 degraded
  // prefixes must match byte-for-byte.
  Result<QueryResult> interp = RunInterp(query, ctx, span);
  std::unique_ptr<util::ExecContext> vm_ctx;
  if (ctx != nullptr) {
    vm_ctx = std::make_unique<util::ExecContext>(ctx->clock(), ctx->limits());
  }
  Result<QueryResult> vm = RunVm(query, program, vm_ctx.get(), nullptr);
  Status diff = CompareEngines(interp, vm, options_.threads <= 1);
  if (!diff.ok()) {
    mismatches_.fetch_add(1, std::memory_order_relaxed);
    return diff;
  }
  return interp;
}

Result<QueryResult> QueryProcessor::Finish(Result<QueryResult> run,
                                           Micros start, util::ExecContext* ctx,
                                           obs::TraceSpan* span) const {
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
