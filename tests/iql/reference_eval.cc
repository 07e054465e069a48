#include "reference_eval.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <vector>

#include "index/analyzer.h"
#include "util/string_util.h"

namespace idm::iql {

using index::DocId;

namespace {

std::set<DocId> Intersect(const std::set<DocId>& a, const std::set<DocId>& b) {
  std::set<DocId> out;
  for (DocId id : a) {
    if (b.count(id) > 0) out.insert(id);
  }
  return out;
}

bool Holds(int cmp, index::CompareOp op) {
  switch (op) {
    case index::CompareOp::kEq: return cmp == 0;
    case index::CompareOp::kNe: return cmp != 0;
    case index::CompareOp::kLt: return cmp < 0;
    case index::CompareOp::kLe: return cmp <= 0;
    case index::CompareOp::kGt: return cmp > 0;
    case index::CompareOp::kGe: return cmp >= 0;
  }
  return false;
}

/// Phrases of a predicate tree in tree order; nullopt when a non-keyword
/// leaf takes part (the query is then not ranked).
std::optional<std::vector<std::string>> KeywordPhrases(const PredNode& pred) {
  std::vector<std::string> phrases;
  std::vector<const PredNode*> stack = {&pred};
  while (!stack.empty()) {
    const PredNode* node = stack.back();
    stack.pop_back();
    if (node->kind == PredNode::Kind::kPhrase) {
      phrases.push_back(node->text);
    } else if (node->kind == PredNode::Kind::kAnd ||
               node->kind == PredNode::Kind::kOr ||
               node->kind == PredNode::Kind::kNot) {
      for (auto it = node->children.rbegin(); it != node->children.rend();
           ++it) {
        stack.push_back(it->get());
      }
    } else {
      return std::nullopt;
    }
  }
  return phrases;
}

QueryResult UnaryResult(const std::set<DocId>& ids) {
  QueryResult result;
  result.columns = {""};
  for (DocId id : ids) result.rows.push_back({id});
  return result;
}

}  // namespace

std::set<DocId> ReferenceEvaluator::Live() const {
  const index::Catalog& catalog = module_.catalog();
  IdSet live;
  for (DocId id = 0; id < catalog.total_count(); ++id) {
    const index::CatalogEntry* entry = catalog.Entry(id);
    if (entry != nullptr && !entry->deleted) live.insert(id);
  }
  return live;
}

std::set<DocId> ReferenceEvaluator::Names(const std::string& pattern) const {
  IdSet live = Live();
  if (pattern.empty() || pattern == "*") return live;
  IdSet out;
  for (DocId id : live) {
    if (WildcardMatch(pattern, module_.names().NameOf(id))) out.insert(id);
  }
  return out;
}

std::set<DocId> ReferenceEvaluator::Compare(const PredNode& pred,
                                            const IdSet& universe) const {
  // The attribute resolves like a tuple-index column: the normalized name
  // itself, else the smallest normalized attribute name it prefixes
  // ("lastmodified" finds "lastmodifiedtime"), over every non-null
  // attribute of a live view.
  const index::TupleIndex& tuples = module_.tuples();
  const std::string key = index::TupleIndex::NormalizeAttribute(pred.attribute);
  if (key.empty()) return {};
  std::set<std::string> attributes;
  for (DocId id : Live()) {
    const core::TupleComponent& tuple = tuples.TupleOf(id);
    for (size_t i = 0; i < tuple.schema().size(); ++i) {
      if (tuple.values()[i].is_null()) continue;
      attributes.insert(
          index::TupleIndex::NormalizeAttribute(tuple.schema().at(i).name));
    }
  }
  std::string column = key;
  if (attributes.count(key) == 0) {
    auto it = attributes.lower_bound(key);
    if (it == attributes.end() || it->compare(0, key.size(), key) != 0) {
      return {};
    }
    column = *it;
  }
  core::Value literal = pred.literal;
  if (pred.literal_kind == PredNode::LiteralKind::kNow) {
    literal = core::Value::Date(clock_->NowMicros());
  } else if (pred.literal_kind == PredNode::LiteralKind::kYesterday) {
    literal = core::Value::Date(clock_->NowMicros() - 86400LL * 1000000);
  }
  IdSet out;
  for (DocId id : universe) {
    const core::TupleComponent& tuple = tuples.TupleOf(id);
    for (size_t i = 0; i < tuple.schema().size(); ++i) {
      const core::Value& value = tuple.values()[i];
      if (value.is_null() ||
          index::TupleIndex::NormalizeAttribute(tuple.schema().at(i).name) !=
              column) {
        continue;
      }
      if (Holds(value.Compare(literal), pred.op)) out.insert(id);
    }
  }
  return out;
}

std::set<DocId> ReferenceEvaluator::Pred(const PredNode& pred,
                                         const IdSet& universe) const {
  switch (pred.kind) {
    case PredNode::Kind::kPhrase: {
      std::vector<DocId> hits = module_.content().PhraseQuery(pred.text);
      return Intersect(universe, IdSet(hits.begin(), hits.end()));
    }
    case PredNode::Kind::kCompare:
      return Compare(pred, universe);
    case PredNode::Kind::kClassEq: {
      IdSet out;
      for (DocId id : universe) {
        const index::CatalogEntry* entry = module_.catalog().Entry(id);
        if (entry == nullptr) continue;
        std::string cls(entry->class_name);
        if (cls == pred.text || classes_.IsSubclassOf(cls, pred.text)) {
          out.insert(id);
        }
      }
      return out;
    }
    case PredNode::Kind::kNameEq:
      return Intersect(universe, Names(pred.text));
    case PredNode::Kind::kAnd: {
      IdSet out = universe;
      for (const auto& child : pred.children) {
        out = Intersect(out, Pred(*child, universe));
      }
      return out;
    }
    case PredNode::Kind::kOr: {
      IdSet out;
      for (const auto& child : pred.children) {
        IdSet ids = Pred(*child, universe);
        out.insert(ids.begin(), ids.end());
      }
      return out;
    }
    case PredNode::Kind::kNot: {
      IdSet out = universe;
      for (DocId id : Pred(*pred.children[0], universe)) out.erase(id);
      return out;
    }
  }
  return {};
}

bool ReferenceEvaluator::HasAncestorIn(DocId id,
                                       const IdSet& ancestors) const {
  // BFS up the parent edges; \p id itself counts only when reached again
  // through a cycle.
  IdSet seen;
  std::vector<DocId> queue = module_.groups().Parents(id);
  while (!queue.empty()) {
    DocId node = queue.back();
    queue.pop_back();
    if (!seen.insert(node).second) continue;
    if (ancestors.count(node) > 0) return true;
    for (DocId parent : module_.groups().Parents(node)) queue.push_back(parent);
  }
  return false;
}

std::set<DocId> ReferenceEvaluator::Path(
    const std::vector<PathStep>& steps) const {
  IdSet frontier;
  for (size_t i = 0; i < steps.size(); ++i) {
    const PathStep& step = steps[i];
    IdSet names = Names(step.name_pattern);
    IdSet matched;
    if (i == 0 && step.descendant) {
      matched = names;  // every view descends from some source root
    } else if (i == 0) {
      // '/' from the top: children of the parentless views.
      for (DocId id : Live()) {
        if (!module_.groups().Parents(id).empty()) continue;
        for (DocId child : module_.groups().Children(id)) {
          if (names.count(child) > 0) matched.insert(child);
        }
      }
    } else if (step.descendant) {
      for (DocId id : names) {
        if (HasAncestorIn(id, frontier)) matched.insert(id);
      }
    } else {
      for (DocId id : frontier) {
        for (DocId child : module_.groups().Children(id)) {
          if (names.count(child) > 0) matched.insert(child);
        }
      }
    }
    if (step.predicate != nullptr) matched = Pred(*step.predicate, matched);
    frontier = std::move(matched);
  }
  return frontier;
}

Result<QueryResult> ReferenceEvaluator::Join(const JoinSpec& join) const {
  IDM_ASSIGN_OR_RETURN(QueryResult left, Evaluate(*join.left));
  IDM_ASSIGN_OR_RETURN(QueryResult right, Evaluate(*join.right));
  if (left.columns.size() != 1 || right.columns.size() != 1) {
    return Status::Unimplemented("nested join inputs must be unary");
  }
  if (join.left_ref.field == JoinRef::Field::kContent ||
      join.right_ref.field == JoinRef::Field::kContent) {
    return Status::Unimplemented("joins on content components");
  }
  // Names and tuple values compare case-insensitively; class names are
  // identifiers and compare exactly. A view lacking the component never
  // joins.
  auto key = [this](DocId id,
                    const JoinRef& ref) -> std::optional<std::string> {
    if (ref.field == JoinRef::Field::kName) {
      const std::string& name = module_.names().NameOf(id);
      if (name.empty()) return std::nullopt;
      return ToLower(name);
    }
    if (ref.field == JoinRef::Field::kClass) {
      const index::CatalogEntry* entry = module_.catalog().Entry(id);
      if (entry == nullptr || entry->class_name.empty()) return std::nullopt;
      return std::string(entry->class_name);
    }
    std::optional<core::Value> value =
        module_.tuples().TupleOf(id).Get(ref.attribute);
    if (!value.has_value() || value->is_null()) return std::nullopt;
    return ToLower(value->ToString());
  };
  QueryResult result;
  result.columns = {join.left_binding, join.right_binding};
  std::vector<std::optional<std::string>> right_keys;
  for (const auto& r : right.rows) {
    right_keys.push_back(key(r[0], join.right_ref));
  }
  for (const auto& l : left.rows) {
    std::optional<std::string> lkey = key(l[0], join.left_ref);
    if (!lkey.has_value()) continue;
    for (size_t i = 0; i < right.rows.size(); ++i) {
      if (right_keys[i] == lkey) {
        result.rows.push_back({l[0], right.rows[i][0]});
      }
    }
  }
  std::sort(result.rows.begin(), result.rows.end());
  return result;
}

void ReferenceEvaluator::Rank(const PredNode& filter,
                              QueryResult* result) const {
  std::optional<std::vector<std::string>> phrases = KeywordPhrases(filter);
  if (!phrases.has_value() || phrases->empty() || result->rows.empty()) {
    return;
  }
  // tf-idf, accumulated per view in phrase order, then term order.
  std::map<DocId, double> score;
  for (const auto& row : result->rows) score[row[0]] = 0.0;
  const index::InvertedIndex& content = module_.content();
  const double n_docs =
      static_cast<double>(std::max<size_t>(content.doc_count(), 1));
  for (const std::string& phrase : *phrases) {
    for (const std::string& term : index::PhraseTerms(phrase)) {
      std::vector<std::pair<DocId, uint32_t>> postings =
          content.TermQueryWithTf(term);
      if (postings.empty()) continue;
      double idf =
          std::log(1.0 + n_docs / static_cast<double>(postings.size()));
      for (const auto& [doc, tf] : postings) {
        auto it = score.find(doc);
        if (it != score.end()) it->second += tf * idf;
      }
    }
  }
  std::stable_sort(result->rows.begin(), result->rows.end(),
                   [&score](const std::vector<DocId>& a,
                            const std::vector<DocId>& b) {
                     return score[a[0]] > score[b[0]];
                   });
  for (const auto& row : result->rows) result->scores.push_back(score[row[0]]);
}

Result<QueryResult> ReferenceEvaluator::Evaluate(const Query& query) const {
  switch (query.kind) {
    case Query::Kind::kFilter: {
      QueryResult result = UnaryResult(
          query.filter == nullptr ? Live() : Pred(*query.filter, Live()));
      if (query.filter != nullptr) Rank(*query.filter, &result);
      return result;
    }
    case Query::Kind::kPath: {
      return UnaryResult(Path(query.steps));
    }
    case Query::Kind::kUnion:
    case Query::Kind::kIntersect:
    case Query::Kind::kExcept: {
      IdSet acc;
      for (size_t i = 0; i < query.arms.size(); ++i) {
        IDM_ASSIGN_OR_RETURN(IdSet ids, Members(*query.arms[i]));
        if (i == 0 || query.kind == Query::Kind::kUnion) {
          acc.insert(ids.begin(), ids.end());
        } else if (query.kind == Query::Kind::kIntersect) {
          acc = Intersect(acc, ids);
        } else {
          for (DocId id : ids) acc.erase(id);
        }
      }
      return UnaryResult(acc);
    }
    case Query::Kind::kJoin:
      return Join(*query.join);
  }
  return Status::Unimplemented("unknown query kind");
}

Result<std::set<DocId>> ReferenceEvaluator::Members(const Query& query) const {
  IDM_ASSIGN_OR_RETURN(QueryResult result, Evaluate(query));
  if (result.columns.size() != 1) {
    return Status::Unimplemented("set operators over join results");
  }
  IdSet ids;
  for (const auto& row : result.rows) ids.insert(row[0]);
  return ids;
}

}  // namespace idm::iql
