#include "iql/plan.h"

#include <algorithm>

namespace idm::iql {

namespace {

/// Canonical rendering of a predicate: same-kind and/or chains flatten
/// into one n-ary node with sorted operands (the parser builds binary
/// trees, so `a and (b and c)` and `(c and a) and b` meet here as the
/// same key); leaves render as their normalized iQL text.
void FlattenPred(const PredNode& pred, PredNode::Kind kind,
                 std::vector<std::string>* out);

std::string CanonicalPred(const PredNode& pred) {
  switch (pred.kind) {
    case PredNode::Kind::kAnd:
    case PredNode::Kind::kOr: {
      std::vector<std::string> parts;
      FlattenPred(pred, pred.kind, &parts);
      std::sort(parts.begin(), parts.end());
      std::string out =
          pred.kind == PredNode::Kind::kAnd ? "and(" : "or(";
      for (size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) out += ", ";
        out += parts[i];
      }
      out += ")";
      return out;
    }
    case PredNode::Kind::kNot:
      return "not(" + CanonicalPred(*pred.children[0]) + ")";
    default:
      return ToString(pred);
  }
}

void FlattenPred(const PredNode& pred, PredNode::Kind kind,
                 std::vector<std::string>* out) {
  if (pred.kind == kind) {
    for (const auto& child : pred.children) FlattenPred(*child, kind, out);
    return;
  }
  out->push_back(CanonicalPred(pred));
}

std::string RefKey(const JoinRef& ref) {
  std::string out = ref.binding;
  switch (ref.field) {
    case JoinRef::Field::kName: out += ".name"; break;
    case JoinRef::Field::kClass: out += ".class"; break;
    case JoinRef::Field::kTupleAttr: out += ".tuple." + ref.attribute; break;
    case JoinRef::Field::kContent: out += ".content"; break;
  }
  return out;
}

const char* CompareOpText(index::CompareOp op) {
  switch (op) {
    case index::CompareOp::kEq: return "=";
    case index::CompareOp::kNe: return "!=";
    case index::CompareOp::kLt: return "<";
    case index::CompareOp::kLe: return "<=";
    case index::CompareOp::kGt: return ">";
    case index::CompareOp::kGe: return ">=";
  }
  return "?";
}

const char* LiteralKindText(PredNode::LiteralKind kind) {
  switch (kind) {
    case PredNode::LiteralKind::kValue: return "value";
    case PredNode::LiteralKind::kYesterday: return "yesterday()";
    case PredNode::LiteralKind::kNow: return "now()";
  }
  return "?";
}

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  out += text;
  out += "\"";
  return out;
}

void ExplainInto(const PlanProgram& program, const std::string& label,
                 int indent, std::string* out) {
  std::string pad(indent, ' ');
  const char* kind = "";
  switch (program.kind) {
    case Query::Kind::kFilter: kind = "filter"; break;
    case Query::Kind::kPath: kind = "path"; break;
    case Query::Kind::kUnion: kind = "union"; break;
    case Query::Kind::kIntersect: kind = "intersect"; break;
    case Query::Kind::kExcept: kind = "except"; break;
    case Query::Kind::kJoin: kind = "join"; break;
  }
  *out += pad + label + ": " +
          (program.flavor == PlanProgram::Flavor::kPred ? "pred" : kind) +
          " regs=" + std::to_string(program.num_regs);
  if (program.flavor == PlanProgram::Flavor::kPred) {
    *out += " out=r" + std::to_string(program.out_reg);
  }
  if (program.rankable) *out += " ranked";
  *out += "\n";
  for (size_t pc = 0; pc < program.ops.size(); ++pc) {
    const PlanOp& op = program.ops[pc];
    std::string line = pad + "  " + std::to_string(pc) + ": ";
    auto dst = [&] { return "r" + std::to_string(op.dst); };
    auto ra = [&] { return "r" + std::to_string(op.a); };
    auto rb = [&] { return "r" + std::to_string(op.b); };
    switch (op.code) {
      case OpCode::kLoadLive:
        line += dst() + " = live";
        break;
      case OpCode::kRootChildren:
        line += dst() + " = root-children";
        break;
      case OpCode::kNameMatch:
        line += dst() + " = name-match " + Quoted(program.strings[op.str]);
        break;
      case OpCode::kPhrase:
        line += dst() + " = phrase " + Quoted(program.strings[op.str]) +
                " & " + ra();
        break;
      case OpCode::kTupleScan:
        line += dst() + " = tuple-scan " + program.strings[op.str] + " " +
                CompareOpText(static_cast<index::CompareOp>(op.flags & 0xF));
        if (static_cast<PredNode::LiteralKind>(op.flags >> 4) ==
            PredNode::LiteralKind::kValue) {
          line += " " + program.literals[op.aux].ToString();
        } else {
          line += std::string(" ") +
                  LiteralKindText(
                      static_cast<PredNode::LiteralKind>(op.flags >> 4));
        }
        line += " & " + ra();
        break;
      case OpCode::kClassFilter:
        line += dst() + " = class-filter " +
                Quoted(program.strings[op.str]) + " over " + ra();
        break;
      case OpCode::kIntersect:
        line += dst() + " = " + ra() + " & " + rb();
        break;
      case OpCode::kUnion:
        line += dst() + " = " + ra() + " | " + rb();
        break;
      case OpCode::kDifference:
        line += dst() + " = " + ra() + " - " + rb();
        break;
      case OpCode::kMove:
        line += dst() + " = " + ra();
        break;
      case OpCode::kJumpIfEmpty:
        line += "if-empty " + ra() + " goto " + std::to_string(op.aux);
        break;
      case OpCode::kStepChild:
        line += dst() + " = step-child frontier=" + ra() + " names=" + rb();
        break;
      case OpCode::kExpand:
        line += dst() + " = expand frontier=" + ra() + " names=" + rb();
        break;
      case OpCode::kSetOp:
        line += dst() + " = " +
                (op.flags == 0 ? "union" :
                 op.flags == 1 ? "intersect" : "except") +
                " subs[" + std::to_string(op.aux) + ".." +
                std::to_string(op.aux + op.b) + ")";
        break;
      case OpCode::kJoin:
        line += "hash-join " + RefKey(program.join->left_ref) + " = " +
                RefKey(program.join->right_ref);
        break;
      case OpCode::kMaterialize:
        line += "materialize " + ra();
        if (op.flags & 1) line += " governed";
        break;
      case OpCode::kRankOrClear:
        line += "rank-or-clear";
        break;
    }
    *out += line + "\n";
  }
  for (size_t i = 0; i < program.subs.size(); ++i) {
    ExplainInto(*program.subs[i], "sub[" + std::to_string(i) + "]",
                indent + 2, out);
  }
  if (program.join != nullptr) {
    ExplainInto(*program.join->left,
                "left (" + program.join->left_binding + ")", indent + 2, out);
    ExplainInto(*program.join->right,
                "right (" + program.join->right_binding + ")", indent + 2,
                out);
  }
}

}  // namespace

std::string CanonicalQueryKey(const Query& query) {
  switch (query.kind) {
    case Query::Kind::kFilter:
      return "filter:" +
             (query.filter == nullptr ? std::string("<empty>")
                                      : CanonicalPred(*query.filter));
    case Query::Kind::kPath: {
      std::string out = "path:";
      for (const PathStep& step : query.steps) {
        out += step.descendant ? "//" : "/";
        out += step.name_pattern.empty() ? "*" : step.name_pattern;
        if (step.predicate != nullptr) {
          out += "[" + CanonicalPred(*step.predicate) + "]";
        }
      }
      return out;
    }
    case Query::Kind::kUnion:
    case Query::Kind::kIntersect:
    case Query::Kind::kExcept: {
      std::vector<std::string> arms;
      arms.reserve(query.arms.size());
      for (const auto& arm : query.arms) {
        arms.push_back(CanonicalQueryKey(*arm));
      }
      // union/intersect commute entirely; except keeps its first arm and
      // commutes only the subtrahends (A \ B \ C == A \ C \ B).
      auto sort_from = arms.begin();
      const char* name = "union";
      if (query.kind == Query::Kind::kIntersect) {
        name = "intersect";
      } else if (query.kind == Query::Kind::kExcept) {
        name = "except";
        if (!arms.empty()) ++sort_from;
      }
      std::sort(sort_from, arms.end());
      std::string out = std::string(name) + "(";
      for (size_t i = 0; i < arms.size(); ++i) {
        if (i > 0) out += ", ";
        out += arms[i];
      }
      return out + ")";
    }
    case Query::Kind::kJoin:
      // Join output columns are ordered (left binding, right binding):
      // the arms do not commute, so the key is verbatim.
      return "join(" + CanonicalQueryKey(*query.join->left) + " as " +
             query.join->left_binding + ", " +
             CanonicalQueryKey(*query.join->right) + " as " +
             query.join->right_binding + ", " +
             RefKey(query.join->left_ref) + "=" +
             RefKey(query.join->right_ref) + ")";
  }
  return ToString(query);
}

uint64_t Fingerprint64(const std::string& key) {
  uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
  for (unsigned char c : key) {
    hash ^= c;
    hash *= 1099511628211ULL;  // FNV prime
  }
  return hash;
}

std::string ExplainProgram(const PlanProgram& program) {
  std::string out;
  ExplainInto(program, "program", 0, &out);
  return out;
}

}  // namespace idm::iql
