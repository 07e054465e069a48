#include "iql/planner.h"

#include <utility>

namespace idm::iql {

namespace {

uint16_t NewReg(PlanProgram* program) {
  return program->num_regs++;
}

uint32_t Intern(PlanProgram* program, const std::string& text) {
  for (uint32_t i = 0; i < program->strings.size(); ++i) {
    if (program->strings[i] == text) return i;
  }
  program->strings.push_back(text);
  return static_cast<uint32_t>(program->strings.size() - 1);
}

uint32_t InternLiteral(PlanProgram* program, const core::Value& value) {
  program->literals.push_back(value);
  return static_cast<uint32_t>(program->literals.size() - 1);
}

void Emit(PlanProgram* program, PlanOp op) {
  program->ops.push_back(op);
}

/// Phrases in predicate-tree order; rankable goes false on any non-keyword
/// leaf.
void CollectPhrases(const PredNode& pred, std::vector<std::string>* phrases,
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

}  // namespace

bool Planner::IsRankable(const PredNode& filter) {
  std::vector<std::string> phrases;
  bool rankable = true;
  CollectPhrases(filter, &phrases, &rankable);
  return rankable && !phrases.empty();
}

std::unique_ptr<PlanProgram> Planner::Lower(const Query& query) const {
  std::unique_ptr<PlanProgram> program = LowerQueryProgram(query);
  // Only the root program's materialization runs governed (§10 prefix
  // capture: its input ids are complete, so the rows kept when the context
  // is doomed mid-loop are a prefix): sub-program materializations
  // (set-op arms, join inputs) stay ungoverned.
  for (PlanOp& op : program->ops) {
    if (op.code == OpCode::kMaterialize) op.flags |= 1;
  }
  program->normalized = ToString(query);
  program->cache_key = CanonicalQueryKey(query);
  program->fingerprint = Fingerprint64(program->cache_key);
  return program;
}

std::unique_ptr<PlanProgram> Planner::LowerQueryProgram(
    const Query& query) const {
  auto program = std::make_unique<PlanProgram>();
  program->flavor = PlanProgram::Flavor::kQuery;
  program->kind = query.kind;
  switch (query.kind) {
    case Query::Kind::kFilter: {
      uint16_t live = NewReg(program.get());
      Emit(program.get(), {OpCode::kLoadLive, 0, live});
      uint16_t out = live;
      if (query.filter != nullptr) {
        out = LowerPred(*query.filter, live, program.get());
        bool rankable = true;
        CollectPhrases(*query.filter, &program->rank_phrases, &rankable);
        program->rankable = rankable && !program->rank_phrases.empty();
        if (!program->rankable) program->rank_phrases.clear();
      }
      Emit(program.get(), {OpCode::kMaterialize, 0, 0, out});
      if (program->rankable) {
        Emit(program.get(), {OpCode::kRankOrClear, 0});
      }
      break;
    }
    case Query::Kind::kPath: {
      uint16_t frontier = NewReg(program.get());
      std::vector<size_t> break_jumps;
      for (size_t i = 0; i < query.steps.size(); ++i) {
        const PathStep& step = query.steps[i];
        uint16_t names = NewReg(program.get());
        Emit(program.get(),
             {OpCode::kNameMatch, 0, names, 0, 0,
              Intern(program.get(), step.name_pattern)});
        if (i == 0) {
          if (step.descendant) {
            Emit(program.get(), {OpCode::kMove, 0, frontier, names});
          } else {
            uint16_t roots = NewReg(program.get());
            Emit(program.get(), {OpCode::kRootChildren, 0, roots});
            Emit(program.get(),
                 {OpCode::kIntersect, 0, frontier, roots, names});
          }
        } else if (step.descendant) {
          Emit(program.get(), {OpCode::kExpand, 0, frontier, frontier, names});
        } else {
          Emit(program.get(),
               {OpCode::kStepChild, 0, frontier, frontier, names});
        }
        if (step.predicate != nullptr) {
          uint16_t filtered =
              LowerPred(*step.predicate, frontier, program.get());
          Emit(program.get(), {OpCode::kMove, 0, frontier, filtered});
        }
        if (i + 1 < query.steps.size()) {
          break_jumps.push_back(program->ops.size());
          Emit(program.get(), {OpCode::kJumpIfEmpty, 0, 0, frontier});
        }
      }
      uint32_t end = static_cast<uint32_t>(program->ops.size());
      for (size_t pc : break_jumps) program->ops[pc].aux = end;
      Emit(program.get(), {OpCode::kMaterialize, 0, 0, frontier});
      break;
    }
    case Query::Kind::kUnion:
    case Query::Kind::kIntersect:
    case Query::Kind::kExcept: {
      uint32_t first = static_cast<uint32_t>(program->subs.size());
      for (const auto& arm : query.arms) {
        program->subs.push_back(LowerQueryProgram(*arm));
      }
      uint8_t op = query.kind == Query::Kind::kUnion       ? 0
                   : query.kind == Query::Kind::kIntersect ? 1
                                                           : 2;
      uint16_t out = NewReg(program.get());
      Emit(program.get(),
           {OpCode::kSetOp, op, out, 0,
            static_cast<uint16_t>(query.arms.size()), 0, first});
      Emit(program.get(), {OpCode::kMaterialize, 0, 0, out});
      break;
    }
    case Query::Kind::kJoin: {
      program->join = std::make_unique<JoinInfo>();
      program->join->left = LowerQueryProgram(*query.join->left);
      program->join->right = LowerQueryProgram(*query.join->right);
      program->join->left_binding = query.join->left_binding;
      program->join->right_binding = query.join->right_binding;
      program->join->left_ref = query.join->left_ref;
      program->join->right_ref = query.join->right_ref;
      Emit(program.get(), {OpCode::kJoin, 0});
      break;
    }
  }
  return program;
}

std::unique_ptr<PlanProgram> Planner::LowerPredProgram(
    const PredNode& pred) const {
  auto program = std::make_unique<PlanProgram>();
  program->flavor = PlanProgram::Flavor::kPred;
  uint16_t universe = NewReg(program.get());  // r0: seeded by the executor
  program->out_reg = LowerPred(pred, universe, program.get());
  return program;
}

uint16_t Planner::LowerPred(const PredNode& pred, uint16_t universe,
                            PlanProgram* program) const {
  switch (pred.kind) {
    case PredNode::Kind::kPhrase: {
      uint16_t out = NewReg(program);
      Emit(program, {OpCode::kPhrase, 0, out, universe, 0,
                     Intern(program, pred.text)});
      return out;
    }
    case PredNode::Kind::kCompare: {
      uint16_t out = NewReg(program);
      uint8_t flags = static_cast<uint8_t>(pred.op) |
                      static_cast<uint8_t>(pred.literal_kind) << 4;
      Emit(program, {OpCode::kTupleScan, flags, out, universe, 0,
                     Intern(program, pred.attribute),
                     InternLiteral(program, pred.literal)});
      return out;
    }
    case PredNode::Kind::kClassEq: {
      uint16_t out = NewReg(program);
      Emit(program, {OpCode::kClassFilter, 0, out, universe, 0,
                     Intern(program, pred.text)});
      return out;
    }
    case PredNode::Kind::kNameEq: {
      uint16_t names = NewReg(program);
      Emit(program,
           {OpCode::kNameMatch, 0, names, 0, 0, Intern(program, pred.text)});
      uint16_t out = NewReg(program);
      Emit(program, {OpCode::kIntersect, 0, out, names, universe});
      return out;
    }
    case PredNode::Kind::kAnd: {
      // Accumulator chain with a short-circuit: child i+1 runs only
      // while the accumulator is non-empty.
      uint16_t acc = NewReg(program);
      Emit(program, {OpCode::kMove, 0, acc, universe});
      std::vector<size_t> jumps;
      for (size_t i = 0; i < pred.children.size(); ++i) {
        uint16_t child = LowerPred(*pred.children[i], acc, program);
        Emit(program, {OpCode::kMove, 0, acc, child});
        if (i + 1 < pred.children.size()) {
          jumps.push_back(program->ops.size());
          Emit(program, {OpCode::kJumpIfEmpty, 0, 0, acc});
        }
      }
      uint32_t end = static_cast<uint32_t>(program->ops.size());
      for (size_t pc : jumps) program->ops[pc].aux = end;
      return acc;
    }
    case PredNode::Kind::kOr: {
      uint16_t acc = NewReg(program);  // registers start out empty
      for (const auto& child : pred.children) {
        uint16_t ids = LowerPred(*child, universe, program);
        Emit(program, {OpCode::kUnion, 0, acc, acc, ids});
      }
      return acc;
    }
    case PredNode::Kind::kNot: {
      uint16_t child = LowerPred(*pred.children[0], universe, program);
      uint16_t out = NewReg(program);
      Emit(program, {OpCode::kDifference, 0, out, universe, child});
      return out;
    }
  }
  return universe;
}

}  // namespace idm::iql
