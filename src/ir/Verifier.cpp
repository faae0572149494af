//===- ir/Verifier.cpp -------------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"
#include "ir/Dominators.h"

#include <algorithm>

namespace pinpoint::ir {

namespace {

void collectUses(const Stmt *S, std::vector<Value *> &Uses) {
  switch (S->stmtKind()) {
  case Stmt::SK_Assign:
    Uses.push_back(cast<AssignStmt>(S)->src());
    break;
  case Stmt::SK_Phi:
    for (auto &[BB, V] : cast<PhiStmt>(S)->incoming())
      Uses.push_back(V);
    break;
  case Stmt::SK_BinOp:
    Uses.push_back(cast<BinOpStmt>(S)->lhs());
    Uses.push_back(cast<BinOpStmt>(S)->rhs());
    break;
  case Stmt::SK_UnOp:
    Uses.push_back(cast<UnOpStmt>(S)->src());
    break;
  case Stmt::SK_Load:
    Uses.push_back(cast<LoadStmt>(S)->addr());
    break;
  case Stmt::SK_Store:
    Uses.push_back(cast<StoreStmt>(S)->addr());
    Uses.push_back(cast<StoreStmt>(S)->value());
    break;
  case Stmt::SK_Branch:
    Uses.push_back(cast<BranchStmt>(S)->cond());
    break;
  case Stmt::SK_Return:
    for (Value *V : cast<ReturnStmt>(S)->values())
      Uses.push_back(V);
    break;
  case Stmt::SK_Call:
    for (Value *V : cast<CallStmt>(S)->args())
      Uses.push_back(V);
    break;
  case Stmt::SK_Jump:
    break;
  }
}

} // namespace

std::vector<std::string> verifyFunction(const Function &F, bool ExpectSSA) {
  std::vector<std::string> Errs;
  auto err = [&](const std::string &Msg) {
    Errs.push_back(F.name() + ": " + Msg);
  };

  if (!F.entry()) {
    err("no entry block");
    return Errs;
  }

  int Returns = 0;
  for (const BasicBlock *B : F.blocks()) {
    if (B->stmts().empty() || !B->terminator()) {
      // Unreachable helper blocks may be empty; only reachable ones matter.
      bool Reachable = false;
      for (const BasicBlock *P : B->preds())
        (void)P, Reachable = true;
      if (B == F.entry() || Reachable)
        err("block " + B->name() + " lacks a terminator");
      continue;
    }
    for (const Stmt *S : B->stmts()) {
      if (S->isTerminator() && S != B->terminator())
        err("terminator in the middle of block " + B->name());
      if (S->parent() != B)
        err("statement with stale parent in " + B->name());
    }
    if (isa<ReturnStmt>(B->terminator())) {
      ++Returns;
      if (B != F.exitBlock())
        err("return outside the designated exit block");
    }
    // Phi/pred agreement.
    for (const Stmt *S : B->stmts()) {
      const auto *Phi = dyn_cast<PhiStmt>(S);
      if (!Phi)
        continue;
      if (ExpectSSA && Phi->incoming().size() != B->preds().size())
        err("phi arity mismatch in " + B->name());
      for (auto &[Pred, V] : Phi->incoming())
        if (std::find(B->preds().begin(), B->preds().end(), Pred) ==
            B->preds().end())
          err("phi incoming from non-predecessor in " + B->name());
    }
  }
  if (Returns != 1)
    err("expected exactly one return, found " + std::to_string(Returns));

  // Acyclic CFG check (paper unrolls loops once).
  {
    std::vector<uint8_t> State(F.blockIdBound(), 0); // 0 new, 1 open, 2 done.
    std::vector<std::pair<const BasicBlock *, size_t>> Stack{{F.entry(), 0}};
    State[F.entry()->id()] = 1;
    while (!Stack.empty()) {
      auto &[B, Idx] = Stack.back();
      if (Idx < B->succs().size()) {
        const BasicBlock *Next = B->succs()[Idx++];
        if (Next->parent() != &F) {
          err("edge from " + B->name() + " into another function");
          continue;
        }
        if (State[Next->id()] == 1) {
          err("CFG cycle through " + Next->name());
          State[Next->id()] = 2;
        } else if (State[Next->id()] == 0) {
          State[Next->id()] = 1;
          Stack.push_back({Next, 0});
        }
      } else {
        State[B->id()] = 2;
        Stack.pop_back();
      }
    }
  }

  if (!ExpectSSA)
    return Errs;

  // SSA: unique defs, reported in variable-id order.
  std::vector<int> DefCount(F.vars().size(), 0);
  auto countDef = [&](const Variable *D) {
    if (D->parent() == &F)
      ++DefCount[D->id()];
    else
      err("definition of " + D->name() + " from another function");
  };
  for (const BasicBlock *B : F.blocks())
    for (const Stmt *S : B->stmts()) {
      if (const Variable *D = S->definedVar())
        countDef(D);
      if (const auto *Call = dyn_cast<CallStmt>(S))
        for (const Variable *R : Call->auxReceivers())
          if (R)
            countDef(R);
    }
  for (const Variable *V : F.vars()) {
    const int N = DefCount[V->id()];
    if (N > 1)
      err("variable " + V->name() + " defined " + std::to_string(N) +
          " times");
    if (V->isParam() && N > 0)
      err("parameter " + V->name() + " redefined");
  }

  // SSA: defs dominate uses (phi uses checked at the incoming edge's pred).
  DomTree DT(F);
  for (const BasicBlock *B : F.blocks())
    for (const Stmt *S : B->stmts()) {
      std::vector<Value *> Uses;
      collectUses(S, Uses);
      for (const Value *V : Uses) {
        const auto *Var = dyn_cast<Variable>(V);
        if (!Var || Var->isParam())
          continue;
        const Stmt *Def = Var->def();
        if (!Def)
          continue; // Unconstrained placeholder; allowed.
        const BasicBlock *DefBB = Def->parent();
        if (const auto *Phi = dyn_cast<PhiStmt>(S)) {
          for (auto &[Pred, In] : Phi->incoming())
            if (In == Var && !DT.dominates(DefBB, Pred))
              err("phi operand " + Var->name() + " does not dominate edge");
        } else if (DefBB == B) {
          // Same-block: def must appear earlier.
          bool Seen = false;
          for (const Stmt *T : B->stmts()) {
            if (T == Def)
              Seen = true;
            if (T == S)
              break;
          }
          if (!Seen)
            err("use of " + Var->name() + " before its def in " + B->name());
        } else if (!DT.dominates(DefBB, B)) {
          err("def of " + Var->name() + " does not dominate use");
        }
      }
    }

  return Errs;
}

std::vector<std::string> verifyModule(const Module &M, bool ExpectSSA) {
  std::vector<std::string> Errs;
  for (const Function *F : M.functions()) {
    auto E = verifyFunction(*F, ExpectSSA);
    Errs.insert(Errs.end(), E.begin(), E.end());
  }
  return Errs;
}

} // namespace pinpoint::ir
