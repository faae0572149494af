//===- ir/Conditions.cpp -----------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ir/Conditions.h"

#include <stdexcept>

namespace pinpoint::ir {

const smt::Expr *SymbolMap::operator[](const Value *V) {
  if (const auto *C = dyn_cast<Constant>(V))
    return Ctx.getInt(C->value());
  const auto *Var = cast<Variable>(V);
  if (Var->parent()->parent() != &M)
    throw std::invalid_argument("symbol map: " + Var->name() +
                                " belongs to another module");
  std::atomic<const smt::Expr *> &Slot = Forward.slot(Var->globalId());
  if (const smt::Expr *E = Slot.load(std::memory_order_acquire))
    return E;
  return mint(Var, Slot);
}

const smt::Expr *SymbolMap::mint(const Variable *Var,
                                 std::atomic<const smt::Expr *> &Slot) {
  const smt::Expr *E =
      Var->type().isBool() ? Ctx.freshBoolVar() : Ctx.freshIntVar();
  // The reverse slot is written first; the release CAS below publishes it
  // together with E.
  std::atomic<const Variable *> &Back = Reverse.slot(E->varId());
  Back.store(Var, std::memory_order_relaxed);
  const smt::Expr *Won = nullptr;
  if (Slot.compare_exchange_strong(Won, E, std::memory_order_release,
                                   std::memory_order_acquire))
    return E;
  // Another thread published first. E was never handed out: leave it
  // unused, with no IR variable behind it.
  Back.store(nullptr, std::memory_order_relaxed);
  return Won;
}

ConditionMap::ConditionMap(const Function &F, SymbolMap &Syms)
    : Syms(Syms), Ctx(Syms.context()), DT(F), ReachCache(F.blockIdBound()),
      CDs(F.blockIdBound()) {
  computeControlDeps(F);
}

const smt::Expr *ConditionMap::edgeCond(const BasicBlock *From,
                                        const BasicBlock *To) {
  const Stmt *T = From->terminator();
  const auto *Br = dyn_cast_or_null<BranchStmt>(T);
  if (!Br || Br->trueBlock() == Br->falseBlock())
    return Ctx.getTrue();
  // Bool-typed conditions map to boolean atoms; int-typed ones (C-style
  // truthiness) become `v != 0`.
  const smt::Expr *Lit = Ctx.toBoolExpr(Syms[Br->cond()]);
  if (To == Br->trueBlock())
    return Lit;
  assert(To == Br->falseBlock() && "edge does not exist");
  return Ctx.mkNot(Lit);
}

const smt::Expr *ConditionMap::reachCond(const BasicBlock *From,
                                         const BasicBlock *To) {
  std::vector<const smt::Expr *> &Row = ReachCache[From->id()];
  if (Row.empty()) {
    // Topological propagation over the acyclic CFG (the forward RPO).
    // Blocks before From in RPO are not reached from it and get false.
    Row.assign(ReachCache.size(), nullptr);
    Row[From->id()] = Ctx.getTrue();
    for (BasicBlock *X : DT.rpo()) {
      if (Row[X->id()])
        continue;
      const smt::Expr *RC = Ctx.getFalse();
      for (BasicBlock *P : X->preds()) {
        const smt::Expr *PC = Row[P->id()];
        if (!PC || PC->isFalse())
          continue;
        RC = Ctx.mkOr(RC, Ctx.mkAnd(PC, edgeCond(P, X)));
      }
      Row[X->id()] = RC;
    }
  }
  const smt::Expr *RC = Row[To->id()];
  return RC ? RC : Ctx.getFalse();
}

const smt::Expr *ConditionMap::phiGate(const PhiStmt *Phi,
                                       const BasicBlock *Pred) {
  const BasicBlock *B = Phi->parent();
  const BasicBlock *Region = DT.idom(B);
  const smt::Expr *RC =
      Region ? reachCond(Region, Pred) : Ctx.getTrue();
  return Ctx.mkAnd(RC, edgeCond(Pred, B));
}

void ConditionMap::computeControlDeps(const Function &F) {
  // FOW: B is control dependent on branch A via successor S when B
  // post-dominates S but not A. Walk each branch edge (A -> S) up the
  // post-dominator tree from S to pdom(A), marking every node passed.
  const DomTree PDT(F, DomTree::Direction::Post);
  for (BasicBlock *A : F.blocks()) {
    const auto *Br = dyn_cast_or_null<BranchStmt>(A->terminator());
    if (!Br || Br->trueBlock() == Br->falseBlock())
      continue;
    const auto *CondVar = dyn_cast<Variable>(Br->cond());
    if (!CondVar)
      continue; // Constant condition: no real dependence.
    BasicBlock *StopAt = PDT.idom(A);
    for (bool Polarity : {true, false}) {
      BasicBlock *S = Polarity ? Br->trueBlock() : Br->falseBlock();
      BasicBlock *Runner = S;
      while (Runner && Runner != StopAt) {
        CDs[Runner->id()].push_back({CondVar, Polarity});
        Runner = PDT.idom(Runner);
      }
    }
  }
}

} // namespace pinpoint::ir
