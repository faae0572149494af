//===- seg/SEG.cpp -----------------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "seg/SEG.h"
#include "support/Statistics.h"

#include <algorithm>
#include <memory>

using namespace pinpoint::ir;

namespace pinpoint::seg {

SEG::SEG(const Function &F, SymbolMap &Syms, ConditionMap &Conds,
         const pta::LoadDepMap &LoadDeps)
    : F(F), Syms(Syms), Conds(Conds), Ctx(Syms.context()),
      NumVars(static_cast<uint32_t>(F.vars().size())) {
  build(LoadDeps);
  freeze();
}

void SEG::addFlow(const Value *From, const Variable *To,
                  const smt::Expr *Cond, bool Direct, const Stmt *Via) {
  const auto *Var = dyn_cast<Variable>(From);
  if (!Var)
    return; // Constants do not flow.
  assert(Var->parent() == &F && To->parent() == &F && "foreign variable");
  B->FlowOut.push_back({Var->id(), {To, Cond, Direct, Via}});
  B->FlowIn.push_back({To->id(), {Var, Cond, Direct, Via}});
  ++EdgeCount;
}

void SEG::addUse(const Value *V, const Stmt *S, UseKind K, int Index) {
  if (const auto *Var = dyn_cast<Variable>(V)) {
    assert(Var->parent() == &F && "foreign variable");
    B->Uses.push_back({Var->id(), {S, K, Index}});
  }
}

namespace {
/// Packs id-tagged items into CSR form over \p N rows: a counting sort
/// that keeps each row's items in build order.
template <typename T>
void packCSR(Arena &Mem, const std::vector<std::pair<uint32_t, T>> &Items,
             size_t N, std::vector<uint8_t> &IsVertex, const uint32_t *&OffOut,
             const T *&EdgesOut) {
  uint32_t *Off = Mem.allocArray<uint32_t>(N + 1);
  std::fill(Off, Off + N + 1, 0);
  for (const auto &[Id, Item] : Items) {
    ++Off[Id + 1];
    IsVertex[Id] = 1;
  }
  for (size_t I = 0; I < N; ++I)
    Off[I + 1] += Off[I];
  T *Edges = Mem.allocArray<T>(Items.size());
  std::vector<uint32_t> Next(Off, Off + N);
  for (const auto &[Id, Item] : Items)
    Edges[Next[Id]++] = Item;
  OffOut = Off;
  EdgesOut = Edges;
}
} // namespace

const SEG::LocalDef *SEG::freezeDef(LocalDefInfo &&Info) {
  const Variable **Deps = Mem.allocArray<const Variable *>(Info.Deps.size());
  if (Deps)
    std::copy(Info.Deps.begin(), Info.Deps.end(), Deps);
  LocalDef *D = Mem.allocArray<LocalDef>(1);
  D->Constraint = Info.Constraint;
  D->Deps = Span<const Variable *>(Deps, Info.Deps.size());
  D->OpensParam = Info.OpensParam;
  D->OpenCall = Info.OpenCall;
  D->OpenRecvIndex = Info.OpenRecvIndex;
  return D;
}

void SEG::freeze() {
  std::vector<uint8_t> IsVertex(NumVars, 0);
  packCSR(Mem, B->FlowOut, NumVars, IsVertex, FlowOutOff, FlowOutE);
  packCSR(Mem, B->FlowIn, NumVars, IsVertex, FlowInOff, FlowInE);
  packCSR(Mem, B->Uses, NumVars, IsVertex, UsesOff, UsesE);
  NumVertices = static_cast<size_t>(
      std::count(IsVertex.begin(), IsVertex.end(), uint8_t(1)));

  // Freeze the precomputed load definitions into the same arena (BuildDefs
  // is in statement order, so the packed layout is deterministic).
  // Definitions queried later materialise lazily into the same storage
  // under QueryMu.
  DefByVar = Mem.allocArray<const LocalDef *>(NumVars);
  std::fill(DefByVar, DefByVar + NumVars, nullptr);
  for (auto &[V, Info] : B->BuildDefs)
    DefByVar[V->id()] = freezeDef(std::move(Info));

  B.reset();
  Counters::get().add("seg.csr-bytes",
                      static_cast<int64_t>(Mem.bytesUsed()));
}

void SEG::build(const pta::LoadDepMap &LoadDeps) {
  for (const BasicBlock *B : F.blocks()) {
    for (const Stmt *S : B->stmts()) {
      switch (S->stmtKind()) {
      case Stmt::SK_Assign: {
        const auto *A = cast<AssignStmt>(S);
        addFlow(A->src(), A->dst(), Ctx.getTrue(), /*Direct=*/true, S);
        addUse(A->src(), S, UseKind::Operand, -1);
        break;
      }
      case Stmt::SK_Phi: {
        const auto *Phi = cast<PhiStmt>(S);
        for (auto &[Pred, V] : Phi->incoming()) {
          addFlow(V, Phi->dst(), Conds.phiGate(Phi, Pred), /*Direct=*/true,
                  S);
          addUse(V, S, UseKind::Operand, -1);
        }
        break;
      }
      case Stmt::SK_BinOp: {
        const auto *O = cast<BinOpStmt>(S);
        addFlow(O->lhs(), O->dst(), Ctx.getTrue(), /*Direct=*/false, S);
        addFlow(O->rhs(), O->dst(), Ctx.getTrue(), /*Direct=*/false, S);
        addUse(O->lhs(), S, UseKind::Operand, -1);
        addUse(O->rhs(), S, UseKind::Operand, -1);
        break;
      }
      case Stmt::SK_UnOp: {
        const auto *O = cast<UnOpStmt>(S);
        addFlow(O->src(), O->dst(), Ctx.getTrue(), /*Direct=*/false, S);
        addUse(O->src(), S, UseKind::Operand, -1);
        break;
      }
      case Stmt::SK_Load: {
        const auto *L = cast<LoadStmt>(S);
        addUse(L->addr(), S, UseKind::DerefAddr, -1);
        // The load's symbolic definition comes from its dependences:
        // ∧_j (cond_j ⇒ dst = val_j); initial (opaque) contents leave the
        // destination unconstrained under their condition.
        LocalDefInfo D;
        D.Constraint = Ctx.getTrue();
        static const pta::ValSet NoDeps;
        const uint32_t Ord = F.stmtOrder(L);
        for (auto &[CV, C] : Ord < LoadDeps.size() ? LoadDeps[Ord] : NoDeps) {
          if (CV.isInitial())
            continue;
          addFlow(CV.V, L->dst(), C, /*Direct=*/true, S);
          D.Constraint = Ctx.mkAnd(
              D.Constraint, Ctx.mkImplies(C, valueEq(L->dst(), CV.V)));
          if (const auto *Var = dyn_cast<Variable>(CV.V))
            D.Deps.push_back(Var);
          for (const Variable *GV : gateIRVars(C))
            D.Deps.push_back(GV);
        }
        // `B` is the block loop variable here; `this->B` is the builder.
        this->B->BuildDefs.emplace_back(L->dst(), std::move(D));
        break;
      }
      case Stmt::SK_Store: {
        const auto *St = cast<StoreStmt>(S);
        addUse(St->addr(), S, UseKind::DerefAddr, -1);
        addUse(St->value(), S, UseKind::StoreVal, -1);
        break;
      }
      case Stmt::SK_Branch:
        addUse(cast<BranchStmt>(S)->cond(), S, UseKind::BranchCond, -1);
        break;
      case Stmt::SK_Return: {
        const auto *R = cast<ReturnStmt>(S);
        for (size_t I = 0; I < R->values().size(); ++I)
          addUse(R->values()[I], S, UseKind::RetVal, static_cast<int>(I));
        break;
      }
      case Stmt::SK_Call: {
        const auto *C = cast<CallStmt>(S);
        Calls.push_back(C);
        for (size_t I = 0; I < C->args().size(); ++I)
          addUse(C->args()[I], S, UseKind::CallArg, static_cast<int>(I));
        break;
      }
      case Stmt::SK_Jump:
        break;
      }
    }
  }
}

//===----------------------------------------------------------------------===
// Symbolic definitions
//===----------------------------------------------------------------------===

/// The boolean formula denoting \p V: bool-typed symbols directly, integer
/// symbols as (v != 0), constants folded.
const smt::Expr *SEG::boolExprOf(const Value *V) {
  const smt::Expr *E = Syms[V];
  if (E->isBool())
    return E;
  return Ctx.mkNe(E, Ctx.getInt(0));
}

const smt::Expr *SEG::valueEq(const Value *A, const Value *B) {
  const smt::Expr *EA = Syms[A];
  const smt::Expr *EB = Syms[B];
  if (EA->isBool() || EB->isBool()) {
    const smt::Expr *BA = boolExprOf(A);
    const smt::Expr *BB = boolExprOf(B);
    return Ctx.mkAnd(Ctx.mkImplies(BA, BB), Ctx.mkImplies(BB, BA));
  }
  return Ctx.mkEq(EA, EB);
}

SEG::LocalDefInfo SEG::makeLocalDef(const Variable *V) {
  LocalDefInfo D;
  D.Constraint = Ctx.getTrue();

  auto dep = [&](const Value *Val) {
    if (const auto *Var = dyn_cast<Variable>(Val))
      D.Deps.push_back(Var);
  };
  auto iff = [&](const smt::Expr *A, const smt::Expr *B) {
    return Ctx.mkAnd(Ctx.mkImplies(A, B), Ctx.mkImplies(B, A));
  };

  if (V->isParam()) {
    D.OpensParam = true;
    return D;
  }
  const Stmt *Def = V->def();
  if (!Def)
    return D; // Unconstrained placeholder.

  switch (Def->stmtKind()) {
  case Stmt::SK_Assign: {
    const auto *A = cast<AssignStmt>(Def);
    D.Constraint = valueEq(V, A->src());
    dep(A->src());
    break;
  }
  case Stmt::SK_BinOp: {
    const auto *O = cast<BinOpStmt>(Def);
    const smt::Expr *L = Syms[O->lhs()];
    const smt::Expr *R = Syms[O->rhs()];
    switch (O->op()) {
    case OpCode::Add:
    case OpCode::Sub:
    case OpCode::Mul: {
      smt::ExprKind K = O->op() == OpCode::Add   ? smt::ExprKind::Add
                        : O->op() == OpCode::Sub ? smt::ExprKind::Sub
                                                 : smt::ExprKind::Mul;
      D.Constraint = Ctx.mkEq(
          Ctx.toIntExpr(Syms[V]),
          Ctx.mkArith(K, Ctx.toIntExpr(L), Ctx.toIntExpr(R)));
      break;
    }
    case OpCode::And:
      D.Constraint =
          iff(boolExprOf(V), Ctx.mkAnd(boolExprOf(O->lhs()),
                                       boolExprOf(O->rhs())));
      break;
    case OpCode::Or:
      D.Constraint = iff(boolExprOf(V), Ctx.mkOr(boolExprOf(O->lhs()),
                                                 boolExprOf(O->rhs())));
      break;
    default: { // Comparisons.
      smt::ExprKind K;
      switch (O->op()) {
      case OpCode::Eq:
        K = smt::ExprKind::Eq;
        break;
      case OpCode::Ne:
        K = smt::ExprKind::Ne;
        break;
      case OpCode::Lt:
        K = smt::ExprKind::Lt;
        break;
      case OpCode::Le:
        K = smt::ExprKind::Le;
        break;
      case OpCode::Gt:
        K = smt::ExprKind::Gt;
        break;
      default:
        K = smt::ExprKind::Ge;
        break;
      }
      const smt::Expr *Cmp;
      if (L->isBool() || R->isBool()) {
        // Boolean comparison: only ==/!= make sense; encode via iff.
        const smt::Expr *BL = boolExprOf(O->lhs());
        const smt::Expr *BR = boolExprOf(O->rhs());
        Cmp = K == smt::ExprKind::Ne ? Ctx.mkNot(iff(BL, BR)) : iff(BL, BR);
      } else {
        Cmp = Ctx.mkCmp(K, Ctx.toIntExpr(L), Ctx.toIntExpr(R));
      }
      D.Constraint = iff(boolExprOf(V), Cmp);
      break;
    }
    }
    dep(O->lhs());
    dep(O->rhs());
    break;
  }
  case Stmt::SK_UnOp: {
    const auto *O = cast<UnOpStmt>(Def);
    if (O->op() == OpCode::Neg)
      D.Constraint = Ctx.mkEq(Syms[V], Ctx.mkNeg(Syms[O->src()]));
    else
      D.Constraint = iff(boolExprOf(V), Ctx.mkNot(boolExprOf(O->src())));
    dep(O->src());
    break;
  }
  case Stmt::SK_Phi: {
    const auto *Phi = cast<PhiStmt>(Def);
    const smt::Expr *C = Ctx.getTrue();
    for (auto &[Pred, In] : Phi->incoming()) {
      const smt::Expr *Gate = Conds.phiGate(Phi, Pred);
      C = Ctx.mkAnd(C, Ctx.mkImplies(Gate, valueEq(V, In)));
      dep(In);
      // Gate variables need their definitions too.
      for (const Variable *BV : gateIRVars(Gate))
        D.Deps.push_back(BV);
    }
    D.Constraint = C;
    break;
  }
  case Stmt::SK_Load:
    // Load definitions are precomputed during build(); reaching this means
    // the load was unreachable — leave unconstrained.
    break;
  case Stmt::SK_Call: {
    const auto *C = cast<CallStmt>(Def);
    if (C->calleeName() == intrinsics::Malloc) {
      // Fresh heap cells are non-null.
      D.Constraint = Ctx.mkNe(Syms[V], Ctx.getInt(0));
    } else {
      D.OpenCall = C;
      if (C->receiver() == V) {
        D.OpenRecvIndex = -1;
      } else {
        for (size_t I = 0; I < C->auxReceivers().size(); ++I)
          if (C->auxReceivers()[I] == V)
            D.OpenRecvIndex = static_cast<int>(I);
      }
    }
    break;
  }
  default:
    break;
  }
  return D;
}

std::vector<const Variable *> SEG::gateIRVars(const smt::Expr *E) const {
  std::vector<uint32_t> SymVars;
  Ctx.collectVars(E, SymVars);
  std::vector<const Variable *> Out;
  for (uint32_t Id : SymVars)
    if (const Variable *V = Syms.irVar(Id))
      Out.push_back(V);
  return Out;
}

const SEG::LocalDef &SEG::localDef(const Variable *V) {
  assert(V->parent() == &F && V->id() < NumVars && "not a variable of F");
  const LocalDef *&Slot = DefByVar[V->id()];
  if (!Slot)
    Slot = freezeDef(makeLocalDef(V));
  return *Slot;
}

const Closure &SEG::dd(const Variable *V) {
  // One lock per SEG: queries from concurrent checker tasks serialise on
  // this function's memo caches (the definitions, the closure memos and
  // the lazy parts of ConditionMap reached through makeLocalDef).
  std::lock_guard<std::mutex> L(QueryMu);
  return ddImpl(V);
}

const Closure &SEG::controlCond(const Stmt *S) {
  std::lock_guard<std::mutex> L(QueryMu);
  return controlCondImpl(S->parent());
}

const Closure *SEG::freezeClosure(
    const smt::Expr *C, std::vector<const Variable *> &OpenParams,
    std::vector<std::pair<const CallStmt *, int>> &OpenRecvs) {
  std::sort(OpenParams.begin(), OpenParams.end(),
            [](const Variable *A, const Variable *B) {
              return A->id() < B->id();
            });
  OpenParams.erase(std::unique(OpenParams.begin(), OpenParams.end()),
                   OpenParams.end());
  std::sort(OpenRecvs.begin(), OpenRecvs.end(),
            [this](const auto &A, const auto &B) {
              const uint32_t OA = F.stmtOrder(A.first),
                             OB = F.stmtOrder(B.first);
              return OA != OB ? OA < OB : A.second < B.second;
            });
  OpenRecvs.erase(std::unique(OpenRecvs.begin(), OpenRecvs.end()),
                  OpenRecvs.end());

  auto *Params = MemoMem.allocArray<const Variable *>(OpenParams.size());
  std::uninitialized_copy(OpenParams.begin(), OpenParams.end(), Params);
  auto *Recvs = MemoMem.allocArray<std::pair<const CallStmt *, int>>(
      OpenRecvs.size());
  std::uninitialized_copy(OpenRecvs.begin(), OpenRecvs.end(), Recvs);
  return new (MemoMem.allocArray<Closure>(1))
      Closure{C, {Params, OpenParams.size()}, {Recvs, OpenRecvs.size()}};
}

const Closure &SEG::ddImpl(const Variable *V) {
  assert(V->parent() == &F && V->id() < NumVars && "not a variable of F");
  if (!DDByVar) {
    DDByVar = MemoMem.allocArray<const Closure *>(NumVars);
    std::fill(DDByVar, DDByVar + NumVars, nullptr);
  }
  if (const Closure *Found = DDByVar[V->id()])
    return *Found;

  // Iterative closure over dependencies.
  if (VisitStamp.empty())
    VisitStamp.assign(NumVars, 0);
  const uint32_t Epoch = ++VisitEpoch;
  const smt::Expr *C = Ctx.getTrue();
  std::vector<const Variable *> OpenParams;
  std::vector<std::pair<const CallStmt *, int>> OpenRecvs;
  std::vector<const Variable *> Work{V};
  while (!Work.empty()) {
    const Variable *Cur = Work.back();
    Work.pop_back();
    if (VisitStamp[Cur->id()] == Epoch)
      continue;
    VisitStamp[Cur->id()] = Epoch;

    const LocalDef &D = localDef(Cur);
    C = Ctx.mkAnd(C, D.Constraint);
    if (D.OpensParam)
      OpenParams.push_back(Cur);
    if (D.OpenCall)
      OpenRecvs.push_back({D.OpenCall, D.OpenRecvIndex});
    for (const Variable *Dep : D.Deps)
      Work.push_back(Dep);
    // Phi constraints reference gate variables inside D.Constraint; their
    // deps were added in makeLocalDef.
  }
  return *(DDByVar[V->id()] = freezeClosure(C, OpenParams, OpenRecvs));
}

const Closure &SEG::controlCondImpl(const BasicBlock *Start) {
  if (!CDByBlock) {
    CDByBlock = MemoMem.allocArray<const Closure *>(F.blockIdBound());
    std::fill(CDByBlock, CDByBlock + F.blockIdBound(), nullptr);
  }
  if (const Closure *Found = CDByBlock[Start->id()])
    return *Found;

  const smt::Expr *C = Ctx.getTrue();
  std::vector<const Variable *> OpenParams;
  std::vector<std::pair<const CallStmt *, int>> OpenRecvs;
  std::vector<uint8_t> Visited(F.blockIdBound(), 0);
  std::vector<const BasicBlock *> Work{Start};
  while (!Work.empty()) {
    const BasicBlock *B = Work.back();
    Work.pop_back();
    if (Visited[B->id()])
      continue;
    Visited[B->id()] = 1;
    for (const ControlDep &CD : Conds.controlDeps(B)) {
      const smt::Expr *Lit = boolExprOf(CD.BranchVar);
      C = Ctx.mkAnd(C, CD.Polarity ? Lit : Ctx.mkNot(Lit));
      const Closure &Sub = ddImpl(CD.BranchVar);
      C = Ctx.mkAnd(C, Sub.C);
      OpenParams.insert(OpenParams.end(), Sub.OpenParams.begin(),
                        Sub.OpenParams.end());
      OpenRecvs.insert(OpenRecvs.end(), Sub.OpenRecvs.begin(),
                       Sub.OpenRecvs.end());
      // Walk the chain: the block defining the branch variable has its own
      // control dependences (Example 3.8).
      if (CD.BranchVar->def())
        Work.push_back(CD.BranchVar->def()->parent());
    }
  }
  return *(CDByBlock[Start->id()] = freezeClosure(C, OpenParams, OpenRecvs));
}

} // namespace pinpoint::seg
