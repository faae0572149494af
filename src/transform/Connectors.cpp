//===- transform/Connectors.cpp ----------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "transform/Connectors.h"

#include <algorithm>

using namespace pinpoint::ir;

namespace pinpoint::transform {

namespace {

/// Orders access paths by (parameter index, level) for a deterministic
/// interface layout.
std::vector<pta::ParamPath> sortedPaths(const std::set<pta::ParamPath> &In) {
  std::vector<pta::ParamPath> Out(In.begin(), In.end());
  std::sort(Out.begin(), Out.end(),
            [](const pta::ParamPath &A, const pta::ParamPath &B) {
              if (A.first->paramIndex() != B.first->paramIndex())
                return A.first->paramIndex() < B.first->paramIndex();
              return A.second < B.second;
            });
  return Out;
}

std::string pathName(const pta::ParamPath &P, const char *Prefix) {
  return std::string(Prefix) + "$" + P.first->name() + "$" +
         std::to_string(P.second);
}

} // namespace

FunctionInterface applyInterfaceTransform(Function &F,
                                          const pta::PointsToResult &PTA) {
  return applyInterfaceTransform(F, sortedPaths(PTA.refs()),
                                 sortedPaths(PTA.mods()));
}

FunctionInterface applyInterfaceTransform(Function &F,
                                          std::vector<pta::ParamPath> RefPaths,
                                          std::vector<pta::ParamPath> ModPaths) {
  FunctionInterface I;
  Module &M = *F.parent();

  // Aux formal parameters with entry stores *(p,k) ← F, inserted in
  // ascending level order so deeper paths resolve through shallower ones.
  I.RefPaths = std::move(RefPaths);
  std::vector<Stmt *> EntryStores;
  for (const pta::ParamPath &P : I.RefPaths) {
    Type AuxTy = P.first->type().deref(P.second);
    Variable *Aux = F.addAuxParam(AuxTy, pathName(P, "F"));
    I.AuxParams.push_back(Aux);
    auto *Store = M.make<StoreStmt>(const_cast<Variable *>(P.first),
                                    static_cast<uint32_t>(P.second), Aux,
                                    SourceLoc{});
    Store->setSynthetic(true);
    EntryStores.push_back(Store);
  }
  if (!EntryStores.empty()) {
    BasicBlock *Entry = F.entry();
    for (Stmt *S : EntryStores)
      S->setParent(Entry);
    Entry->stmts().insert(Entry->stmts().begin(), EntryStores.begin(),
                          EntryStores.end());
  }

  // Aux return values with pre-return loads R ← *(q,r).
  I.ModPaths = std::move(ModPaths);
  ReturnStmt *Ret = F.returnStmt();
  assert(Ret && "function must have its unified return");
  for (const pta::ParamPath &P : I.ModPaths) {
    Type AuxTy = P.first->type().deref(P.second);
    Variable *R = F.createVar(AuxTy, pathName(P, "R"));
    I.AuxReturns.push_back(R);
    auto *Load = M.make<LoadStmt>(R, const_cast<Variable *>(P.first),
                                  static_cast<uint32_t>(P.second),
                                  SourceLoc{});
    Load->setSynthetic(true);
    F.exitBlock()->insertBeforeTerminator(Load);
    R->setDef(Load);
    Ret->addValue(R);
  }

  if (!I.RefPaths.empty() || !I.ModPaths.empty())
    F.renumberStmts();
  return I;
}

unsigned rewriteCallSites(Function &F, const CallGraph &CG,
                          const InterfaceMap &Interfaces) {
  Module &M = *F.parent();
  unsigned Rewritten = 0;

  for (BasicBlock *B : F.blocks()) {
    std::vector<Stmt *> NewStmts;
    NewStmts.reserve(B->stmts().size());
    bool Changed = false;

    for (Stmt *S : B->stmts()) {
      auto *Call = dyn_cast<CallStmt>(S);
      Function *Callee = Call ? Call->callee() : nullptr;
      if (!Call || !Callee || CG.inSameSCC(&F, Callee)) {
        NewStmts.push_back(S);
        continue;
      }
      const FunctionInterface &CI = Interfaces[Callee->id()];
      if (CI.RefPaths.empty() && CI.ModPaths.empty()) {
        NewStmts.push_back(S);
        continue;
      }
      ++Rewritten;
      Changed = true;

      // A_i ← *(u_j, k) for every Aux formal parameter of the callee.
      for (size_t Idx = 0; Idx < CI.RefPaths.size(); ++Idx) {
        const pta::ParamPath &P = CI.RefPaths[Idx];
        int ArgIdx = P.first->paramIndex();
        assert(ArgIdx >= 0 &&
               static_cast<size_t>(ArgIdx) < Call->args().size() &&
               "callee param without matching actual");
        Value *Actual = Call->args()[ArgIdx];
        Variable *A = F.createVar(CI.AuxParams[Idx]->type(),
                                  "A$" + std::to_string(Idx));
        if (Actual->type().pointerDepth() >= P.second) {
          auto *Load =
              M.make<LoadStmt>(A, Actual, static_cast<uint32_t>(P.second),
                               Call->loc());
          Load->setSynthetic(true);
          Load->setParent(B);
          A->setDef(Load);
          NewStmts.push_back(Load);
        }
        // Even for a degenerate actual (e.g. null) the argument slot must
        // exist; A stays unconstrained then.
        Call->addArg(A);
      }

      NewStmts.push_back(Call);

      // *(u_q, r) ← C_p for every Aux return value of the callee.
      for (size_t Idx = 0; Idx < CI.ModPaths.size(); ++Idx) {
        const pta::ParamPath &P = CI.ModPaths[Idx];
        int ArgIdx = P.first->paramIndex();
        Value *Actual = Call->args()[ArgIdx];
        Variable *C = F.createVar(CI.AuxReturns[Idx]->type(),
                                  "C$" + std::to_string(Idx));
        Call->addAuxReceiver(C);
        C->setDef(Call);
        if (Actual->type().pointerDepth() >= P.second) {
          auto *Store = M.make<StoreStmt>(
              Actual, static_cast<uint32_t>(P.second), C, Call->loc());
          Store->setSynthetic(true);
          Store->setParent(B);
          NewStmts.push_back(Store);
        }
      }
    }

    if (Changed)
      B->stmts() = std::move(NewStmts);
  }

  if (Rewritten)
    F.renumberStmts();
  return Rewritten;
}

} // namespace pinpoint::transform
