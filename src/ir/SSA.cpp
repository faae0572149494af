//===- ir/SSA.cpp ------------------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ir/SSA.h"
#include "ir/Dominators.h"

#include <algorithm>
#include <vector>

namespace pinpoint::ir {

namespace {

/// Tables are indexed by variable id (`Orig` is always a pre-SSA variable,
/// so its id is below the count taken at construction) or by block id.
class SSABuilder {
public:
  SSABuilder(Function &F)
      : F(F), NumOrig(F.vars().size()), DefBlocks(NumOrig), Stacks(NumOrig),
        VersionCount(NumOrig, 0), Children(F.blockIdBound()),
        Frontier(F.blockIdBound()), PlacedPhis(F.blockIdBound()) {}

  void run() {
    computeDomTreeShape();
    collectDefs();
    placePhis();
    rename(F.entry());
    setDefPointers();
    F.renumberStmts();
  }

private:
  /// Fills Children (in reverse post-order) and Frontier (Cytron et al.)
  /// from the dominator tree, which is needed for nothing else.
  void computeDomTreeShape() {
    DomTree DT(F);
    for (BasicBlock *B : DT.rpo())
      if (BasicBlock *Dom = DT.idom(B))
        Children[Dom->id()].push_back(B);
    for (BasicBlock *B : DT.rpo()) {
      const std::vector<BasicBlock *> &In = B->preds();
      if (In.size() < 2)
        continue;
      for (BasicBlock *P : In) {
        if (!DT.idom(P) && P != DT.root())
          continue;
        BasicBlock *Runner = P;
        while (Runner && Runner != DT.idom(B)) {
          std::vector<BasicBlock *> &FR = Frontier[Runner->id()];
          if (std::find(FR.begin(), FR.end(), B) == FR.end())
            FR.push_back(B);
          Runner = DT.idom(Runner);
        }
      }
    }
  }

  void addDef(Variable *V, BasicBlock *B) {
    // Repeats are harmless (placePhis marks blocks); skip the common ones.
    std::vector<BasicBlock *> &Blocks = DefBlocks[V->id()];
    if (Blocks.empty() || Blocks.back() != B)
      Blocks.push_back(B);
  }

  bool hasDef(const Variable *V) const {
    return V->id() < NumOrig && !DefBlocks[V->id()].empty();
  }

  void collectDefs() {
    for (BasicBlock *B : F.blocks())
      for (Stmt *S : B->stmts()) {
        if (Variable *D = S->definedVar())
          addDef(D, B);
        // Calls may define several receivers.
        if (auto *Call = dyn_cast<CallStmt>(S))
          for (Variable *R : Call->auxReceivers())
            if (R)
              addDef(R, B);
      }
    // Parameters are defined at entry.
    for (Variable *P : F.params())
      addDef(P, F.entry());
  }

  void placePhis() {
    // Variables in id order: the phi sequence of a join block follows this
    // loop. Per variable, one stamp marks its defining blocks and another
    // the blocks that already have its phi.
    std::vector<uint32_t> IsDef(F.blockIdBound(), 0);
    std::vector<uint32_t> HasPhi(F.blockIdBound(), 0);
    for (uint32_t Id = 0; Id < NumOrig; ++Id) {
      const std::vector<BasicBlock *> &Blocks = DefBlocks[Id];
      if (Blocks.empty())
        continue;
      Variable *Var = F.vars()[Id];
      const uint32_t Stamp = Id + 1;
      for (BasicBlock *B : Blocks)
        IsDef[B->id()] = Stamp;
      std::vector<BasicBlock *> Work(Blocks.begin(), Blocks.end());
      while (!Work.empty()) {
        BasicBlock *B = Work.back();
        Work.pop_back();
        for (BasicBlock *D : Frontier[B->id()]) {
          if (HasPhi[D->id()] == Stamp)
            continue;
          HasPhi[D->id()] = Stamp;
          auto *Phi = F.parent()->make<PhiStmt>(Var, SourceLoc{});
          D->insertAfterPhis(Phi);
          PlacedPhis[D->id()].push_back({Phi, Var});
          if (IsDef[D->id()] != Stamp)
            Work.push_back(D);
        }
      }
    }
  }

  Variable *freshVersion(Variable *Orig) {
    int N = ++VersionCount[Orig->id()];
    // The very first version of a parameter is the parameter itself.
    if (Orig->isParam() && N == 1)
      return Orig;
    return F.createVar(Orig->type(), Orig->name() + "." + std::to_string(N));
  }

  Variable *currentVersion(Variable *Orig) {
    if (Orig->id() >= NumOrig || Stacks[Orig->id()].empty())
      return Orig; // Use before def: keep the original (unconstrained).
    return Stacks[Orig->id()].back();
  }

  Value *rewriteUse(Value *V) {
    if (auto *Var = dyn_cast<Variable>(V))
      if (hasDef(Var))
        return currentVersion(Var);
    return V;
  }

  void rename(BasicBlock *B) {
    std::vector<Variable *> Pushed;

    auto pushDef = [&](Variable *Orig) -> Variable * {
      Variable *New = freshVersion(Orig);
      Stacks[Orig->id()].push_back(New);
      Pushed.push_back(Orig);
      return New;
    };

    if (B == F.entry())
      for (Variable *P : F.params())
        pushDef(P);

    for (Stmt *S : B->stmts()) {
      switch (S->stmtKind()) {
      case Stmt::SK_Phi: {
        auto *Phi = cast<PhiStmt>(S);
        Variable *Orig = Phi->dst();
        Phi->setDst(pushDef(Orig));
        break;
      }
      case Stmt::SK_Assign: {
        auto *A = cast<AssignStmt>(S);
        A->setSrc(rewriteUse(A->src()));
        A->setDst(pushDef(A->dst()));
        break;
      }
      case Stmt::SK_BinOp: {
        auto *O = cast<BinOpStmt>(S);
        O->setLhs(rewriteUse(O->lhs()));
        O->setRhs(rewriteUse(O->rhs()));
        O->setDst(pushDef(O->dst()));
        break;
      }
      case Stmt::SK_UnOp: {
        auto *O = cast<UnOpStmt>(S);
        O->setSrc(rewriteUse(O->src()));
        O->setDst(pushDef(O->dst()));
        break;
      }
      case Stmt::SK_Load: {
        auto *L = cast<LoadStmt>(S);
        L->setAddr(rewriteUse(L->addr()));
        L->setDst(pushDef(L->dst()));
        break;
      }
      case Stmt::SK_Store: {
        auto *St = cast<StoreStmt>(S);
        St->setAddr(rewriteUse(St->addr()));
        St->setValue(rewriteUse(St->value()));
        break;
      }
      case Stmt::SK_Branch: {
        auto *Br = cast<BranchStmt>(S);
        Br->setCond(rewriteUse(Br->cond()));
        break;
      }
      case Stmt::SK_Return: {
        auto *R = cast<ReturnStmt>(S);
        for (Value *&V : R->values())
          V = rewriteUse(V);
        break;
      }
      case Stmt::SK_Call: {
        auto *C = cast<CallStmt>(S);
        for (Value *&A : C->args())
          A = rewriteUse(A);
        if (C->receiver())
          C->setReceiver(pushDef(C->receiver()));
        for (Variable *&R : C->auxReceivers())
          if (R)
            R = pushDef(R);
        break;
      }
      case Stmt::SK_Jump:
        break;
      }
    }

    // Fill phi operands of successors.
    for (BasicBlock *Succ : B->succs())
      for (auto &[Phi, Orig] : PlacedPhis[Succ->id()])
        Phi->addIncoming(B, currentVersion(Orig));

    for (BasicBlock *Child : Children[B->id()])
      rename(Child);

    for (auto It = Pushed.rbegin(); It != Pushed.rend(); ++It)
      Stacks[(*It)->id()].pop_back();
  }

  void setDefPointers() {
    for (BasicBlock *B : F.blocks())
      for (Stmt *S : B->stmts()) {
        if (Variable *D = S->definedVar())
          D->setDef(S);
        if (auto *Call = dyn_cast<CallStmt>(S))
          for (Variable *R : Call->auxReceivers())
            if (R)
              R->setDef(S);
      }
  }

  Function &F;
  const uint32_t NumOrig; ///< Variables that existed before renaming.
  /// Per pre-SSA variable: its defining blocks (none = never defined),
  /// its stack of live versions and how many versions it has had.
  std::vector<std::vector<BasicBlock *>> DefBlocks;
  std::vector<std::vector<Variable *>> Stacks;
  std::vector<int> VersionCount;
  /// Per block id: its dominator-tree children and its dominance frontier.
  std::vector<std::vector<BasicBlock *>> Children, Frontier;
  /// Per block id: the phis placePhis put there, with the variable each
  /// was placed for, in the block's phi order.
  std::vector<std::vector<std::pair<PhiStmt *, Variable *>>> PlacedPhis;
};

} // namespace

void constructSSA(Function &F) { SSABuilder(F).run(); }

} // namespace pinpoint::ir
