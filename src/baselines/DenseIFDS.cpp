//===- baselines/DenseIFDS.cpp --------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "baselines/DenseIFDS.h"

#include <map>
#include <set>

using namespace pinpoint::ir;

namespace pinpoint::baselines {

namespace {

/// A fact: a variable known to hold a freed value, tagged by free site.
struct Fact {
  const Variable *V;
  uint32_t FreeSite;
  bool operator<(const Fact &O) const {
    return std::tie(V, FreeSite) < std::tie(O.V, O.FreeSite);
  }
  bool operator==(const Fact &O) const {
    return V == O.V && FreeSite == O.FreeSite;
  }
};

using FactSet = std::set<Fact>;

} // namespace

DenseResult runDenseUAF(Module &M) {
  DenseResult R;
  // Stable free-site ids (the fixpoint revisits statements).
  std::map<const Stmt *, uint32_t> SiteIds;
  auto siteId = [&](const Stmt *S) {
    auto [It, New] = SiteIds.try_emplace(S, SiteIds.size());
    (void)New;
    return It->second;
  };
  // Findings deduplicated across fixpoint iterations.
  std::set<std::pair<uint32_t, const Stmt *>> Found;

  // Dense propagation: per basic-block IN sets, iterated to fixpoint per
  // function; every statement transfers the *whole* fact set (this is the
  // dense cost: |facts| work at every program point).
  for (Function *F : M.functions()) {
    std::map<const BasicBlock *, FactSet> In;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (BasicBlock *B : reversePostOrder(*F)) {
        FactSet Cur;
        for (const BasicBlock *P : B->preds()) {
          const FactSet &PS = In[P]; // OUT == IN-at-end cached below.
          Cur.insert(PS.begin(), PS.end());
        }
        // Transfer through every statement.
        for (const Stmt *S : B->stmts()) {
          R.FactPropagations += Cur.size() + 1;
          switch (S->stmtKind()) {
          case Stmt::SK_Call: {
            const auto *Call = cast<CallStmt>(S);
            if (Call->calleeName() == intrinsics::Free &&
                !Call->args().empty()) {
              if (const auto *P = dyn_cast<Variable>(Call->args()[0]))
                Cur.insert({P, siteId(S)});
            } else if (Call->receiver() &&
                       Call->receiver()->type().isPointer()) {
              // Dense tools track every pointer value, not just freed ones.
              Cur.insert({Call->receiver(), siteId(S)});
            }
            break;
          }
          case Stmt::SK_Assign: {
            const auto *A = cast<AssignStmt>(S);
            if (const auto *Src = dyn_cast<Variable>(A->src()))
              for (const Fact &Fa : FactSet(Cur))
                if (Fa.V == Src)
                  Cur.insert({A->dst(), Fa.FreeSite});
            break;
          }
          case Stmt::SK_Phi: {
            const auto *Phi = cast<PhiStmt>(S);
            for (auto &[Pred, V] : Phi->incoming())
              if (const auto *Src = dyn_cast<Variable>(V))
                for (const Fact &Fa : FactSet(Cur))
                  if (Fa.V == Src)
                    Cur.insert({Phi->dst(), Fa.FreeSite});
            break;
          }
          case Stmt::SK_Load: {
            const auto *L = cast<LoadStmt>(S);
            if (L->dst()->type().isPointer())
              Cur.insert({L->dst(), siteId(S)});
            if (const auto *P = dyn_cast<Variable>(L->addr()))
              for (const Fact &Fa : Cur)
                if (Fa.V == P)
                  Found.insert({Fa.FreeSite, S});
            break;
          }
          case Stmt::SK_Store: {
            const auto *St = cast<StoreStmt>(S);
            if (const auto *P = dyn_cast<Variable>(St->addr()))
              for (const Fact &Fa : Cur)
                if (Fa.V == P)
                  Found.insert({Fa.FreeSite, S});
            break;
          }
          default:
            break;
          }
        }
        // Record as this block's OUT (reuse In map keyed by block).
        FactSet &Slot = In[B];
        if (Slot != Cur) {
          Slot = std::move(Cur);
          Changed = true;
        }
      }
    }
  }
  R.Findings = Found.size();
  return R;
}

} // namespace pinpoint::baselines
