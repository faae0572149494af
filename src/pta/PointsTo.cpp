//===- pta/PointsTo.cpp ------------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "pta/PointsTo.h"

#include <algorithm>

using namespace pinpoint::ir;

namespace pinpoint::pta {

namespace {

/// Memory environment: the contents of each touched object, sorted by
/// object id. A block carries only what it touched, so copying or merging
/// environments never pays for objects it did not touch.
using Env = std::vector<std::pair<const MemObject *, ValSet>>;

/// The entry of \p O in \p E, or where it belongs.
Env::iterator findEntry(Env &E, const MemObject *O) {
  return std::lower_bound(E.begin(), E.end(), O->id(),
                          [](const auto &Entry, uint32_t Id) {
                            return Entry.first->id() < Id;
                          });
}

} // namespace

class PointsToAnalysis {
public:
  PointsToAnalysis(const Function &F, SymbolMap &Syms, ConditionMap &Conds,
                   const PTAConfig &Config)
      : F(F), Syms(Syms), Conds(Conds), Ctx(Syms.context()),
        Linear(Syms.context()), Config(Config), R(F) {}

  PointsToResult run();

private:
  //===--- Condition plumbing ----------------------------------------------===

  /// Conjoins and prunes; returns null when obviously unsatisfiable.
  const smt::Expr *conj(const smt::Expr *A, const smt::Expr *B) {
    const smt::Expr *C = Ctx.mkAnd(A, B);
    ++R.CondsChecked;
    if (Config.UseLinearFilter && Linear.isObviouslyUnsat(C)) {
      ++R.CondsPruned;
      return nullptr;
    }
    return C;
  }

  template <typename T>
  static void addEntry(std::vector<CondEntry<T>> &Set, const T &Item,
                       const smt::Expr *Cond, smt::ExprContext &Ctx) {
    for (auto &E : Set)
      if (E.Item == Item) {
        E.Cond = Ctx.mkOr(E.Cond, Cond);
        return;
      }
    Set.push_back({Item, Cond});
  }

  //===--- Points-to of values ---------------------------------------------===

  const PtsSet &ptsOfVar(const Variable *V) {
    std::optional<PtsSet> &Slot = R.VarPts[V->id()];
    if (Slot)
      return *Slot;
    PtsSet &S = Slot.emplace();
    if (V->type().isPointer()) {
      // Opaque pointer (parameter, call receiver, or untracked): it points
      // to the access-path object rooted at itself, unless it is an Aux
      // formal parameter standing for *(root, k) — then to *(root, k+1).
      const AuxBinding *Aux = V->id() < Config.AuxParams.size()
                                  ? &Config.AuxParams[V->id()]
                                  : nullptr;
      if (Aux && Aux->Root)
        S.push_back({R.Objects.rootObject(Aux->Root, Aux->Level + 1),
                     Ctx.getTrue()});
      else
        S.push_back({R.Objects.rootObject(V, 1), Ctx.getTrue()});
    }
    return S;
  }

  PtsSet ptsOfValue(const Value *V) {
    if (isa<Constant>(V))
      return {}; // null / int literals point nowhere.
    return ptsOfVar(cast<Variable>(V));
  }

  /// Points-to of a memory content value.
  PtsSet ptsOfContent(const ContentVal &CV) {
    if (!CV.isInitial())
      return ptsOfValue(CV.V);
    // Initial contents: only root-path objects have known structure —
    // *(root,k)'s initial value points to *(root,k+1). Initial malloc
    // contents are undefined and point nowhere.
    const MemObject *O = CV.Origin;
    if (O->kind() == MemObject::Root && O->contentType().isPointer())
      return {{R.Objects.rootObject(O->root(), O->level() + 1),
               Ctx.getTrue()}};
    return {};
  }

  //===--- Memory environment ----------------------------------------------===

  /// The contents of \p O in \p E; the reference lives until the next
  /// object enters \p E.
  ValSet &contentsOf(Env &E, const MemObject *O) {
    auto It = findEntry(E, O);
    if (It != E.end() && It->first == O)
      return It->second;
    // Lazily materialise the initial contents.
    ValSet Init{{ContentVal{nullptr, O}, Ctx.getTrue()}};
    return E.insert(It, {O, std::move(Init)})->second;
  }

  /// Adds \p O's access path to \p Paths, kept in (parameter index,
  /// level) order.
  static void addPath(std::vector<ParamPath> &Paths, const MemObject *O) {
    auto Before = [](const ParamPath &A, const ParamPath &B) {
      return std::pair(A.first->paramIndex(), A.second) <
             std::pair(B.first->paramIndex(), B.second);
    };
    ParamPath P{O->root(), O->level()};
    auto It = std::lower_bound(Paths.begin(), Paths.end(), P, Before);
    if (It == Paths.end() || *It != P)
      Paths.insert(It, P);
  }

  /// Resolves the access path *(Base, K): returns the objects at level K
  /// with their conditions. Marks no REF/MOD itself.
  PtsSet resolvePath(Env &E, const Value *Base, uint32_t K) {
    PtsSet Objs = ptsOfValue(Base);
    for (uint32_t L = 1; L < K; ++L) {
      // Read level-L contents, then take their pointees.
      PtsSet Next;
      for (auto &[O, OC] : Objs) {
        for (auto &[CV, CC] : contentsOf(E, O)) {
          const smt::Expr *C1 = conj(OC, CC);
          if (!C1)
            continue;
          for (auto &[Child, ChC] : ptsOfContent(CV)) {
            if (const smt::Expr *C2 = conj(C1, ChC))
              addEntry(Next, Child, C2, Ctx);
          }
        }
      }
      Objs = std::move(Next);
    }
    return Objs;
  }

  /// Reads the final-level contents of *(Base, K), marking REFs for initial
  /// reads of parameter paths.
  ValSet loadPath(Env &E, const Value *Base, uint32_t K) {
    ValSet Out;
    for (auto &[O, OC] : resolvePath(E, Base, K)) {
      for (auto &[CV, CC] : contentsOf(E, O)) {
        const smt::Expr *C = conj(OC, CC);
        if (!C)
          continue;
        if (CV.isInitial() && CV.Origin->isParamPath())
          addPath(R.Refs, CV.Origin);
        addEntry(Out, CV, C, Ctx);
      }
    }
    return Out;
  }

  /// Writes \p V into *(Base, K) with strong updates where sound.
  void storePath(Env &E, const Value *Base, uint32_t K, const Value *V) {
    PtsSet Targets = resolvePath(E, Base, K);
    for (auto &[O, OC] : Targets) {
      if (O->isParamPath())
        addPath(R.Mods, O);
      ValSet &S = contentsOf(E, O);
      if (OC->isTrue() && Targets.size() == 1) {
        // Strong update: every abstract object is a single cell (arrays are
        // collapsed at the model level; the paper does the same).
        S.clear();
        S.push_back({ContentVal{V, nullptr}, Ctx.getTrue()});
        continue;
      }
      // Conditional strong update: old contents survive under ¬OC.
      const smt::Expr *NotC = Ctx.mkNot(OC);
      ValSet Updated;
      for (auto &[CV, CC] : S)
        if (const smt::Expr *C = conj(CC, NotC))
          addEntry(Updated, CV, C, Ctx);
      addEntry(Updated, ContentVal{V, nullptr}, OC, Ctx);
      S = std::move(Updated);
    }
  }

  //===--- Transfer ---------------------------------------------------------

  void transfer(Env &E, Stmt *S) {
    switch (S->stmtKind()) {
    case Stmt::SK_Assign: {
      auto *A = cast<AssignStmt>(S);
      if (A->dst()->type().isPointer())
        R.VarPts[A->dst()->id()] = ptsOfValue(A->src());
      break;
    }
    case Stmt::SK_Phi: {
      auto *Phi = cast<PhiStmt>(S);
      if (!Phi->dst()->type().isPointer())
        break;
      PtsSet Merged;
      for (auto &[Pred, V] : Phi->incoming()) {
        const smt::Expr *Gate = Conds.phiGate(Phi, Pred);
        for (auto &[O, C] : ptsOfValue(V))
          if (const smt::Expr *CC = conj(C, Gate))
            addEntry(Merged, O, CC, Ctx);
      }
      R.VarPts[Phi->dst()->id()] = std::move(Merged);
      break;
    }
    case Stmt::SK_Call: {
      auto *Call = cast<CallStmt>(S);
      if (Call->calleeName() == intrinsics::Malloc && Call->receiver()) {
        Type RecvTy = Call->receiver()->type();
        Type ContentTy =
            RecvTy.isPointer() ? RecvTy.deref() : Type::intTy();
        R.VarPts[Call->receiver()->id()] = PtsSet{
            {R.Objects.allocObject(Call, ContentTy), Ctx.getTrue()}};
      }
      // Other receivers resolve lazily as opaque roots via ptsOfVar.
      break;
    }
    case Stmt::SK_Load: {
      auto *L = cast<LoadStmt>(S);
      ValSet Deps = loadPath(E, L->addr(), L->derefs());
      if (L->dst()->type().isPointer()) {
        PtsSet Pts;
        for (auto &[CV, C] : Deps)
          for (auto &[O, OC] : ptsOfContent(CV))
            if (const smt::Expr *CC = conj(C, OC))
              addEntry(Pts, O, CC, Ctx);
        R.VarPts[L->dst()->id()] = std::move(Pts);
      }
      R.LoadDeps[F.stmtOrder(L)] = std::move(Deps);
      break;
    }
    case Stmt::SK_Store: {
      auto *St = cast<StoreStmt>(S);
      storePath(E, St->addr(), St->derefs(), St->value());
      break;
    }
    default:
      break;
    }
  }

  //===--- Merge ------------------------------------------------------------

  Env mergePreds(const BasicBlock *B, std::vector<Env> &BlockOut) {
    const auto &Preds = B->preds();
    if (Preds.empty())
      return {};
    if (Preds.size() == 1)
      return BlockOut[Preds[0]->id()];
    // Gate each predecessor's contents exactly like a phi operand, object
    // by object in id order.
    const BasicBlock *Region = Conds.domTree().idom(B);
    std::vector<const MemObject *> Touched;
    for (const BasicBlock *P : Preds)
      for (auto &[O, S] : BlockOut[P->id()])
        Touched.push_back(O);
    std::sort(Touched.begin(), Touched.end(),
              [](const MemObject *X, const MemObject *Y) {
                return X->id() < Y->id();
              });
    Touched.erase(std::unique(Touched.begin(), Touched.end()), Touched.end());
    Env Out;
    for (const MemObject *O : Touched) {
      ValSet Merged;
      for (const BasicBlock *P : Preds) {
        const smt::Expr *Gate = Ctx.mkAnd(
            Region ? Conds.reachCond(Region, P) : Ctx.getTrue(),
            Conds.edgeCond(P, B));
        Env &In = BlockOut[P->id()];
        auto It = findEntry(In, O);
        ValSet Lazy;
        const ValSet *S = &Lazy;
        if (It != In.end() && It->first == O)
          S = &It->second;
        else
          Lazy.push_back({ContentVal{nullptr, O}, Ctx.getTrue()});
        for (auto &[CV, C] : *S)
          if (const smt::Expr *CC = conj(C, Gate))
            addEntry(Merged, CV, CC, Ctx);
      }
      Out.emplace_back(O, std::move(Merged));
    }
    return Out;
  }

  const Function &F;
  SymbolMap &Syms;
  ConditionMap &Conds;
  smt::ExprContext &Ctx;
  smt::LinearSolver Linear;
  PTAConfig Config;
  PointsToResult R;
};

PointsToResult PointsToAnalysis::run() {
  // Seed parameter points-to (lazily materialised anyway, but doing it here
  // keeps VarPts complete for clients).
  for (const Variable *P : F.params())
    (void)ptsOfVar(P);

  std::vector<Env> BlockOut(F.blockIdBound());
  uint64_t Steps = 0;
  for (BasicBlock *B : reversePostOrder(F)) {
    Env E = mergePreds(B, BlockOut);
    for (Stmt *S : B->stmts()) {
      if (Config.MaxSteps > 0 && ++Steps > Config.MaxSteps) {
        R.Truncated = true;
        break;
      }
      transfer(E, S);
    }
    BlockOut[B->id()] = std::move(E);
    if (R.Truncated)
      break;
  }
  return std::move(R);
}

PointsToResult runPointsTo(const Function &F, SymbolMap &Syms,
                           ConditionMap &Conds, const PTAConfig &Config) {
  return PointsToAnalysis(F, Syms, Conds, Config).run();
}

} // namespace pinpoint::pta
