//===- svfa/GlobalSVFA.cpp ----------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "svfa/GlobalSVFA.h"

#include "support/Arena.h"
#include "support/ResourceGovernor.h"
#include "support/Span.h"
#include "svfa/Demand.h"
#include "svfa/ReachOracle.h"

#include <algorithm>
#include <deque>
#include <set>
#include <stdexcept>

using namespace pinpoint::ir;

namespace pinpoint::svfa {

namespace {

/// A variable whose DD closure must be expanded (in a context) when the
/// final constraint is assembled.
struct VarRef {
  const Function *Fn;
  const Variable *V;
  const Context *Ctx;
  bool operator<(const VarRef &O) const {
    return std::tie(Fn, V, Ctx) < std::tie(O.Fn, O.V, O.Ctx);
  }
};

/// A call receiver whose RV summary (Equation 2) must be expanded.
struct RecvRef {
  const Function *Fn; ///< Function containing the call.
  const CallStmt *Call;
  int BundleIdx; ///< -1 primary, >=0 aux index.
  const Context *Ctx;
  bool operator<(const RecvRef &O) const {
    return std::tie(Fn, Call, BundleIdx, Ctx) <
           std::tie(O.Fn, O.Call, O.BundleIdx, O.Ctx);
  }
};

/// A condition with its unexpanded support and provenance.
struct CondBundle {
  const smt::Expr *C = nullptr;
  std::vector<VarRef> Vars;
  std::vector<RecvRef> Recvs;
  int Depth = 0;
  std::vector<std::string> Path;
};

/// One VF summary entry (paper Section 3.3.2), in the owning function's
/// symbol space (context refs relative to it).
struct VFEntry {
  const Variable *Param = nullptr; ///< VF1/VF3/VF4.
  int BundleIdx = -1;              ///< VF1 target / VF2 origin bundle index.
  CondBundle B;
  SourceLoc Loc;     ///< Source (VF2/VF3) or sink (VF4) location.
  std::string LocFn; ///< Function containing Loc (for reporting).
};

/// Mutable summary accumulator, used only while one function's VF2 (at its
/// sweep turn) or its VF1/VF3/VF4 (on first use) are being built; frozen
/// into arena-backed spans afterwards.
struct FnSummaries {
  std::vector<VFEntry> VF1, VF2, VF3, VF4;
};

/// A function's summaries: immutable spans over entries packed contiguously
/// in the engine's summary arena. VF2 is frozen at the function's sweep
/// turn; the parameter summaries VF1/VF3/VF4 stay empty until a reader
/// first needs them (`ParamsBuilt`).
struct FrozenSummaries {
  Span<VFEntry> VF1, VF2, VF3, VF4;
  /// The sweep reached the function and it did not fail: the summaries
  /// exist.
  bool Reached = false;
  bool ParamsBuilt = false;
  /// The function, or a callee whose summaries it composes, calls a
  /// SourceArgFns function. Otherwise VF3 is provably empty, so reading it
  /// never forces the parameter summaries.
  bool SourceArgCone = false;
};

/// Freezes an accumulated summary vector into the summary arena.
Span<VFEntry> freeze(Arena &A, std::vector<VFEntry> &&V) {
  const size_t N = V.size();
  const VFEntry *Base = A.allocMove(std::move(V));
  return {Base, N};
}

/// A source event inside the function being analysed.
struct SourceEvent {
  const Variable *Val;
  const Stmt *At;
  CondBundle B;
  SourceLoc Loc;
  std::string LocFn;
};

} // namespace

//===----------------------------------------------------------------------===
// Impl
//===----------------------------------------------------------------------===

class GlobalSVFA::Impl {
public:
  Impl(AnalyzedModule &AM, const checkers::CheckerSpec &Spec,
       GlobalOptions Opts, Stats &S)
      : AM(AM), Spec(Spec), Opts(Opts), S(S), Ctx(AM.context()),
        CT(AM.context(), AM.symbols()),
        Gov(Opts.Governor ? *Opts.Governor : ResourceGovernor::ungoverned()),
        Solver(AM.context(),
               smt::createDefaultSolver(
                   AM.context(),
                   smt::SolverConfig{.TimeoutMs = Gov.solverTimeoutMs()}),
               Opts.UseLinearFilter, &Gov) {}

  std::vector<Report> run();
  const smt::StagedSolver::Stats &solverStats() const {
    return Solver.stats();
  }

private:
  //===--- Small helpers ---------------------------------------------------===

  seg::SEG &segOf(const Function *F) { return *AM.info(F).Seg; }

  /// Conjoins, applying the linear-time filter inline (the engine's use of
  /// Section 3.1.1: contradictory flows die during the search, before any
  /// SMT query). With the filter disabled only constructor-level folding
  /// remains and infeasible candidates survive to the SMT stage.
  const smt::Expr *conj(const smt::Expr *A, const smt::Expr *B) {
    const smt::Expr *C = Ctx.mkAnd(A, B);
    if (C->isFalse())
      return nullptr;
    if (Opts.UseLinearFilter && Solver.linear().isObviouslyUnsat(C)) {
      ++S.LinearPruned;
      return nullptr;
    }
    return C;
  }

  /// Maps a callee return-bundle index to the call-site receiver.
  const Variable *receiverForBundle(const CallStmt *Call,
                                    const Function *Callee, int BundleIdx) {
    bool HasPrimary = !Callee->returnType().isVoid();
    if (HasPrimary && BundleIdx == 0)
      return Call->receiver();
    int AuxIdx = HasPrimary ? BundleIdx - 1 : BundleIdx;
    if (AuxIdx < 0 ||
        static_cast<size_t>(AuxIdx) >= Call->auxReceivers().size())
      return nullptr;
    return Call->auxReceivers()[AuxIdx];
  }

  /// BundleIdx for an OpenRecv pair (-1 primary / aux index).
  static int bundleIndexFor(const Function *Callee, int OpenRecvIdx) {
    bool HasPrimary = !Callee->returnType().isVoid();
    if (OpenRecvIdx == -1)
      return 0;
    return HasPrimary ? OpenRecvIdx + 1 : OpenRecvIdx;
  }

  const Value *bundleValue(const Function *Callee, int BundleIdx) {
    const ReturnStmt *Ret = Callee->returnStmt();
    if (!Ret || BundleIdx < 0 ||
        static_cast<size_t>(BundleIdx) >= Ret->values().size())
      return nullptr;
    return Ret->values()[BundleIdx];
  }

  ReachOracle &reach(const Function *F) {
    std::unique_ptr<ReachOracle> &RO = ReachCache[F->id()];
    if (!RO)
      RO = std::make_unique<ReachOracle>(*F);
    return *RO;
  }

  /// Rebases a context chain (relative to a callee) onto \p Base.
  const Context *rebase(const Context *C, const Context *Base) {
    if (!C)
      return Base;
    return CT.push(rebase(C->Parent, Base), C->Site);
  }

  /// Instantiates a callee-space CondBundle at a call site.
  bool instantiateBundle(const CondBundle &In, const Function *Callee,
                         const Context *CallCtx, CondBundle &Out) {
    const smt::Expr *C = CT.instantiate(In.C, Callee, CallCtx);
    const smt::Expr *Merged = conj(Out.C, C);
    if (!Merged)
      return false;
    Out.C = Merged;
    for (const VarRef &R : In.Vars)
      Out.Vars.push_back({R.Fn, R.V, rebase(R.Ctx, CallCtx)});
    for (const RecvRef &R : In.Recvs)
      Out.Recvs.push_back({R.Fn, R.Call, R.BundleIdx, rebase(R.Ctx, CallCtx)});
    Out.Depth = std::max(Out.Depth, In.Depth + 1);
    // Path traces are for reporting only; cap them so deep call DAGs do
    // not drag ever-growing string vectors through the search.
    for (const std::string &P : In.Path) {
      if (Out.Path.size() >= 16)
        break;
      Out.Path.push_back(P);
    }
    return true;
  }

  /// Folds a DD/CD closure (function-local, top context) into a bundle.
  bool foldClosure(CondBundle &B, const Function *F, const seg::Closure &D) {
    const smt::Expr *Merged = conj(B.C, D.C);
    if (!Merged)
      return false;
    B.C = Merged;
    // Open params of the *top* function stay open (unconstrained).
    for (auto &[Call, Idx] : D.OpenRecvs)
      B.Recvs.push_back({F, Call, Idx, nullptr});
    return true;
  }

  //===--- Value closure ----------------------------------------------------

  /// The values reached from \p Start with their conditions, in variable-id
  /// order.
  std::vector<std::pair<const Variable *, CondBundle>>
  valueClosure(const Function *F, const Variable *Start,
               const CondBundle &StartB);

  //===--- Summary access ---------------------------------------------------

  /// The summaries \p F applies at a call to \p Callee, or nullptr when
  /// there are none: an unresolved or same-SCC callee (intra-SCC calls are
  /// opaque), or one the sweep did not reach, skipped or isolated.
  const FrozenSummaries *calleeSummaries(const Function *F,
                                         const Function *Callee) const {
    if (!Callee || AM.callGraph().inSameSCC(F, Callee))
      return nullptr;
    const FrozenSummaries &CS = Summaries[Callee->id()];
    return CS.Reached ? &CS : nullptr;
  }

  /// Like `calleeSummaries`, with the callee's VF1/VF3/VF4 built first.
  const FrozenSummaries *calleeParamSummaries(const Function *F,
                                              const Function *Callee) {
    const FrozenSummaries *CS = calleeSummaries(F, Callee);
    if (CS && !CS->ParamsBuilt) {
      buildParamCone(Callee);
      CS = calleeSummaries(F, Callee); // A failed build cleared the entry.
    }
    return CS;
  }

  void buildParamCone(const Function *Root);
  void buildParams(const Function *F);
  void isolate(const Function *F, const std::exception &Ex);

  //===--- Per-function analysis --------------------------------------------

  void analyzeFunction(const Function *F);
  void paramSummaries(const Function *F, FnSummaries &Sum);
  std::vector<SourceEvent> collectEvents(const Function *F);
  void processEvent(const Function *F, const SourceEvent &Ev,
                    FnSummaries &Sum);

  //===--- Candidates -------------------------------------------------------

  void addCandidate(const Function *F, const SourceEvent &Ev,
                    const CondBundle &B, SourceLoc SinkLoc,
                    const std::string &SinkFn);
  const smt::Expr *assemble(const CondBundle &B);

  AnalyzedModule &AM;
  const checkers::CheckerSpec Spec; // By value: callers often pass temporaries.
  GlobalOptions Opts;
  Stats &S;
  smt::ExprContext &Ctx;
  ContextTable CT;
  ResourceGovernor &Gov;
  smt::StagedSolver Solver;

  /// Finished summaries: spans into SumArena (declared first so the spans
  /// never dangle). The arena is unreported to the MemStats arena ledger —
  /// summary memory was never governed before and stays ungoverned, just
  /// packed contiguously now instead of spread over per-function vectors.
  Arena SumArena{/*Reported=*/false};
  /// Indexed by function id, like ReachCache.
  std::vector<FrozenSummaries> Summaries;
  /// Per condensation node: the parameter summaries of every member with
  /// summaries are built (or being built by the current cone request).
  std::vector<bool> SCCParamsBuilt;
  std::vector<std::unique_ptr<ReachOracle>> ReachCache;
  /// Visited marks of the open value-closure walks, one level per walk: a
  /// first-use cone build runs closures while its reader's walk is still
  /// open. A variable is visited when its stamp equals the level's epoch.
  /// A deque, so opening a level never moves an open one.
  struct ClosureLevel {
    std::vector<uint32_t> Stamp;
    uint32_t Epoch = 0;
  };
  std::deque<ClosureLevel> ClosureLevels;
  size_t OpenClosures = 0;
  std::vector<Report> Reports;
  /// Surviving (source fn, sink fn, source line, sink line) keys.
  std::set<std::tuple<std::string, std::string, uint32_t, uint32_t>> Reported;
};

//===----------------------------------------------------------------------===
// Value closure
//===----------------------------------------------------------------------===

std::vector<std::pair<const Variable *, CondBundle>>
GlobalSVFA::Impl::valueClosure(const Function *F, const Variable *Start,
                               const CondBundle &StartB) {
  seg::SEG &Seg = segOf(F);
  if (ClosureLevels.size() == OpenClosures)
    ClosureLevels.emplace_back();
  ClosureLevel &Level = ClosureLevels[OpenClosures++];
  struct CloseLevel {
    size_t &Open;
    ~CloseLevel() { --Open; }
  } Closer{OpenClosures};
  if (Level.Stamp.size() < F->vars().size())
    Level.Stamp.resize(F->vars().size(), 0);
  const uint32_t Epoch = ++Level.Epoch;
  auto visited = [&](const Variable *V) {
    return Level.Stamp[V->id()] == Epoch;
  };
  std::vector<std::pair<const Variable *, CondBundle>> Result;
  std::vector<std::pair<const Variable *, CondBundle>> Work{{Start, StartB}};

  auto describe = [&](const Variable *V) {
    return F->name() + "::" + V->name();
  };

  Gov.beginClosure();
  uint64_t WalkSteps = 0;
  while (!Work.empty()) {
    // Cooperative cancellation: a cancelled run keeps whatever the closure
    // found so far (silent — the run-level Cancelled event is logged once
    // by the driving loop, not per closure).
    if (Gov.cancelled())
      break;
    // Graceful truncation: past the step budget (or the function's wall
    // clock) the closure computed so far is returned as-is — a best-effort
    // under-approximation, logged so the degradation is visible.
    if (!Gov.chargeClosureStep()) {
      Gov.note(DegradationKind::ClosureTruncated, "closure", F->name(),
               describe(Start) + " truncated after " +
                   std::to_string(WalkSteps) + " steps");
      break;
    }
    if (Gov.functionExpired()) {
      Gov.note(DegradationKind::FunctionBudgetExceeded, "closure", F->name(),
               describe(Start) + ": function wall clock expired");
      break;
    }
    ++WalkSteps;
    auto [V, B] = std::move(Work.back());
    Work.pop_back();
    if (visited(V))
      continue; // First-visit condition wins (see header comment).
    Level.Stamp[V->id()] = Epoch;
    Result.emplace_back(V, B);
    ++S.ClosureSteps;

    // A step along a flow edge: conjoin the edge condition, the control
    // dependence of the mediating statement (Equation 1's CD terms), and —
    // for direct edges — the value equality.
    auto step = [&](const Variable *Next, const seg::FlowEdge &E) {
      if (visited(Next))
        return;
      CondBundle NB = B;
      const smt::Expr *C = conj(NB.C, E.Cond);
      if (!C)
        return;
      NB.C = C;
      for (const Variable *GV : Seg.gateIRVars(E.Cond))
        NB.Vars.push_back({F, GV, nullptr});
      if (E.Via) {
        const seg::Closure &CD = Seg.controlCond(E.Via);
        if (!foldClosure(NB, F, CD))
          return;
      }
      if (E.Direct) {
        NB.C = conj(NB.C, Ctx.mkValueEq(Seg.symbol(V), Seg.symbol(Next)));
        if (!NB.C)
          return;
      }
      if (NB.Path.size() < 16)
        NB.Path.push_back(describe(Next));
      Work.push_back({Next, std::move(NB)});
    };

    for (const seg::FlowEdge &E : Seg.flowsOut(V))
      if (E.Direct || Spec.FlowThroughOperators)
        step(E.To, E);
    for (const seg::FlowEdge &E : Seg.flowsIn(V))
      if (E.Direct || Spec.FlowThroughOperators)
        step(E.To, E); // FlowIn stores the source var in To.

    // VF1 hops: the value enters a callee and returns.
    for (const seg::Use &U : Seg.usesOf(V)) {
      if (U.Kind != seg::UseKind::CallArg)
        continue;
      const auto *Call = cast<CallStmt>(U.S);
      const Function *Callee = Call->callee();
      const FrozenSummaries *CS = calleeParamSummaries(F, Callee);
      if (!CS)
        continue;
      for (const VFEntry &E : CS->VF1) {
        if (E.Param->paramIndex() != U.Index ||
            E.B.Depth + 1 > Opts.MaxContextDepth)
          continue;
        const Variable *Recv = receiverForBundle(Call, Callee, E.BundleIdx);
        if (!Recv || visited(Recv))
          continue;
        const Context *CallCtx = CT.push(nullptr, Call);
        CondBundle NB = B;
        if (!instantiateBundle(E.B, Callee, CallCtx, NB))
          continue;
        // Receiver equals the callee's returned bundle value.
        const Value *RetVal = bundleValue(Callee, E.BundleIdx);
        if (RetVal) {
          NB.C = conj(NB.C, Ctx.mkValueEq(
                                Seg.symbol(Recv),
                                CT.symbolIn(RetVal, Callee, CallCtx)));
          if (!NB.C)
            continue;
          if (const auto *RV = dyn_cast<Variable>(RetVal))
            NB.Vars.push_back({Callee, RV, CallCtx});
        }
        if (NB.Path.size() < 16)
          NB.Path.push_back("through " + Callee->name() + "()");
        Work.push_back({Recv, std::move(NB)});
      }
    }

    // Backward VF1 hop: V is a receiver — the value may have come from an
    // actual argument through the callee.
    if (const auto *Call = dyn_cast_or_null<CallStmt>(
            V->isParam() ? nullptr : V->def())) {
      const Function *Callee = Call->callee();
      int BundleIdx = -1;
      if (calleeSummaries(F, Callee)) {
        bool HasPrimary = !Callee->returnType().isVoid();
        if (Call->receiver() == V && HasPrimary)
          BundleIdx = 0;
        for (size_t I = 0; I < Call->auxReceivers().size(); ++I)
          if (Call->auxReceivers()[I] == V)
            BundleIdx = static_cast<int>(I) + (HasPrimary ? 1 : 0);
      }
      const FrozenSummaries *CS =
          BundleIdx >= 0 ? calleeParamSummaries(F, Callee) : nullptr;
      for (const VFEntry &E : CS ? CS->VF1 : Span<VFEntry>()) {
        if (E.BundleIdx != BundleIdx || E.B.Depth + 1 > Opts.MaxContextDepth)
          continue;
        int ArgIdx = E.Param->paramIndex();
        if (ArgIdx < 0 || static_cast<size_t>(ArgIdx) >= Call->args().size())
          continue;
        const auto *Actual = dyn_cast<Variable>(Call->args()[ArgIdx]);
        if (!Actual || visited(Actual))
          continue;
        const Context *CallCtx = CT.push(nullptr, Call);
        CondBundle NB = B;
        if (!instantiateBundle(E.B, Callee, CallCtx, NB))
          continue;
        if (NB.Path.size() < 16)
          NB.Path.push_back("back through " + Callee->name() + "()");
        Work.push_back({Actual, std::move(NB)});
      }
    }
  }
  std::sort(Result.begin(), Result.end(), [](const auto &A, const auto &B) {
    return A.first->id() < B.first->id();
  });
  return Result;
}

//===----------------------------------------------------------------------===
// Per-function analysis
//===----------------------------------------------------------------------===

void GlobalSVFA::Impl::paramSummaries(const Function *F, FnSummaries &Sum) {
  seg::SEG &Seg = segOf(F);
  for (const Variable *P : F->params()) {
    CondBundle Start;
    Start.C = Ctx.getTrue();
    Start.Path = {F->name() + "::" + P->name()};
    auto CL = valueClosure(F, P, Start);
    for (auto &[V, B] : CL) {
      for (const seg::Use &U : Seg.usesOf(V)) {
        // Local sink: VF4. A use may be sink *and* source (double free's
        // free() call), so fall through afterwards.
        if (Spec.isSinkUse(U)) {
          CondBundle NB = B;
          if (foldClosure(NB, F, Seg.controlCond(U.S))) {
            Sum.VF4.push_back({P, -1, NB, U.S->loc(), F->name()});
            ++S.VF4;
          }
        }
        // Return: VF1.
        if (U.Kind == seg::UseKind::RetVal) {
          Sum.VF1.push_back({P, U.Index, B, U.S->loc(), F->name()});
          ++S.VF1;
          continue;
        }
        if (U.Kind != seg::UseKind::CallArg)
          continue;
        const auto *Call = cast<CallStmt>(U.S);
        // Local source call: VF3 (the parameter's value is source-marked,
        // e.g. freed).
        if (U.Index == 0 && Spec.SourceArgFns.count(Call->calleeName())) {
          CondBundle NB = B;
          if (!foldClosure(NB, F, Seg.controlCond(Call)))
            continue;
          Sum.VF3.push_back({P, -1, NB, Call->loc(), F->name()});
          ++S.VF3;
          continue;
        }
        // Composition through callee VF3/VF4.
        const Function *Callee = Call->callee();
        const FrozenSummaries *CS = calleeParamSummaries(F, Callee);
        if (!CS)
          continue;
        const Context *CallCtx = CT.push(nullptr, Call);
        for (const VFEntry &E : CS->VF3) {
          if (E.Param->paramIndex() != U.Index ||
              E.B.Depth + 1 > Opts.MaxContextDepth)
            continue;
          CondBundle NB = B;
          if (!instantiateBundle(E.B, Callee, CallCtx, NB))
            continue;
          if (!foldClosure(NB, F, Seg.controlCond(Call)))
            continue;
          Sum.VF3.push_back({P, -1, NB, E.Loc, E.LocFn});
          ++S.VF3;
        }
        for (const VFEntry &E : CS->VF4) {
          if (E.Param->paramIndex() != U.Index ||
              E.B.Depth + 1 > Opts.MaxContextDepth)
            continue;
          CondBundle NB = B;
          if (!instantiateBundle(E.B, Callee, CallCtx, NB))
            continue;
          if (!foldClosure(NB, F, Seg.controlCond(Call)))
            continue;
          Sum.VF4.push_back({P, -1, NB, E.Loc, E.LocFn});
          ++S.VF4;
        }
      }
    }
  }
}

std::vector<SourceEvent>
GlobalSVFA::Impl::collectEvents(const Function *F) {
  std::vector<SourceEvent> Events;
  seg::SEG &Seg = segOf(F);

  // Null-constant assignments as sources (the null-deref extension).
  if (Spec.NullConstIsSource) {
    for (const BasicBlock *B : F->blocks())
      for (const Stmt *St : B->stmts()) {
        const auto *A = dyn_cast<AssignStmt>(St);
        if (!A || A->isSynthetic())
          continue;
        const auto *C = dyn_cast<Constant>(A->src());
        if (!C || !C->isNull())
          continue;
        SourceEvent Ev;
        Ev.Val = A->dst();
        Ev.At = A;
        Ev.B.C = Ctx.getTrue();
        Ev.Loc = A->loc();
        Ev.LocFn = F->name();
        Ev.B.Path = {"null at " + F->name() + ":" + A->loc().str()};
        if (foldClosure(Ev.B, F, Seg.controlCond(A)))
          Events.push_back(std::move(Ev));
      }
  }
  for (const CallStmt *Call : Seg.calls()) {
    // Direct sources.
    if (auto Src = Spec.sourceOf(Call)) {
      SourceEvent Ev;
      Ev.Val = *Src;
      Ev.At = Call;
      Ev.B.C = Ctx.getTrue();
      Ev.Loc = Call->loc();
      Ev.LocFn = F->name();
      Ev.B.Path = {"source at " + F->name() + ":" + Call->loc().str()};
      if (foldClosure(Ev.B, F, Seg.controlCond(Call)))
        Events.push_back(std::move(Ev));
    }
    // Sources surfacing from callees. VF3 is read (and so built) only
    // where it can be non-empty.
    const Function *Callee = Call->callee();
    const FrozenSummaries *CS = calleeSummaries(F, Callee);
    if (CS && CS->SourceArgCone)
      CS = calleeParamSummaries(F, Callee);
    if (!CS)
      continue;
    const Context *CallCtx = CT.push(nullptr, Call);
    for (const VFEntry &E : CS->VF3) {
      if (E.B.Depth + 1 > Opts.MaxContextDepth)
        continue;
      int ArgIdx = E.Param->paramIndex();
      if (ArgIdx < 0 || static_cast<size_t>(ArgIdx) >= Call->args().size())
        continue;
      const auto *Actual = dyn_cast<Variable>(Call->args()[ArgIdx]);
      if (!Actual)
        continue;
      SourceEvent Ev;
      Ev.Val = Actual;
      Ev.At = Call;
      Ev.B.C = Ctx.getTrue();
      Ev.Loc = E.Loc;
      Ev.LocFn = E.LocFn;
      if (!instantiateBundle(E.B, Callee, CallCtx, Ev.B))
        continue;
      if (!foldClosure(Ev.B, F, Seg.controlCond(Call)))
        continue;
      Events.push_back(std::move(Ev));
    }
    for (const VFEntry &E : CS->VF2) {
      if (E.B.Depth + 1 > Opts.MaxContextDepth)
        continue;
      const Variable *Recv = receiverForBundle(Call, Callee, E.BundleIdx);
      if (!Recv)
        continue;
      SourceEvent Ev;
      Ev.Val = Recv;
      Ev.At = Call;
      Ev.B.C = Ctx.getTrue();
      Ev.Loc = E.Loc;
      Ev.LocFn = E.LocFn;
      if (!instantiateBundle(E.B, Callee, CallCtx, Ev.B))
        continue;
      if (!foldClosure(Ev.B, F, Seg.controlCond(Call)))
        continue;
      // Receiver carries the callee's returned source value.
      const Value *RetVal = bundleValue(Callee, E.BundleIdx);
      if (RetVal) {
        Ev.B.C = conj(Ev.B.C, Ctx.mkValueEq(
                                  Seg.symbol(Recv),
                                  CT.symbolIn(RetVal, Callee, CallCtx)));
        if (!Ev.B.C)
          continue;
        if (const auto *RV = dyn_cast<Variable>(RetVal))
          Ev.B.Vars.push_back({Callee, RV, CallCtx});
      }
      Events.push_back(std::move(Ev));
    }
  }
  return Events;
}

void GlobalSVFA::Impl::processEvent(const Function *F, const SourceEvent &Ev,
                                    FnSummaries &Sum) {
  ++S.Events;
  seg::SEG &Seg = segOf(F);
  ReachOracle &RO = reach(F);
  auto CL = valueClosure(F, Ev.Val, Ev.B);

  for (auto &[V, B] : CL) {
    for (const seg::Use &U : Seg.usesOf(V)) {
      bool InOrder = !Spec.TemporalOrder || RO.reaches(Ev.At, U.S);
      // Local sink.
      if (Spec.isSinkUse(U) && U.S != Ev.At && InOrder) {
        CondBundle NB = B;
        if (!foldClosure(NB, F, Seg.controlCond(U.S)))
          continue;
        addCandidate(F, Ev, NB, U.S->loc(), F->name());
        continue;
      }
      // Source escapes through the return bundle: VF2.
      if (U.Kind == seg::UseKind::RetVal) {
        VFEntry E;
        E.BundleIdx = U.Index;
        E.B = B;
        E.Loc = Ev.Loc;
        E.LocFn = Ev.LocFn;
        Sum.VF2.push_back(std::move(E));
        ++S.VF2;
        continue;
      }
      // Sink inside a callee: VF4 composition.
      if (U.Kind == seg::UseKind::CallArg && InOrder) {
        const auto *Call = cast<CallStmt>(U.S);
        const Function *Callee = Call->callee();
        const FrozenSummaries *CS = calleeParamSummaries(F, Callee);
        if (!CS)
          continue;
        const Context *CallCtx = CT.push(nullptr, Call);
        for (const VFEntry &E : CS->VF4) {
          if (E.Param->paramIndex() != U.Index ||
              E.B.Depth + 1 > Opts.MaxContextDepth)
            continue;
          CondBundle NB = B;
          if (!instantiateBundle(E.B, Callee, CallCtx, NB))
            continue;
          if (!foldClosure(NB, F, Seg.controlCond(Call)))
            continue;
          addCandidate(F, Ev, NB, E.Loc, E.LocFn);
        }
      }
    }
  }
}

void GlobalSVFA::Impl::analyzeFunction(const Function *F) {
  // The sweep turn: source events and VF2. Accumulate into a local vector,
  // freeze into the summary arena at the end. A throw mid-analysis simply
  // drops the partial accumulator — Summaries never holds a half-built
  // entry (isolate()'s reset is then a no-op), and callers only ever observe
  // frozen, immutable spans. VF1/VF3/VF4 wait for their first reader.
  FnSummaries Sum;
  for (const SourceEvent &Ev : collectEvents(F)) {
    if (Gov.functionExpired()) {
      Gov.note(DegradationKind::FunctionBudgetExceeded, "svfa", F->name(),
               "remaining source events skipped");
      break;
    }
    processEvent(F, Ev, Sum);
  }
  FrozenSummaries FS;
  FS.Reached = true;
  FS.VF2 = freeze(SumArena, std::move(Sum.VF2));
  for (const CallStmt *Call : segOf(F).calls()) {
    const FrozenSummaries *CS = calleeSummaries(F, Call->callee());
    if (Spec.SourceArgFns.count(Call->calleeName()) ||
        (CS && CS->SourceArgCone)) {
      FS.SourceArgCone = true;
      break;
    }
  }
  Summaries[F->id()] = FS;
}

void GlobalSVFA::Impl::buildParamCone(const Function *Root) {
  // Root's callee cone over the condensation, minus the SCCs already
  // built, collected with an explicit worklist (call chains can be far
  // deeper than the stack) and built in ascending SCC id: callees first,
  // so every summary a member composes with exists before it is read and
  // no build ever starts another.
  const ir::CallGraph &CG = AM.callGraph();
  const auto &SCCs = CG.sccs();
  std::vector<uint32_t> Cone;
  std::vector<uint32_t> Work{static_cast<uint32_t>(CG.sccOf(Root))};
  while (!Work.empty()) {
    uint32_t Id = Work.back();
    Work.pop_back();
    if (SCCParamsBuilt[Id])
      continue;
    SCCParamsBuilt[Id] = true;
    Cone.push_back(Id);
    for (uint32_t Callee : SCCs[Id].CalleeSCCs)
      if (!SCCParamsBuilt[Callee])
        Work.push_back(Callee);
  }
  std::sort(Cone.begin(), Cone.end());
  // The reader is mid-walk: each built function runs under its own
  // function clock, and the reader's clock and closure budget resume after.
  ResourceGovernor::NestedUnit Reader(Gov);
  for (uint32_t Id : Cone)
    for (const Function *G : SCCs[Id].Members)
      buildParams(G);
}

void GlobalSVFA::Impl::buildParams(const Function *F) {
  if (!Summaries[F->id()].Reached)
    return; // Not reached, skipped or isolated by the sweep.
  Gov.beginFunction();
  try {
    FnSummaries Sum;
    paramSummaries(F, Sum);
    FrozenSummaries &FS = Summaries[F->id()];
    FS.VF1 = freeze(SumArena, std::move(Sum.VF1));
    FS.VF3 = freeze(SumArena, std::move(Sum.VF3));
    FS.VF4 = freeze(SumArena, std::move(Sum.VF4));
    FS.ParamsBuilt = true;
  } catch (const std::exception &Ex) {
    isolate(F, Ex);
  }
}

void GlobalSVFA::Impl::isolate(const Function *F, const std::exception &Ex) {
  // Fault isolation: one function's failure must not lose the reports and
  // summaries of every other function. The failed function's summaries
  // are discarded; reports already emitted stand.
  Summaries[F->id()] = FrozenSummaries();
  ++S.IsolatedFailures;
  Gov.note(DegradationKind::FunctionFailed, "svfa", F->name(), Ex.what());
}

//===----------------------------------------------------------------------===
// Candidates & constraint assembly (Equations 1-3)
//===----------------------------------------------------------------------===

const smt::Expr *GlobalSVFA::Impl::assemble(const CondBundle &B) {
  const smt::Expr *Acc = B.C;
  std::set<VarRef> SeenVars;
  std::set<RecvRef> SeenRecvs;
  std::vector<VarRef> VarWork(B.Vars.begin(), B.Vars.end());
  std::vector<RecvRef> RecvWork(B.Recvs.begin(), B.Recvs.end());

  while (!VarWork.empty() || !RecvWork.empty()) {
    if (!VarWork.empty()) {
      VarRef R = VarWork.back();
      VarWork.pop_back();
      if (!SeenVars.insert(R).second)
        continue;
      const seg::Closure &D = segOf(R.Fn).dd(R.V);
      Acc = Ctx.mkAnd(Acc, CT.instantiate(D.C, R.Fn, R.Ctx));
      for (const Variable *P : D.OpenParams) {
        if (!R.Ctx)
          continue; // Top-level params stay open.
        if (P->paramIndex() < 0 ||
            static_cast<size_t>(P->paramIndex()) >= R.Ctx->Site->args().size())
          continue;
        const auto *Actual =
            dyn_cast<Variable>(R.Ctx->Site->args()[P->paramIndex()]);
        if (!Actual)
          continue;
        const Function *Caller = R.Ctx->Site->parent()->parent();
        VarWork.push_back({Caller, Actual, R.Ctx->Parent});
      }
      for (auto &[Call, Idx] : D.OpenRecvs)
        RecvWork.push_back({R.Fn, Call, Idx, R.Ctx});
      continue;
    }

    RecvRef R = RecvWork.back();
    RecvWork.pop_back();
    if (!SeenRecvs.insert(R).second)
      continue;
    if (ContextTable::depth(R.Ctx) + 1 > Opts.MaxContextDepth)
      continue; // Beyond the depth limit: leave unconstrained (soundy).
    const Function *Caller = R.Call->parent()->parent();
    const Function *Callee = R.Call->callee();
    if (!calleeSummaries(Caller, Callee))
      continue;
    int BundleIdx = bundleIndexFor(Callee, R.BundleIdx);
    const Variable *Recv = receiverForBundle(R.Call, Callee, BundleIdx);
    const Value *RetVal = bundleValue(Callee, BundleIdx);
    if (!Recv || !RetVal)
      continue;
    const Context *ChildCtx = CT.push(R.Ctx, R.Call);
    // RV summary (Equation 2): receiver equals the callee's return value,
    // whose own constraints are expanded in the child context.
    Acc = Ctx.mkAnd(Acc, Ctx.mkValueEq(CT.symbolIn(Recv, R.Fn, R.Ctx),
                                       CT.symbolIn(RetVal, Callee, ChildCtx)));
    if (const auto *RV = dyn_cast<Variable>(RetVal))
      VarWork.push_back({Callee, RV, ChildCtx});
  }
  return Acc;
}

void GlobalSVFA::Impl::addCandidate(const Function *F, const SourceEvent &Ev,
                                    const CondBundle &B, SourceLoc SinkLoc,
                                    const std::string &SinkFn) {
  (void)F;
  // Separate fields: concatenated names would make source `a` with sink
  // `bc` collide with source `ab` with sink `c`.
  auto Key = std::make_tuple(Ev.LocFn, SinkFn, Ev.Loc.Line, SinkLoc.Line);
  // Deduplicate only *surviving* reports: an infeasible candidate for the
  // same (source, sink) must not shadow a feasible one reached through a
  // different value-flow path.
  if (Reported.count(Key))
    return;
  ++S.Candidates;

  Report R;
  R.Checker = Spec.Name;
  R.SourceFn = Ev.LocFn;
  R.Source = Ev.Loc;
  R.Sink = SinkLoc;
  R.SinkFn = SinkFn;
  R.Path = B.Path;

  if (Opts.PathSensitive) {
    const smt::Expr *Full = assemble(B);
    // Cancelled runs stop paying for SMT: the candidate is kept soundily
    // as Unknown, exactly like a solver timeout.
    if (Gov.cancelled()) {
      R.Verdict = smt::SatResult::Unknown;
    } else {
      Solver.setQueryOrigin(R.SourceFn);
      R.Verdict = Solver.checkSat(Full);
    }
    if (R.Verdict == smt::SatResult::Unsat) {
      ++S.SolverUnsat;
      return; // Infeasible path: not a bug.
    }
    // Unknown (solver timeout / step budget) is kept soundily: dropping it
    // would silently lose a potential bug. The report stays tagged.
    if (R.Verdict == smt::SatResult::Unknown)
      ++S.SolverUnknown;
    else
      ++S.SolverSat;
  }
  Reported.insert(Key);
  Reports.push_back(std::move(R));
}

std::vector<Report> GlobalSVFA::Impl::run() {
  // Per-checker relevance: a subset of the pipeline's union set (the
  // pipeline may have analyzed functions only *other* checkers need).
  // Relevant functions see every callee summary the exhaustive run built —
  // irrelevant ones can contribute no event, no candidate and no summary
  // any relevant function consults — so the reports and checker stats are
  // byte-identical either way.
  RelevanceSet Computed; // All: demand off.
  const RelevanceSet *Rel = &Computed;
  if (Opts.Demand) {
    // The pipeline's pre-pass already computed this checker's slice;
    // reuse it rather than re-walking the call graph. The fallback covers
    // library users who run an engine over a pipeline built without a
    // demand spec.
    Rel = AM.checkerRelevance(Spec.Name);
    if (!Rel) {
      DemandSpec DS;
      DS.Checkers.push_back(Spec);
      Computed = computeRelevance(AM.callGraph(), AM.module(), DS);
      Rel = &Computed;
    }
  }

  SCCParamsBuilt.assign(AM.callGraph().numSCCs(), false);
  Summaries.assign(AM.module().functions().size(), FrozenSummaries());
  ReachCache.resize(AM.module().functions().size());
  const auto &Order = AM.bottomUpOrder();
  for (size_t I = 0; I < Order.size(); ++I) {
    const Function *F = Order[I];
    // Demand skip (before the no-SEG degradation note: a skipped function
    // legitimately has no SEG and is not a degradation).
    if (!Rel->relevant(F))
      continue;
    // Task-boundary cancellation poll: drain here so the caller can still
    // flush reports already found and the summaries stay coherent.
    if (Gov.cancelled()) {
      Gov.note(DegradationKind::Cancelled, "svfa", F->name(),
               "cancellation requested; " +
                   std::to_string(Order.size() - I) +
                   " function(s) skipped");
      break;
    }
    if (Gov.budget().MemBudgetMB > 0 && Gov.memHardExceeded()) {
      Gov.note(DegradationKind::MemoryPressure, "svfa", F->name(),
               "governed bytes over --mem-budget-mb; " +
                   std::to_string(Order.size() - I) +
                   " function(s) skipped");
      break;
    }
    if (Gov.runExpired()) {
      Gov.note(DegradationKind::RunBudgetExhausted, "svfa", F->name(),
               "wall clock expired; " + std::to_string(Order.size() - I) +
                   " function(s) skipped");
      break;
    }
    // Functions the pipeline could not analyse at all have no SEG; their
    // summaries stay absent, which callers already treat conservatively.
    if (!AM.info(F).Seg) {
      Gov.note(DegradationKind::FunctionSkipped, "svfa", F->name(),
               "no SEG (pipeline degraded)");
      continue;
    }
    Gov.beginFunction();
    try {
      if (Gov.faults().injectFunctionThrow(F->name())) {
        Gov.note(DegradationKind::InjectedFault, "svfa", F->name(),
                 "forced svfa throw");
        throw std::runtime_error("injected svfa fault");
      }
      analyzeFunction(F);
    } catch (const std::exception &Ex) {
      isolate(F, Ex);
    }
  }
  return std::move(Reports);
}

//===----------------------------------------------------------------------===
// Facade
//===----------------------------------------------------------------------===

GlobalSVFA::GlobalSVFA(AnalyzedModule &AM, const checkers::CheckerSpec &Spec,
                       GlobalOptions Opts)
    : P(std::make_unique<Impl>(AM, Spec, Opts, S)) {}

GlobalSVFA::~GlobalSVFA() = default;

std::vector<Report> GlobalSVFA::run() { return P->run(); }

const smt::StagedSolver::Stats &GlobalSVFA::solverStats() const {
  return P->solverStats();
}

std::vector<Report> checkModule(ir::Module &M, smt::ExprContext &Ctx,
                                const checkers::CheckerSpec &Spec,
                                GlobalOptions Opts) {
  PipelineOptions PO;
  PO.Governor = Opts.Governor;
  PO.Pool = Opts.Pool;
  // With demand on, the pipeline slices to this one checker's relevance
  // set too (a single-checker run is its own union).
  DemandSpec DS;
  if (Opts.Demand) {
    DS.Checkers.push_back(Spec);
    PO.Demand = &DS;
  }
  AnalyzedModule AM(M, Ctx, PO);
  GlobalSVFA Engine(AM, Spec, Opts);
  return Engine.run();
}

} // namespace pinpoint::svfa
