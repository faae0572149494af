//===- tests/PropertyTest.cpp - Parameterised property sweeps --------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-style tests swept over seeds with TEST_P: solver agreement on
/// random formulas, pipeline invariants on random workloads, and the
/// end-to-end precision/recall contract of the whole system.
///
//===----------------------------------------------------------------------===//

#include "checkers/SpecialCheckers.h"
#include "frontend/Parser.h"
#include "ir/CallGraph.h"
#include "ir/Verifier.h"
#include "smt/LinearSolver.h"
#include "smt/Solver.h"
#include "support/RNG.h"
#include "support/ResourceGovernor.h"
#include "support/Statistics.h"
#include "support/SummaryCache.h"
#include "svfa/Demand.h"
#include "svfa/GlobalSVFA.h"
#include "workload/Evaluate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>

using namespace pinpoint::ir;

namespace pinpoint {
namespace {

//===----------------------------------------------------------------------===
// Random formula generation
//===----------------------------------------------------------------------===

class FormulaGen {
public:
  FormulaGen(smt::ExprContext &Ctx, uint64_t Seed) : Ctx(Ctx), Rand(Seed) {
    for (int I = 0; I < 4; ++I) {
      Bools.push_back(Ctx.freshBoolVar());
      Ints.push_back(Ctx.freshIntVar());
    }
  }

  const smt::Expr *gen(int Depth) {
    if (Depth == 0) {
      switch (Rand.below(3)) {
      case 0:
        return Bools[Rand.below(Bools.size())];
      case 1:
        return Ctx.mkCmp(
            static_cast<smt::ExprKind>(
                static_cast<int>(smt::ExprKind::Eq) + Rand.below(6)),
            Ints[Rand.below(Ints.size())],
            Ctx.getInt(Rand.range(-3, 3)));
      default:
        return Ctx.mkCmp(smt::ExprKind::Lt, Ints[Rand.below(Ints.size())],
                         Ints[Rand.below(Ints.size())]);
      }
    }
    switch (Rand.below(3)) {
    case 0:
      return Ctx.mkAnd(gen(Depth - 1), gen(Depth - 1));
    case 1:
      return Ctx.mkOr(gen(Depth - 1), gen(Depth - 1));
    default:
      return Ctx.mkNot(gen(Depth - 1));
    }
  }

private:
  smt::ExprContext &Ctx;
  RNG Rand;
  std::vector<const smt::Expr *> Bools, Ints;
};

class SolverAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverAgreement, LinearFilterIsSoundWrtZ3) {
  // Whatever the linear filter declares obviously-UNSAT must really be
  // UNSAT (checked against the trusted backend).
  smt::ExprContext Ctx;
  auto Z3 = smt::createZ3Solver(Ctx);
  if (!Z3)
    GTEST_SKIP() << "built without Z3";
  smt::LinearSolver Linear(Ctx);
  FormulaGen Gen(Ctx, GetParam());
  for (int I = 0; I < 40; ++I) {
    const smt::Expr *F = Gen.gen(4);
    if (Linear.isObviouslyUnsat(F))
      EXPECT_EQ(Z3->checkSat(F), smt::SatResult::Unsat)
          << Ctx.toString(F);
  }
}

TEST_P(SolverAgreement, MiniSolverAgreesWithZ3) {
  // The built-in solver must agree with Z3 whenever it gives a definite
  // answer on these formulas (its theory covers them).
  smt::ExprContext Ctx;
  auto Z3 = smt::createZ3Solver(Ctx);
  if (!Z3)
    GTEST_SKIP() << "built without Z3";
  auto Mini = smt::createMiniSolver(Ctx);
  FormulaGen Gen(Ctx, GetParam() ^ 0x5a5a);
  for (int I = 0; I < 25; ++I) {
    const smt::Expr *F = Gen.gen(3);
    smt::SatResult RZ = Z3->checkSat(F);
    smt::SatResult RM = Mini->checkSat(F);
    if (RZ == smt::SatResult::Unknown || RM == smt::SatResult::Unknown)
      continue;
    // Mini may answer Sat where the theory is too weak, but must never
    // claim Unsat for a satisfiable formula.
    if (RM == smt::SatResult::Unsat)
      EXPECT_EQ(RZ, smt::SatResult::Unsat) << Ctx.toString(F);
    if (RZ == smt::SatResult::Sat)
      EXPECT_EQ(RM, smt::SatResult::Sat) << Ctx.toString(F);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverAgreement,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

//===----------------------------------------------------------------------===
// Flat memos vs naive recursions on random DAGs
//===----------------------------------------------------------------------===

/// Grows a random hash-consed DAG: every new node combines members of the
/// pools of earlier nodes, so subterms are shared far more than in
/// FormulaGen's trees.
class DagGen {
public:
  DagGen(smt::ExprContext &Ctx, uint64_t Seed) : Ctx(Ctx), Rand(Seed) {
    Ints = {Ctx.getInt(0), Ctx.getInt(1), Ctx.getInt(-2)};
  }

  /// Adds one fresh variable of each sort.
  void addVars() {
    BoolVars.push_back(Ctx.freshBoolVar());
    IntVars.push_back(Ctx.freshIntVar());
    Bools.push_back(BoolVars.back());
    Ints.push_back(IntVars.back());
  }

  /// Adds \p N random nodes (fewer when a constructor folds to a known one).
  void grow(int N) {
    using K = smt::ExprKind;
    for (int I = 0; I < N; ++I) {
      switch (Rand.below(8)) {
      case 0:
        Ints.push_back(Ctx.mkArith(Rand.chance(1, 2) ? K::Add : K::Sub,
                                   pickInt(), pickInt()));
        break;
      case 1:
        Ints.push_back(Ctx.mkIte(pickBool(), pickInt(), pickInt()));
        break;
      case 2:
      case 3:
        Bools.push_back(Ctx.mkCmp(
            static_cast<K>(static_cast<int>(K::Eq) + Rand.below(6)),
            pickInt(), pickInt()));
        break;
      case 4:
      case 5:
        Bools.push_back(Ctx.mkAnd(pickBool(), pickBool()));
        break;
      case 6:
        Bools.push_back(Ctx.mkOr(pickBool(), pickBool()));
        break;
      default:
        Bools.push_back(Ctx.mkNot(pickBool()));
        break;
      }
    }
  }

  const smt::Expr *pickBool() { return Bools[Rand.below(Bools.size())]; }
  const smt::Expr *pickInt() { return Ints[Rand.below(Ints.size())]; }

  smt::ExprContext &Ctx;
  RNG Rand;
  std::vector<const smt::Expr *> Bools, Ints, BoolVars, IntVars;
};

/// Number of nodes in \p E unfolded into a tree, saturating at \p Cap. The
/// naive references below walk the tree, so the sweeps skip larger roots.
uint64_t treeSize(const smt::Expr *E, uint64_t Cap,
                  std::map<const smt::Expr *, uint64_t> &Memo) {
  auto It = Memo.find(E);
  if (It != Memo.end())
    return It->second;
  uint64_t N = 1;
  for (const smt::Expr *Op : E->operands())
    N = std::min(Cap, N + treeSize(Op, Cap, Memo));
  return Memo[E] = N;
}

using AtomSets = std::pair<std::set<uint32_t>, std::set<uint32_t>>;

/// P/N of \p E (of ¬E when \p Neg) by the rules of paper Section 3.1.1, with
/// De Morgan for a negated compound, and no memo.
AtomSets naivePN(const smt::Expr *E, bool Neg) {
  using K = smt::ExprKind;
  auto Atom = [](uint32_t Id, bool Negated) {
    return Negated ? AtomSets{{}, {Id}} : AtomSets{{Id}, {}};
  };
  switch (E->kind()) {
  case K::Not:
    if (E->operand(0)->isAtom())
      return Atom(E->operand(0)->id(), !Neg);
    return naivePN(E->operand(0), !Neg);
  case K::And:
  case K::Or: {
    AtomSets L = naivePN(E->operand(0), Neg), R = naivePN(E->operand(1), Neg);
    if ((E->kind() == K::And) != Neg) {
      L.first.insert(R.first.begin(), R.first.end());
      L.second.insert(R.second.begin(), R.second.end());
      return L;
    }
    AtomSets Both;
    std::set_intersection(L.first.begin(), L.first.end(), R.first.begin(),
                          R.first.end(),
                          std::inserter(Both.first, Both.first.end()));
    std::set_intersection(L.second.begin(), L.second.end(), R.second.begin(),
                          R.second.end(),
                          std::inserter(Both.second, Both.second.end()));
    return Both;
  }
  default:
    return E->isAtom() ? Atom(E->id(), Neg) : AtomSets{};
  }
}

/// \p E with every variable in \p Map replaced by its image, rebuilt through
/// the same constructors as ExprContext::substitute, with no memo.
const smt::Expr *naiveSubst(smt::ExprContext &Ctx, const smt::Expr *E,
                            const std::map<uint32_t, const smt::Expr *> &Map) {
  using K = smt::ExprKind;
  auto Sub = [&](unsigned I) { return naiveSubst(Ctx, E->operand(I), Map); };
  switch (E->kind()) {
  case K::BoolVar:
  case K::IntVar: {
    auto It = Map.find(E->varId());
    return It == Map.end() ? E : It->second;
  }
  case K::Not:
    return Ctx.mkNot(Sub(0));
  case K::And:
    return Ctx.mkAnd(Sub(0), Sub(1));
  case K::Or:
    return Ctx.mkOr(Sub(0), Sub(1));
  case K::Add:
  case K::Sub:
  case K::Mul:
    return Ctx.mkArith(E->kind(), Sub(0), Sub(1));
  case K::Neg:
    return Ctx.mkNeg(Sub(0));
  case K::Ite:
    return Ctx.mkIte(Ctx.toBoolExpr(Sub(0)), Ctx.toIntExpr(Sub(1)),
                     Ctx.toIntExpr(Sub(2)));
  default:
    if (E->kind() >= K::Eq && E->kind() <= K::Ge)
      return Ctx.mkCmp(E->kind(), Sub(0), Sub(1));
    return E; // True/False/IntConst.
  }
}

class DagSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DagSweep, LinearMemoMatchesNaiveRecursion) {
  // One solver across the sweep, so its memo tables grow and its shared
  // spans are reused between queries, as in the engine.
  smt::ExprContext Ctx;
  DagGen G(Ctx, GetParam());
  smt::LinearSolver Linear(Ctx);
  std::map<const smt::Expr *, uint64_t> Sizes;
  int Checked = 0;
  for (int Round = 0; Round < 6; ++Round) {
    G.addVars();
    G.grow(120);
    for (int I = 0; I < 40; ++I) {
      const smt::Expr *E = G.pickBool();
      if (treeSize(E, 4096, Sizes) >= 4096)
        continue;
      for (bool Neg : {false, true}) {
        const smt::Expr *Q = Neg ? Ctx.mkNot(E) : E;
        const auto [P, N] = naivePN(E, Neg);
        auto GotP = Linear.positiveAtoms(Q), GotN = Linear.negativeAtoms(Q);
        ASSERT_EQ(std::vector<uint32_t>(GotP.begin(), GotP.end()),
                  std::vector<uint32_t>(P.begin(), P.end()))
            << Ctx.toString(Q);
        ASSERT_EQ(std::vector<uint32_t>(GotN.begin(), GotN.end()),
                  std::vector<uint32_t>(N.begin(), N.end()))
            << Ctx.toString(Q);
        std::vector<uint32_t> Common;
        std::set_intersection(P.begin(), P.end(), N.begin(), N.end(),
                              std::back_inserter(Common));
        EXPECT_EQ(Linear.isObviouslyUnsat(Q), Q->isFalse() || !Common.empty())
            << Ctx.toString(Q);
        ++Checked;
      }
    }
  }
  EXPECT_GT(Checked, 200);
}

TEST_P(DagSweep, ReusedScratchSubstituteMatchesNaive) {
  // One scratch for the whole sweep. Each round first grows the DAG, so
  // the next rewrites reach node and variable ids past the scratch's
  // arrays, and then draws a new mapping, so the last round's must be
  // forgotten.
  smt::ExprContext Ctx;
  DagGen G(Ctx, GetParam() ^ 0xd1b5);
  smt::SubstScratch Scratch;
  std::map<const smt::Expr *, uint64_t> Sizes;
  int Rewritten = 0;
  for (int Round = 0; Round < 8; ++Round) {
    G.addVars();
    G.grow(80);
    std::map<uint32_t, const smt::Expr *> Map;
    Scratch.clearVars();
    auto mapSome = [&](const std::vector<const smt::Expr *> &Vars,
                       bool Bool) {
      for (const smt::Expr *V : Vars)
        if (G.Rand.chance(1, 2)) {
          const smt::Expr *Image = Bool ? G.pickBool() : G.pickInt();
          Map[V->varId()] = Image;
          Scratch.mapVar(V->varId(), Image);
        }
    };
    mapSome(G.BoolVars, true);
    mapSome(G.IntVars, false);
    for (int I = 0; I < 30; ++I) {
      const smt::Expr *E = I % 2 ? G.pickBool() : G.pickInt();
      if (treeSize(E, 4096, Sizes) >= 4096)
        continue;
      const smt::Expr *Want = naiveSubst(Ctx, E, Map);
      ASSERT_EQ(Ctx.substitute(E, Scratch), Want) << Ctx.toString(E);
      ++Rewritten;
    }
  }
  EXPECT_GT(Rewritten, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DagSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

//===----------------------------------------------------------------------===
// Staged-vs-direct equivalence (paper Section 3.1.1)
//===----------------------------------------------------------------------===

/// Sweeps random *grouped* conjunctions — each conjunct drawn from one of
/// several FormulaGen instances with disjoint fresh variable pools — and
/// checks that the staged solver (linear filter on) agrees with a direct
/// backend call on every definite verdict. A disagreement on a filtered
/// query means the filter refuted a satisfiable formula; one on a
/// fall-through query means the staged path changed what the backend saw.
class StagedEquivalence : public ::testing::TestWithParam<uint64_t> {
protected:
  /// Builds a random conjunction of 2–5 group-local subformulas.
  const smt::Expr *genGrouped(smt::ExprContext &Ctx,
                              std::vector<FormulaGen> &Groups, RNG &Rand) {
    const smt::Expr *F = nullptr;
    int NumConj = 2 + static_cast<int>(Rand.below(4));
    for (int C = 0; C < NumConj; ++C) {
      const smt::Expr *Part = Groups[Rand.below(Groups.size())].gen(2);
      F = F ? Ctx.mkAnd(F, Part) : Part;
    }
    return F;
  }

  std::vector<FormulaGen> makeGroups(smt::ExprContext &Ctx, uint64_t Mul) {
    std::vector<FormulaGen> Groups;
    for (uint64_t G = 0; G < 3; ++G)
      Groups.emplace_back(Ctx, GetParam() * Mul + G);
    return Groups;
  }

  void runAgainst(smt::ExprContext &Ctx, std::unique_ptr<smt::Solver> Direct,
                  std::unique_ptr<smt::Solver> Backend) {
    smt::StagedSolver Staged(Ctx, std::move(Backend),
                             /*UseLinearFilter=*/true);
    std::vector<FormulaGen> Groups = makeGroups(Ctx, 131);
    RNG Rand(GetParam() ^ 0xACCE1u);
    for (int I = 0; I < 30; ++I) {
      const smt::Expr *F = genGrouped(Ctx, Groups, Rand);
      smt::SatResult RD = Direct->checkSat(F);
      smt::SatResult RS = Staged.checkSat(F);
      // A verbatim replay must give the same verdict: the backend keeps no
      // state from one query to the next.
      EXPECT_EQ(Staged.checkSat(F), RS) << Ctx.toString(F);
      if (RD == smt::SatResult::Unknown || RS == smt::SatResult::Unknown)
        continue; // Budget-dependent; only definite verdicts must agree.
      EXPECT_EQ(RS, RD) << Ctx.toString(F);
    }
    // Both stages must have decided some queries, or the sweep is vacuous.
    EXPECT_GT(Staged.stats().LinearUnsat, 0u);
    EXPECT_GT(Staged.stats().BackendQueries, 0u);
  }
};

TEST_P(StagedEquivalence, StagedMatchesDirectMiniSolver) {
  smt::ExprContext Ctx;
  // A tight step budget keeps adversarial DPLL instances cheap: they
  // degrade to Unknown, which the sweep skips (only definite verdicts
  // must agree), instead of burning minutes.
  smt::SolverConfig Cfg;
  Cfg.MaxSteps = 50'000;
  runAgainst(Ctx, smt::createMiniSolver(Ctx, Cfg),
             smt::createMiniSolver(Ctx, Cfg));
}

TEST_P(StagedEquivalence, StagedMatchesDirectZ3) {
  smt::ExprContext Ctx;
  auto Direct = smt::createZ3Solver(Ctx);
  if (!Direct)
    GTEST_SKIP() << "built without Z3";
  runAgainst(Ctx, std::move(Direct), smt::createZ3Solver(Ctx));
}

TEST_P(StagedEquivalence, InjectedUnknownDegradesEveryBackendQuery) {
  // Under 100% forced-Unknown injection every query that falls through the
  // linear filter degrades to Unknown, with one injected fault (and one
  // degradation event) per backend query.
  FaultInjector FI;
  std::string Err;
  ASSERT_TRUE(FI.parse(
      "seed=" + std::to_string(GetParam()) + ",solver-unknown=100", Err))
      << Err;
  ResourceGovernor Gov({}, std::move(FI));
  smt::ExprContext Ctx;
  smt::StagedSolver Staged(Ctx, smt::createMiniSolver(Ctx),
                           /*UseLinearFilter=*/true, &Gov);
  std::vector<FormulaGen> Groups = makeGroups(Ctx, 257);
  RNG Rand(GetParam() ^ 0xFA117u);
  for (int I = 0; I < 20; ++I) {
    const smt::Expr *F = genGrouped(Ctx, Groups, Rand);
    const uint64_t Before = Staged.stats().BackendQueries;
    smt::SatResult R = Staged.checkSat(F);
    if (Staged.stats().BackendQueries > Before) {
      EXPECT_EQ(R, smt::SatResult::Unknown) << Ctx.toString(F);
    }
  }
  const auto &St = Staged.stats();
  ASSERT_GT(St.BackendQueries, 0u);
  EXPECT_EQ(St.BackendUnknown, St.BackendQueries);
  EXPECT_EQ(St.InjectedUnknown, St.BackendQueries);
  EXPECT_EQ(Gov.log().events().size(), St.InjectedUnknown);
  EXPECT_TRUE(Gov.degraded());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StagedEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

//===----------------------------------------------------------------------===
// Pipeline invariants over random workloads
//===----------------------------------------------------------------------===

class PipelineProperty : public ::testing::TestWithParam<uint64_t> {
protected:
  workload::Workload makeWorkload() {
    workload::WorkloadConfig Cfg;
    Cfg.Seed = GetParam();
    Cfg.TargetLoC = 600;
    Cfg.FeasibleUAF = 2;
    Cfg.InfeasibleUAF = 3;
    Cfg.FeasibleDF = 1;
    Cfg.FeasibleTaint = 1;
    Cfg.AliasNoise = 3;
    return workload::generate(Cfg);
  }
};

TEST_P(PipelineProperty, GeneratedModulesStayWellFormedThroughPipeline) {
  workload::Workload W = makeWorkload();
  Module M;
  std::vector<frontend::Diag> Diags;
  ASSERT_TRUE(frontend::parseModule(W.Source, M, Diags));
  smt::ExprContext Ctx;
  svfa::AnalyzedModule AM(M, Ctx);
  // After SSA + connectors + call rewriting, every function still passes
  // the strict SSA verifier.
  auto Errs = verifyModule(M, /*ExpectSSA=*/true);
  EXPECT_TRUE(Errs.empty()) << (Errs.empty() ? "" : Errs[0]);
}

TEST_P(PipelineProperty, DemandSkippedFunctionsStayInPreSSAForm) {
  // With demand slicing, SSA runs only for the functions the pipeline
  // analyses: they pass the strict SSA verifier, and every skipped one is
  // left as the frontend built it (no phi, no statement numbering) and
  // still passes the plain verifier.
  workload::Workload W = makeWorkload();
  Module M;
  std::vector<frontend::Diag> Diags;
  ASSERT_TRUE(frontend::parseModule(W.Source, M, Diags));
  smt::ExprContext Ctx;
  svfa::DemandSpec DS;
  DS.Checkers.push_back(checkers::doubleFreeChecker());
  svfa::PipelineOptions PO;
  PO.Demand = &DS;
  svfa::AnalyzedModule AM(M, Ctx, PO);
  for (Function *F : M.functions()) {
    const bool Skipped = AM.info(F).Skipped;
    auto Errs = verifyFunction(*F, /*ExpectSSA=*/!Skipped);
    EXPECT_TRUE(Errs.empty()) << F->name() << ": "
                              << (Errs.empty() ? "" : Errs[0]);
    if (!Skipped)
      continue;
    EXPECT_FALSE(F->hasStmtOrder()) << F->name();
    for (BasicBlock *B : F->blocks())
      for (Stmt *S : B->stmts())
        EXPECT_FALSE(isa<PhiStmt>(S)) << F->name();
  }
}

TEST_P(PipelineProperty, LoadDepConditionsAreSatisfiable) {
  // The quasi path-sensitive points-to must never emit a dependence whose
  // condition the SMT solver refutes: the linear filter only prunes, never
  // invents. The pipeline keeps no points-to result, so this re-runs pass 2
  // over each analysed function with its connector bindings.
  workload::Workload W = makeWorkload();
  Module M;
  std::vector<frontend::Diag> Diags;
  ASSERT_TRUE(frontend::parseModule(W.Source, M, Diags));
  smt::ExprContext Ctx;
  svfa::AnalyzedModule AM(M, Ctx);
  auto Solver = smt::createDefaultSolver(Ctx);
  const int MaxChecks = 200; // Bounds the SMT work per sweep instance.
  int Checked = 0;
  for (Function *F : M.functions()) {
    if (Checked == MaxChecks)
      break;
    const svfa::AnalyzedFunction &Info = AM.info(F);
    if (Info.Degraded || Info.Skipped || !Info.Conds)
      continue;
    pta::PTAConfig Cfg;
    Cfg.AuxParams = AM.interfaceOf(F).auxBindings();
    pta::PointsToResult Final =
        pta::runPointsTo(*F, AM.symbols(), *Info.Conds, Cfg);
    for (BasicBlock *B : F->blocks())
      for (Stmt *S : B->stmts())
        if (auto *L = dyn_cast<LoadStmt>(S))
          for (auto &[CV, C] : Final.loadDeps(L)) {
            if (Checked == MaxChecks)
              break;
            ++Checked;
            EXPECT_NE(Solver->checkSat(C), smt::SatResult::Unsat)
                << F->name() << ": " << Ctx.toString(C);
          }
  }
  EXPECT_GT(Checked, 0) << "no load dependence was checked";
}

TEST_P(PipelineProperty, EndToEndPrecisionContract) {
  // The system contract on every workload: all feasible plants found, no
  // infeasible plant reported.
  workload::Workload W = makeWorkload();
  Module M;
  std::vector<frontend::Diag> Diags;
  ASSERT_TRUE(frontend::parseModule(W.Source, M, Diags));
  smt::ExprContext Ctx;
  auto Reports =
      svfa::checkModule(M, Ctx, checkers::useAfterFreeChecker());
  std::vector<workload::ReportView> Views;
  for (const auto &R : Reports)
    Views.push_back({R.Source.Line, R.Sink.Line,
                     workload::BugChecker::UseAfterFree});
  auto Eval = workload::evaluate(W.Bugs, Views,
                                 workload::BugChecker::UseAfterFree);
  EXPECT_EQ(Eval.FalseNegatives, 0);
  EXPECT_EQ(Eval.FalsePositives, 0); // No env-guarded plants in this config.
}

TEST_P(PipelineProperty, ReportsAreDeterministic) {
  workload::Workload W = makeWorkload();
  auto runOnce = [&] {
    Module M;
    std::vector<frontend::Diag> Diags;
    frontend::parseModule(W.Source, M, Diags);
    smt::ExprContext Ctx;
    auto Reports =
        svfa::checkModule(M, Ctx, checkers::useAfterFreeChecker());
    std::vector<std::pair<uint32_t, uint32_t>> Keys;
    for (const auto &R : Reports)
      Keys.push_back({R.Source.Line, R.Sink.Line});
    std::sort(Keys.begin(), Keys.end());
    return Keys;
  };
  EXPECT_EQ(runOnce(), runOnce());
}

TEST_P(PipelineProperty, DemandSlicedReportsMatchExhaustive) {
  // The --demand determinism contract on random subjects: the sliced
  // analysis reports exactly what the exhaustive one does, for a temporal
  // checker and a taint checker.
  workload::Workload W = makeWorkload();
  auto runMode = [&](bool Demand, const checkers::CheckerSpec &Spec) {
    Module M;
    std::vector<frontend::Diag> Diags;
    frontend::parseModule(W.Source, M, Diags);
    smt::ExprContext Ctx;
    svfa::GlobalOptions GO;
    GO.Demand = Demand;
    auto Reports = svfa::checkModule(M, Ctx, Spec, GO);
    std::vector<std::string> Keys;
    for (const auto &R : Reports) {
      std::string K = R.SourceFn + ":" + R.Source.str() + "->" + R.SinkFn +
                      ":" + R.Sink.str();
      for (const auto &Step : R.Path)
        K += "|" + Step;
      Keys.push_back(K);
    }
    return Keys;
  };
  for (const auto &Spec : {checkers::useAfterFreeChecker(),
                           checkers::pathTraversalChecker()})
    EXPECT_EQ(runMode(true, Spec), runMode(false, Spec)) << Spec.Name;
}

TEST_P(PipelineProperty, CacheInvalidationTracksDirtySCCs) {
  // Randomised invalidation fuzzing: mutate one seed-picked function body,
  // then check against the call graph that *exactly* the dirty SCC plus
  // its transitive callers rebuild — and that the partially-warm run's
  // reports equal a from-scratch run on the edited source.
  workload::Workload W = makeWorkload();
  RNG Rand(GetParam() * 0x9e37u + 1);

  // Pick a function by mutating its column-0 header's following line.
  std::vector<size_t> HeaderEnds;
  std::vector<std::string> Names;
  size_t Pos = 0;
  while (Pos < W.Source.size()) {
    size_t EOL = W.Source.find('\n', Pos);
    if (EOL == std::string::npos)
      EOL = W.Source.size();
    std::string Line = W.Source.substr(Pos, EOL - Pos);
    if (Line.rfind("int ", 0) == 0 && Line.find('(') != std::string::npos &&
        !Line.empty() && Line.back() == '{') {
      HeaderEnds.push_back(EOL);
      size_t NameStart = Line.find_first_not_of("* ", 4);
      Names.push_back(Line.substr(NameStart, Line.find('(') - NameStart));
    }
    Pos = EOL + 1;
  }
  ASSERT_FALSE(HeaderEnds.empty());
  size_t Idx = Rand.below(HeaderEnds.size());
  const std::string &EditedFn = Names[Idx];
  std::string Edited = W.Source;
  Edited.insert(HeaderEnds[Idx], "\n  int zqcachepad = 7;");

  const std::string Dir =
      "prop_cache_" + std::to_string(GetParam());
  std::filesystem::remove_all(Dir);
  SummaryCache Cache(Dir, SummaryCache::Mode::ReadWrite);
  std::string Err;
  ASSERT_TRUE(Cache.prepare(Err)) << Err;

  auto counters = [] {
    Counters &C = Counters::get();
    return std::array<int64_t, 4>{
        C.value("cache.hits"), C.value("cache.misses"),
        C.value("cache.invalidated"), C.value("cache.stored")};
  };
  auto runWith = [&](const std::string &Src,
                     SummaryCache *UseCache) {
    Module M;
    std::vector<frontend::Diag> Diags;
    EXPECT_TRUE(frontend::parseModule(Src, M, Diags));
    smt::ExprContext Ctx;
    svfa::PipelineOptions PO;
    PO.Cache = UseCache;
    svfa::AnalyzedModule AM(M, Ctx, PO);
    svfa::GlobalSVFA Engine(AM, checkers::useAfterFreeChecker());
    std::vector<std::pair<uint32_t, uint32_t>> Keys;
    for (const auto &R : Engine.run())
      Keys.push_back({R.Source.Line, R.Sink.Line});
    std::sort(Keys.begin(), Keys.end());
    return std::make_pair(Keys, M.functions().size());
  };

  // Cold populate: every function missed and (for these simple subjects)
  // every function's artifacts are representable, so all are stored.
  auto C0 = counters();
  auto [ColdKeys, NumFns] = runWith(W.Source, &Cache);
  auto C1 = counters();
  ASSERT_EQ(C1[1] - C0[1], (int64_t)NumFns) << "cold misses";
  ASSERT_EQ(C1[3] - C0[3], (int64_t)NumFns)
      << "unrepresentable summary in generated subject";

  // Expected dirty set from the edited call graph: the edited function's
  // SCC and every SCC that transitively calls into it (ascending SCC ids
  // are topological, so one pass propagates taint caller-ward).
  size_t ExpectedDirty = 0;
  {
    Module M;
    std::vector<frontend::Diag> Diags;
    ASSERT_TRUE(frontend::parseModule(Edited, M, Diags));
    CallGraph CG(M);
    const auto &SCCs = CG.sccs();
    std::vector<bool> Dirty(SCCs.size(), false);
    for (size_t I = 0; I < SCCs.size(); ++I) {
      for (Function *F : SCCs[I].Members)
        if (F->name() == EditedFn)
          Dirty[I] = true;
      for (size_t Callee : SCCs[I].CalleeSCCs)
        if (Dirty[Callee])
          Dirty[I] = true;
      if (Dirty[I])
        ExpectedDirty += SCCs[I].Members.size();
    }
  }
  ASSERT_GT(ExpectedDirty, 0u);

  // Edited warm run: exactly the dirty functions miss (all as explicit
  // invalidations — their entries exist under the old key), the rest hit.
  auto C2 = counters();
  auto [WarmKeys, NumFns2] = runWith(Edited, &Cache);
  auto C3 = counters();
  EXPECT_EQ(C3[2] - C2[2], (int64_t)ExpectedDirty) << "fn " << EditedFn;
  EXPECT_EQ(C3[1] - C2[1], (int64_t)ExpectedDirty) << "fn " << EditedFn;
  EXPECT_EQ(C3[0] - C2[0], (int64_t)(NumFns2 - ExpectedDirty))
      << "fn " << EditedFn;

  // And the differential guarantee: identical findings to a cold run on
  // the edited source.
  auto [RefKeys, NumFns3] = runWith(Edited, nullptr);
  EXPECT_EQ(WarmKeys, RefKeys) << "fn " << EditedFn;
  (void)NumFns3;

  std::filesystem::remove_all(Dir);
}

TEST_P(PipelineProperty, SinkSlicedAndReplayedReportsMatchExhaustive) {
  // Every slicing mode reports exactly what the exhaustive run does on a
  // random subject with planted source/sink pairs: the source-only cone
  // (sink knob off), the bidirectional cone, and a warm run that replays
  // the persisted relevance entry instead of re-running the pre-pass.
  workload::Workload W = makeWorkload();
  auto runCfg = [&](const svfa::DemandSpec *DS, SummaryCache *Cache,
                    const checkers::CheckerSpec &Spec) {
    Module M;
    std::vector<frontend::Diag> Diags;
    EXPECT_TRUE(frontend::parseModule(W.Source, M, Diags));
    smt::ExprContext Ctx;
    svfa::PipelineOptions PO;
    PO.Demand = DS;
    PO.Cache = Cache;
    svfa::AnalyzedModule AM(M, Ctx, PO);
    svfa::GlobalOptions GO;
    GO.Demand = DS != nullptr;
    svfa::GlobalSVFA Engine(AM, Spec, GO);
    std::vector<std::string> Keys;
    for (const auto &R : Engine.run()) {
      std::string K = R.SourceFn + ":" + R.Source.str() + "->" + R.SinkFn +
                      ":" + R.Sink.str();
      for (const auto &Step : R.Path)
        K += "|" + Step;
      Keys.push_back(K);
    }
    std::sort(Keys.begin(), Keys.end());
    return Keys;
  };

  for (const auto &Spec : {checkers::useAfterFreeChecker(),
                           checkers::pathTraversalChecker()}) {
    svfa::DemandSpec Bi, SrcOnly;
    Bi.Checkers.push_back(Spec);
    SrcOnly.Checkers.push_back(Spec);
    SrcOnly.UseSinkCones = false;
    auto Exhaustive = runCfg(nullptr, nullptr, Spec);
    EXPECT_EQ(runCfg(&SrcOnly, nullptr, Spec), Exhaustive) << Spec.Name;
    EXPECT_EQ(runCfg(&Bi, nullptr, Spec), Exhaustive) << Spec.Name;

    // Warm replay through a summary cache: the cold run persists the
    // relevance entry, the warm run consumes it without pre-pass work.
    const std::string Dir =
        "prop_rel_" + Spec.Name + "_" + std::to_string(GetParam());
    std::filesystem::remove_all(Dir);
    Counters &C = Counters::get();
    std::string Err;
    {
      SummaryCache Cold(Dir, SummaryCache::Mode::ReadWrite);
      ASSERT_TRUE(Cold.prepare(Err)) << Err;
      const int64_t Stored = C.value("demand.relevance-stored");
      EXPECT_EQ(runCfg(&Bi, &Cold, Spec), Exhaustive) << Spec.Name;
      EXPECT_EQ(C.value("demand.relevance-stored"), Stored + 1);
    }
    {
      SummaryCache Warm(Dir, SummaryCache::Mode::ReadWrite);
      ASSERT_TRUE(Warm.prepare(Err)) << Err;
      const int64_t Replayed = C.value("demand.relevance-replayed");
      const int64_t Prepass = C.value("demand.prepass-fns");
      EXPECT_EQ(runCfg(&Bi, &Warm, Spec), Exhaustive) << Spec.Name;
      EXPECT_EQ(C.value("demand.relevance-replayed"), Replayed + 1);
      EXPECT_EQ(C.value("demand.prepass-fns"), Prepass)
          << "warm replay must skip the pre-pass";
    }
    std::filesystem::remove_all(Dir);
  }
}

TEST_P(PipelineProperty, CorruptRelevanceEntryFallsBackToFreshPrePass) {
  // Flipping one byte of the persisted relevance entry must be detected
  // (cache-corrupt degradation + counter), fall back to a fresh pre-pass,
  // re-store a healthy entry, and leave the reports untouched.
  workload::Workload W = makeWorkload();
  svfa::DemandSpec DS;
  DS.Checkers.push_back(checkers::useAfterFreeChecker());
  auto runCfg = [&](const svfa::DemandSpec *D, SummaryCache *Cache,
                    ResourceGovernor *Gov) {
    Module M;
    std::vector<frontend::Diag> Diags;
    EXPECT_TRUE(frontend::parseModule(W.Source, M, Diags));
    smt::ExprContext Ctx;
    svfa::PipelineOptions PO;
    PO.Demand = D;
    PO.Cache = Cache;
    PO.Governor = Gov;
    svfa::AnalyzedModule AM(M, Ctx, PO);
    svfa::GlobalOptions GO;
    GO.Demand = D != nullptr;
    svfa::GlobalSVFA Engine(AM, checkers::useAfterFreeChecker(), GO);
    std::vector<std::pair<uint32_t, uint32_t>> Keys;
    for (const auto &R : Engine.run())
      Keys.push_back({R.Source.Line, R.Sink.Line});
    std::sort(Keys.begin(), Keys.end());
    return Keys;
  };
  auto Exhaustive = runCfg(nullptr, nullptr, nullptr);

  const std::string Dir = "prop_relcorrupt_" + std::to_string(GetParam());
  std::filesystem::remove_all(Dir);
  std::string Err;
  {
    SummaryCache Cold(Dir, SummaryCache::Mode::ReadWrite);
    ASSERT_TRUE(Cold.prepare(Err)) << Err;
    EXPECT_EQ(runCfg(&DS, &Cold, nullptr), Exhaustive);
  }

  // One byte flip in the middle of the entry.
  const std::string Entry = SummaryCache(Dir, SummaryCache::Mode::ReadWrite)
                                .entryPath(svfa::RelevanceEntryName);
  ASSERT_TRUE(std::filesystem::exists(Entry));
  {
    std::fstream F(Entry, std::ios::in | std::ios::out | std::ios::binary);
    F.seekg(0, std::ios::end);
    auto Size = static_cast<long>(F.tellg());
    ASSERT_GT(Size, 8);
    char B = 0;
    F.seekg(Size / 2);
    F.read(&B, 1);
    B ^= 0x40;
    F.seekp(Size / 2);
    F.write(&B, 1);
  }

  Counters &C = Counters::get();
  const int64_t Corrupt = C.value("cache.corrupt");
  const int64_t Replayed = C.value("demand.relevance-replayed");
  const int64_t Stored = C.value("demand.relevance-stored");
  ResourceGovernor Gov({}, FaultInjector());
  {
    SummaryCache Warm(Dir, SummaryCache::Mode::ReadWrite);
    ASSERT_TRUE(Warm.prepare(Err)) << Err;
    EXPECT_EQ(runCfg(&DS, &Warm, &Gov), Exhaustive);
  }
  EXPECT_EQ(C.value("cache.corrupt"), Corrupt + 1);
  EXPECT_EQ(Gov.log().count(DegradationKind::CacheCorrupt), 1u);
  EXPECT_EQ(C.value("demand.relevance-replayed"), Replayed);
  EXPECT_EQ(C.value("demand.relevance-stored"), Stored + 1)
      << "fallback must re-store a healthy entry";

  // The re-stored entry replays cleanly.
  {
    SummaryCache Again(Dir, SummaryCache::Mode::ReadWrite);
    ASSERT_TRUE(Again.prepare(Err)) << Err;
    EXPECT_EQ(runCfg(&DS, &Again, nullptr), Exhaustive);
  }
  EXPECT_EQ(C.value("demand.relevance-replayed"), Replayed + 1);

  std::filesystem::remove_all(Dir);
}

TEST_P(PipelineProperty, EditedWarmRefreshMatchesColdOnRandomEdits) {
  // Randomised edit-localised reanalysis fuzzing (DESIGN.md section 15):
  // pad-edit K seed-picked function bodies, then check that the warm
  // refresh run re-scans exactly those K functions (dirty diff == edit
  // set) while reporting byte-identically to a from-scratch run on the
  // edited source — and that the refreshed entry replays on the next run.
  workload::Workload W = makeWorkload();
  RNG Rand(GetParam() * 0x51edu + 3);

  // Column-0 function headers, as in CacheInvalidationTracksDirtySCCs.
  std::vector<size_t> HeaderEnds;
  size_t Pos = 0;
  while (Pos < W.Source.size()) {
    size_t EOL = W.Source.find('\n', Pos);
    if (EOL == std::string::npos)
      EOL = W.Source.size();
    std::string Line = W.Source.substr(Pos, EOL - Pos);
    if (Line.rfind("int ", 0) == 0 && Line.find('(') != std::string::npos &&
        !Line.empty() && Line.back() == '{')
      HeaderEnds.push_back(EOL);
    Pos = EOL + 1;
  }
  ASSERT_FALSE(HeaderEnds.empty());

  // 1-3 distinct functions, edited back-to-front so offsets stay valid.
  size_t K = 1 + Rand.below(std::min<size_t>(3, HeaderEnds.size()));
  std::vector<size_t> Picks;
  while (Picks.size() < K) {
    size_t Idx = Rand.below(HeaderEnds.size());
    if (std::find(Picks.begin(), Picks.end(), Idx) == Picks.end())
      Picks.push_back(Idx);
  }
  std::sort(Picks.begin(), Picks.end(), std::greater<size_t>());
  std::string Edited = W.Source;
  for (size_t Idx : Picks)
    Edited.insert(HeaderEnds[Idx], "\n  int zqrefreshpad = 7;");

  svfa::DemandSpec DS;
  DS.Checkers.push_back(checkers::useAfterFreeChecker());
  auto runCfg = [&](const std::string &Src, SummaryCache *Cache) {
    Module M;
    std::vector<frontend::Diag> Diags;
    EXPECT_TRUE(frontend::parseModule(Src, M, Diags));
    smt::ExprContext Ctx;
    svfa::PipelineOptions PO;
    PO.Demand = &DS;
    PO.Cache = Cache;
    svfa::AnalyzedModule AM(M, Ctx, PO);
    svfa::GlobalOptions GO;
    GO.Demand = true;
    svfa::GlobalSVFA Engine(AM, checkers::useAfterFreeChecker(), GO);
    std::vector<std::pair<uint32_t, uint32_t>> Keys;
    for (const auto &R : Engine.run())
      Keys.push_back({R.Source.Line, R.Sink.Line});
    std::sort(Keys.begin(), Keys.end());
    return Keys;
  };

  const std::string Dir = "prop_refresh_" + std::to_string(GetParam());
  std::filesystem::remove_all(Dir);
  std::string Err;
  Counters &C = Counters::get();
  {
    SummaryCache Cold(Dir, SummaryCache::Mode::ReadWrite);
    ASSERT_TRUE(Cold.prepare(Err)) << Err;
    runCfg(W.Source, &Cold);
  }

  const int64_t Dirty = C.value("demand.dirty-fns");
  const int64_t Prepass = C.value("demand.prepass-fns");
  const int64_t Stale = C.value("demand.relevance-stale");
  const int64_t Stored = C.value("demand.relevance-stored");
  std::vector<std::pair<uint32_t, uint32_t>> WarmKeys;
  {
    SummaryCache Warm(Dir, SummaryCache::Mode::ReadWrite);
    ASSERT_TRUE(Warm.prepare(Err)) << Err;
    WarmKeys = runCfg(Edited, &Warm);
  }
  // The dirty diff found exactly the K edited functions, only they were
  // re-scanned, and the refreshed entry was re-stored for the new subject.
  EXPECT_EQ(C.value("demand.dirty-fns"), Dirty + (int64_t)K);
  EXPECT_EQ(C.value("demand.prepass-fns"), Prepass + (int64_t)K);
  EXPECT_EQ(C.value("demand.relevance-stale"), Stale + 1);
  EXPECT_EQ(C.value("demand.relevance-stored"), Stored + 1);

  // Differential guarantee: identical findings to a cold uncached run on
  // the edited source.
  EXPECT_EQ(WarmKeys, runCfg(Edited, nullptr)) << "K=" << K;

  // And the refreshed entry replays outright on the next warm run.
  const int64_t Replayed = C.value("demand.relevance-replayed");
  {
    SummaryCache Again(Dir, SummaryCache::Mode::ReadWrite);
    ASSERT_TRUE(Again.prepare(Err)) << Err;
    EXPECT_EQ(runCfg(Edited, &Again), WarmKeys);
  }
  EXPECT_EQ(C.value("demand.relevance-replayed"), Replayed + 1);

  std::filesystem::remove_all(Dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

//===----------------------------------------------------------------------===
// Relevance cones against a naive closure
//===----------------------------------------------------------------------===

/// The pre-pass's condensation sweeps against a function-level worklist
/// closure written here, on random call graphs with recursion cycles, for
/// every subset of {uaf, df, null-deref, taint-path, leak} with the sink
/// cones on and off.
class ConeSweep : public ::testing::TestWithParam<uint64_t> {
protected:
  /// A random module: each function holds a few random seed statements and
  /// calls a few random functions, so cycles of every length appear; the
  /// first and last function always call each other.
  static std::string randomModule(uint64_t Seed) {
    RNG Rand(Seed);
    const int N = 16 + static_cast<int>(Rand.below(16));
    const char *const Seeds[] = {
        "free(p);",                   // uaf/df source, df sink
        "int d@ = *p;",               // deref host
        "int *m@ = malloc(4);",       // leak source
        "int t@ = read_input();",     // taint-path source
        "open(c);",                   // taint-path sink
        "int *z@ = null;",            // null-deref source
        "int *l@ = lookup();",        // null-deref source
    };
    std::string S;
    for (int F = 0; F < N; ++F) {
      S += "int f" + std::to_string(F) + "(int *p, int c) {\n";
      for (uint64_t K = Rand.below(3); K > 0; --K) {
        std::string Stmt = Seeds[Rand.below(std::size(Seeds))];
        size_t At = Stmt.find('@');
        if (At != std::string::npos)
          Stmt.replace(At, 1, std::to_string(K));
        S += "  " + Stmt + "\n";
      }
      for (uint64_t K = Rand.below(4); K > 0; --K)
        S += "  int r" + std::to_string(K) + " = f" +
             std::to_string(Rand.below(N)) + "(p, c);\n";
      if (F == 0 || F == N - 1)
        S += "  int back = f" + std::to_string(N - 1 - F) + "(p, c);\n";
      S += "  return 0;\n}\n";
    }
    return S;
  }

  using FnSet = std::set<const Function *>;

  /// Call edges read from each call's resolved target, so the reference
  /// does not depend on CallGraph's condensation.
  struct CallEdges {
    std::map<const Function *, FnSet> Callees, Callers;
  };
  static CallEdges callEdges(const Module &M) {
    CallEdges E;
    for (const Function *F : M.functions())
      for (const BasicBlock *B : F->blocks())
        for (const Stmt *S : B->stmts())
          if (const auto *C = dyn_cast<CallStmt>(S))
            if (const Function *G = C->callee()) {
              E.Callees[F].insert(G);
              E.Callers[G].insert(F);
            }
    return E;
  }

  /// Closes \p Set under callers (Up) or callees, one function at a time.
  static void close(const CallEdges &E, FnSet &Set, bool Up) {
    const std::map<const Function *, FnSet> &Next = Up ? E.Callers : E.Callees;
    std::vector<const Function *> Work(Set.begin(), Set.end());
    while (!Work.empty()) {
      const Function *F = Work.back();
      Work.pop_back();
      auto It = Next.find(F);
      if (It == Next.end())
        continue;
      for (const Function *G : It->second)
        if (Set.insert(G).second)
          Work.push_back(G);
    }
  }

  static bool hasLeakSource(const Function &F) {
    for (const BasicBlock *B : F.blocks())
      for (const Stmt *S : B->stmts())
        if (const auto *C = dyn_cast<CallStmt>(S))
          if (C->calleeName() == intrinsics::Malloc && C->receiver())
            return true;
    return false;
  }

  /// The reference slice: callees*(callers*(Src) ∩ callers*(Snk)), or
  /// callees*(callers*(Src)) without a sink cone.
  static FnSet slice(const CallEdges &E, const FnSet &Src,
                     const FnSet *Snk) {
    FnSet Core = Src;
    close(E, Core, /*Up=*/true);
    if (Snk) {
      FnSet SnkCone = *Snk;
      close(E, SnkCone, /*Up=*/true);
      FnSet Both;
      for (const Function *F : Core)
        if (SnkCone.count(F))
          Both.insert(F);
      Core = std::move(Both);
    }
    close(E, Core, /*Up=*/false);
    return Core;
  }

  static FnSet members(const Module &M, const svfa::RelevanceSet &R) {
    FnSet Out;
    for (const Function *F : M.functions())
      if (R.relevant(F))
        Out.insert(F);
    return Out;
  }
};

TEST_P(ConeSweep, SweepsMatchNaiveClosure) {
  Module M;
  std::vector<frontend::Diag> Diags;
  ASSERT_TRUE(frontend::parseModule(randomModule(GetParam()), M, Diags))
      << (Diags.empty() ? "" : Diags[0].str());
  CallGraph CG(M);
  ASSERT_LT(CG.numSCCs(), M.functions().size()) << "no recursion cycle";
  const CallEdges Edges = callEdges(M);

  const std::vector<checkers::CheckerSpec> Pool = {
      checkers::useAfterFreeChecker(), checkers::doubleFreeChecker(),
      checkers::nullDerefChecker(), checkers::pathTraversalChecker()};
  size_t Nonempty = 0;
  for (unsigned Mask = 1; Mask < 32; ++Mask) {
    for (bool SinkCones : {true, false}) {
      svfa::DemandSpec DS;
      for (size_t I = 0; I < Pool.size(); ++I)
        if (Mask & (1u << I))
          DS.Checkers.push_back(Pool[I]);
      DS.LeakSources = Mask & 16u;
      DS.UseSinkCones = SinkCones;
      const svfa::RelevanceArtifact A = svfa::computeRelevanceArtifact(CG, DS);
      const std::string Tag = "mask=" + std::to_string(Mask) +
                              " sinks=" + std::to_string(SinkCones);

      FnSet Union, UnionSrc, UnionSnk;
      size_t Slices = 0;
      auto expectSlice = [&](const std::string &Name, const FnSet &Src,
                             const FnSet *Snk) {
        FnSet Want = slice(Edges, Src, Snk);
        Union.insert(Want.begin(), Want.end());
        UnionSrc.insert(Src.begin(), Src.end());
        if (Snk)
          UnionSnk.insert(Snk->begin(), Snk->end());
        ++Slices;
        auto It = A.PerChecker.find(Name);
        ASSERT_NE(It, A.PerChecker.end()) << Tag << " " << Name;
        EXPECT_FALSE(It->second.All);
        EXPECT_EQ(members(M, It->second), Want) << Tag << " " << Name;
        EXPECT_EQ(It->second.SourceFns, Src.size()) << Tag << " " << Name;
        EXPECT_EQ(It->second.SinkFns, Snk ? Snk->size() : 0)
            << Tag << " " << Name;
      };
      for (const checkers::CheckerSpec &CS : DS.Checkers) {
        FnSet Src, Snk;
        for (const Function *F : M.functions()) {
          if (CS.hasSourceSite(*F))
            Src.insert(F);
          if (CS.hasSyntacticSinks() ? CS.hasSinkSite(*F)
                                     : CS.hasDerefSite(*F))
            Snk.insert(F);
        }
        const bool UseSnk =
            SinkCones && (CS.hasSyntacticSinks() || CS.DerefIsSink);
        expectSlice(CS.Name, Src, UseSnk ? &Snk : nullptr);
      }
      if (DS.LeakSources) {
        FnSet Src;
        for (const Function *F : M.functions())
          if (hasLeakSource(*F))
            Src.insert(F);
        expectSlice("leak", Src, nullptr);
      }

      EXPECT_EQ(A.PerChecker.size(), Slices) << Tag;
      EXPECT_FALSE(A.Union.All);
      EXPECT_EQ(members(M, A.Union), Union) << Tag;
      EXPECT_EQ(A.Union.SourceFns, UnionSrc.size()) << Tag;
      EXPECT_EQ(A.Union.SinkFns, UnionSnk.size()) << Tag;
      // computeRelevance is the union.
      EXPECT_EQ(members(M, svfa::computeRelevance(CG, M, DS)), Union) << Tag;
      Nonempty += !Union.empty() && Union.size() < M.functions().size();
    }
  }
  // Non-vacuity: many configurations keep some functions and skip others.
  EXPECT_GE(Nonempty, 8u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

//===----------------------------------------------------------------------===
// Malformed-input robustness (run-lifecycle resilience)
//===----------------------------------------------------------------------===

/// Adversarial-input property: no truncation or byte corruption of a valid
/// subject may crash the frontend — every mutation either parses (and then
/// survives the pipeline) or is rejected with diagnostics. Run under
/// ASan/UBSan in CI, where "never crashes" is checked with teeth.
class MalformedInput : public ::testing::TestWithParam<uint64_t> {
protected:
  std::string makeSource() {
    workload::WorkloadConfig Cfg;
    Cfg.Seed = GetParam();
    Cfg.TargetLoC = 400;
    Cfg.FeasibleUAF = 2;
    Cfg.FeasibleTaint = 1;
    Cfg.AliasNoise = 2;
    return workload::generate(Cfg).Source;
  }

  /// Parses \p Src and, when it still parses, pushes it through the whole
  /// per-function pipeline — corruption that survives parsing must also
  /// survive analysis.
  void expectNoCrash(const std::string &Src) {
    Module M;
    std::vector<frontend::Diag> Diags;
    if (!frontend::parseModule(Src, M, Diags)) {
      EXPECT_FALSE(Diags.empty()); // Rejection always says why.
      return;
    }
    smt::ExprContext Ctx;
    svfa::AnalyzedModule AM(M, Ctx);
    auto Errs = verifyModule(M, /*ExpectSSA=*/true);
    EXPECT_TRUE(Errs.empty()) << (Errs.empty() ? "" : Errs[0]);
  }
};

TEST_P(MalformedInput, RandomTruncationsNeverCrash) {
  const std::string Src = makeSource();
  RNG Rand(GetParam() * 7919 + 1);
  for (int I = 0; I < 24; ++I)
    expectNoCrash(Src.substr(0, Rand.below(Src.size() + 1)));
  // Degenerate prefixes too.
  expectNoCrash("");
  expectNoCrash(Src.substr(0, 1));
}

TEST_P(MalformedInput, RandomByteFlipsNeverCrash) {
  const std::string Src = makeSource();
  RNG Rand(GetParam() * 104729 + 3);
  for (int I = 0; I < 24; ++I) {
    std::string Mut = Src;
    // Up to three arbitrary byte corruptions per variant (any value,
    // including NUL and non-ASCII).
    for (uint64_t K = Rand.below(3) + 1; K > 0; --K)
      Mut[Rand.below(Mut.size())] = static_cast<char>(Rand.below(256));
    expectNoCrash(Mut);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MalformedInput,
                         ::testing::Values(101, 202, 303, 404));

} // namespace
} // namespace pinpoint
