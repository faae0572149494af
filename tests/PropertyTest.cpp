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

#include "frontend/Parser.h"
#include "ir/CallGraph.h"
#include "ir/Verifier.h"
#include "smt/LinearSolver.h"
#include "smt/Solver.h"
#include "support/RNG.h"
#include "support/ResourceGovernor.h"
#include "support/Statistics.h"
#include "support/SummaryCache.h"
#include "svfa/GlobalSVFA.h"
#include "workload/Evaluate.h"

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>

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
      Bools.push_back(Ctx.freshBoolVar("b" + std::to_string(I)));
      Ints.push_back(Ctx.freshIntVar("i" + std::to_string(I)));
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

TEST_P(PipelineProperty, LoadDepConditionsAreSatisfiable) {
  // The quasi path-sensitive points-to must never emit a dependence whose
  // condition the SMT solver refutes: the linear filter only prunes, never
  // invents.
  workload::Workload W = makeWorkload();
  Module M;
  std::vector<frontend::Diag> Diags;
  ASSERT_TRUE(frontend::parseModule(W.Source, M, Diags));
  smt::ExprContext Ctx;
  svfa::AnalyzedModule AM(M, Ctx);
  auto Solver = smt::createDefaultSolver(Ctx);
  int Checked = 0;
  for (Function *F : M.functions()) {
    const auto &PTA = AM.info(F).PTA;
    for (BasicBlock *B : F->blocks())
      for (Stmt *S : B->stmts())
        if (auto *L = dyn_cast<LoadStmt>(S))
          for (auto &[CV, C] : PTA.loadDeps(L)) {
            if (Checked++ > 200)
              return; // Bound the SMT work per sweep instance.
            EXPECT_NE(Solver->checkSat(C), smt::SatResult::Unsat)
                << F->name() << ": " << Ctx.toString(C);
          }
  }
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
  const std::string Entry =
      (std::filesystem::path(Dir) / "relevance").string();
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
