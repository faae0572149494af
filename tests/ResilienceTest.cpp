//===- tests/ResilienceTest.cpp - Degradation & fault-injection tests ------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises the ResourceGovernor degradation paths end-to-end: solver
/// Unknown verdicts are kept (tagged) rather than dropped, budget
/// exhaustion truncates with logged events instead of hanging, and an
/// exception in one function's analysis is isolated without losing the
/// reports of every other function.
///
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "support/FaultInjector.h"
#include "support/ResourceGovernor.h"
#include "svfa/GlobalSVFA.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <thread>

using namespace pinpoint::ir;

namespace pinpoint::svfa {
namespace {

/// Two independent use-after-free bugs in two unrelated functions.
constexpr const char *TwoBugSrc = R"(
  int f1(int *p) {
    free(p);
    return *p;
  }
  int f2(int *q) {
    free(q);
    return *q;
  })";

/// A use-after-free whose search walks two steps (p, then its copy q), so
/// a one-step closure budget truncates the event's own closure.
constexpr const char *CopiedUseSrc = R"(
  int f(int *p) {
    free(p);
    int *q = p;
    return *q;
  })";

/// A dereference behind two wrapper calls. top's event reads wrap2's VF4,
/// which builds the cone deref <- wrap1 <- wrap2 on first use, in the
/// middle of top's own walk.
constexpr const char *WrappedDerefSrc = R"(
  int deref(int *p) {
    int *q = p;
    return *q;
  }
  int wrap1(int *p) { return deref(p); }
  int wrap2(int *p) {
    int *s = p;
    return wrap1(s);
  }
  int top(int *p) {
    free(p);
    int r = wrap2(p);
    int *q = p;
    return r + *q;
  })";

/// A branch-guarded bug: the path condition is satisfiable but not
/// trivially true, so the staged solver must consult the backend.
constexpr const char *GuardedBugSrc = R"(
  int f(int *p, int c) {
    if (c > 0) {
      free(p);
    }
    return *p;
  })";

/// A feasible guarded bug next to an infeasible one that only the SMT
/// backend refutes: the free needs c > 5 and the use c < 3, two distinct
/// atoms the linear filter cannot play against each other.
constexpr const char *BackendRefutedSrc = R"(
  int f(int *p, int c) {
    if (c > 0) {
      free(p);
    }
    return *p;
  }
  int g(int *q, int c) {
    if (c > 5) {
      free(q);
    }
    if (c < 3) {
      return *q;
    }
    return 0;
  })";

class ResilienceTest : public ::testing::Test {
protected:
  void parse(std::string_view Src) {
    M = std::make_unique<Module>();
    std::vector<frontend::Diag> Diags;
    bool OK = frontend::parseModule(Src, *M, Diags);
    for (auto &D : Diags)
      ADD_FAILURE() << D.str();
    ASSERT_TRUE(OK);
    Ctx = std::make_unique<smt::ExprContext>();
  }

  /// Runs the UAF checker under \p Gov and stores the engine stats.
  std::vector<Report> runUAF(ResourceGovernor &Gov) {
    PipelineOptions PO;
    PO.Governor = &Gov;
    AnalyzedModule AM(*M, *Ctx, PO);
    GlobalOptions GO;
    GO.Governor = &Gov;
    GlobalSVFA Engine(AM, checkers::useAfterFreeChecker(), GO);
    auto Reports = Engine.run();
    EngineStats = Engine.stats();
    return Reports;
  }

  std::unique_ptr<Module> M;
  std::unique_ptr<smt::ExprContext> Ctx;
  GlobalSVFA::Stats EngineStats;
};

//===----------------------------------------------------------------------===
// (a) Solver Unknown yields a tagged report, not a drop
//===----------------------------------------------------------------------===

TEST_F(ResilienceTest, UnknownVerdictKeepsTaggedReport) {
  parse(GuardedBugSrc);
  FaultInjector FI;
  std::string Err;
  ASSERT_TRUE(FI.parse("seed=7,solver-unknown=100", Err)) << Err;
  ResourceGovernor Gov({}, std::move(FI));

  auto Reports = runUAF(Gov);
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].Verdict, smt::SatResult::Unknown);
  EXPECT_EQ(EngineStats.SolverUnknown, 1u);
  EXPECT_EQ(EngineStats.SolverSat, 0u);
  EXPECT_GT(Gov.log().count(DegradationKind::InjectedFault), 0u);
}

TEST_F(ResilienceTest, SatVerdictWithoutInjection) {
  parse(GuardedBugSrc);
  ResourceGovernor Gov;
  auto Reports = runUAF(Gov);
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].Verdict, smt::SatResult::Sat);
  EXPECT_EQ(EngineStats.SolverUnknown, 0u);
}

TEST_F(ResilienceTest, MiniSolverStepBudgetReturnsUnknown) {
  smt::ExprContext C;
  // (a || b) && (!a || c): satisfiable, but any budget of 1 DPLL step
  // cannot decide it.
  const smt::Expr *A = C.freshBoolVar(), *B = C.freshBoolVar(),
                  *D = C.freshBoolVar();
  const smt::Expr *E = C.mkAnd(C.mkOr(A, B), C.mkOr(C.mkNot(A), D));
  auto Tight = smt::createMiniSolver(C, {.MaxSteps = 1});
  EXPECT_EQ(Tight->checkSat(E), smt::SatResult::Unknown);
  auto Roomy = smt::createMiniSolver(C, {.MaxSteps = 100000});
  EXPECT_EQ(Roomy->checkSat(E), smt::SatResult::Sat);
}

TEST_F(ResilienceTest, ZeroSolverTimeoutMeansUnbounded) {
  smt::ExprContext Probe;
  if (!smt::createZ3Solver(Probe))
    GTEST_SKIP() << "Z3 unavailable";
  parse(BackendRefutedSrc);
  ResourceGovernor Default;
  auto Expected = runUAF(Default);
  ASSERT_EQ(Expected.size(), 1u);
  EXPECT_EQ(Expected[0].SourceFn, "f");

  // 0 means "no limit", not "give up at once": g's infeasible bug must
  // still be refuted rather than kept as an Unknown report.
  parse(BackendRefutedSrc);
  Budget B;
  B.SolverTimeoutMs = 0;
  ResourceGovernor Unbounded(B);
  auto Reports = runUAF(Unbounded);
  ASSERT_EQ(Reports.size(), Expected.size());
  for (size_t I = 0; I < Reports.size(); ++I) {
    EXPECT_EQ(Reports[I].SourceFn, Expected[I].SourceFn);
    EXPECT_EQ(Reports[I].Source.Line, Expected[I].Source.Line);
    EXPECT_EQ(Reports[I].Sink.Line, Expected[I].Sink.Line);
    EXPECT_EQ(Reports[I].Verdict, Expected[I].Verdict);
  }
  EXPECT_EQ(Unbounded.log().count(DegradationKind::SolverUnknown), 0u);
}

//===----------------------------------------------------------------------===
// (b) Budget exhaustion terminates with a logged event
//===----------------------------------------------------------------------===

TEST_F(ResilienceTest, ClosureStepBudgetTruncatesWithEvent) {
  parse(CopiedUseSrc);
  Budget B;
  B.MaxClosureSteps = 1;
  ResourceGovernor Gov(B);
  auto Reports = runUAF(Gov); // Must terminate; reports are best-effort.
  EXPECT_GT(Gov.log().count(DegradationKind::ClosureTruncated), 0u);
  for (const DegradationEvent &E : Gov.log().events()) {
    if (E.Kind == DegradationKind::ClosureTruncated) {
      EXPECT_EQ(E.Stage, "closure");
      EXPECT_EQ(E.Function, "f");
    }
  }
}

TEST_F(ResilienceTest, TruncationInsideLazilyBuiltCalleeNamesTheCallee) {
  // Only top has an event; the summaries of deref, wrap1 and wrap2 are
  // built when top's closure first reads wrap2's VF4, each under its own
  // budget, and a truncation there is attributed to the callee.
  parse(WrappedDerefSrc);
  Budget B;
  B.MaxClosureSteps = 1;
  ResourceGovernor Gov(B);
  runUAF(Gov);
  bool SawDeref = false;
  for (const DegradationEvent &E : Gov.log().events())
    if (E.Kind == DegradationKind::ClosureTruncated && E.Function == "deref")
      SawDeref = true;
  EXPECT_TRUE(SawDeref);
}

TEST_F(ResilienceTest, LazyCalleeBuildResumesTheReadersClosureBudget) {
  // Four steps cover every closure here, but not what the cone's last
  // closure leaves of them: top's walk must resume with its own remaining
  // steps after the cone is built, or it stops after its first step and
  // loses the use through q (the one inside deref is found either way).
  parse(WrappedDerefSrc);
  Budget B;
  B.MaxClosureSteps = 4;
  ResourceGovernor Gov(B);
  auto Reports = runUAF(Gov);
  EXPECT_EQ(Gov.log().count(DegradationKind::ClosureTruncated), 0u);
  std::set<std::string> Sinks;
  for (const Report &R : Reports) {
    EXPECT_EQ(R.SourceFn, "top");
    Sinks.insert(R.SinkFn);
  }
  EXPECT_EQ(Sinks, (std::set<std::string>{"deref", "top"}));
  EXPECT_EQ(Reports.size(), 2u);
}

TEST_F(ResilienceTest, ExhaustedRunBudgetSkipsEverythingGracefully) {
  parse(TwoBugSrc);
  Budget B;
  B.RunWallMs = 0; // Already expired when the engines start.
  ResourceGovernor Gov(B);
  auto Reports = runUAF(Gov);
  EXPECT_TRUE(Reports.empty());
  EXPECT_GT(Gov.log().count(DegradationKind::RunBudgetExhausted), 0u);
}

TEST_F(ResilienceTest, PTAStepBudgetMarksTruncation) {
  parse(TwoBugSrc);
  Budget B;
  B.MaxPTASteps = 1;
  ResourceGovernor Gov(B);
  runUAF(Gov);
  EXPECT_GT(Gov.log().count(DegradationKind::PTATruncated), 0u);
}

TEST_F(ResilienceTest, OversizedFunctionsDegradeButStillReportLocalBugs) {
  parse(TwoBugSrc);
  Budget B;
  B.MaxFunctionStmts = 1; // Every function is "oversized".
  ResourceGovernor Gov(B);
  auto Reports = runUAF(Gov);
  EXPECT_GT(Gov.log().count(DegradationKind::FunctionOversized), 0u);
  // The conservative fallback still carries direct def-use flow, so these
  // purely local free-then-deref bugs survive degradation.
  EXPECT_EQ(Reports.size(), 2u);
}

//===----------------------------------------------------------------------===
// (c) One function's failure does not lose the others' reports
//===----------------------------------------------------------------------===

TEST_F(ResilienceTest, InjectedFunctionThrowIsIsolated) {
  parse(TwoBugSrc);
  ResourceGovernor Baseline;
  ASSERT_EQ(runUAF(Baseline).size(), 2u);

  parse(TwoBugSrc);
  FaultInjector FI;
  std::string Err;
  ASSERT_TRUE(FI.parse("throw-fn=f1", Err)) << Err;
  ResourceGovernor Gov({}, std::move(FI));
  auto Reports = runUAF(Gov);
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].SourceFn, "f2");
  EXPECT_EQ(EngineStats.IsolatedFailures, 1u);
  EXPECT_EQ(Gov.log().count(DegradationKind::FunctionFailed), 1u);
}

TEST_F(ResilienceTest, PipelineFaultIsolatedToOneFunction) {
  parse(TwoBugSrc);
  FaultInjector FI;
  std::string Err;
  ASSERT_TRUE(FI.parse("pipeline-throw-fn=f1", Err)) << Err;
  ResourceGovernor Gov({}, std::move(FI));
  auto Reports = runUAF(Gov);
  EXPECT_EQ(Gov.log().count(DegradationKind::FunctionFailed), 1u);
  // f2 is untouched; f1 falls back to the degraded build (which may or may
  // not still find its local bug, but must not crash or mask f2).
  bool SawF2 = false;
  for (const Report &R : Reports)
    SawF2 |= R.SourceFn == "f2";
  EXPECT_TRUE(SawF2);
}

//===----------------------------------------------------------------------===
// FaultInjector spec parsing
//===----------------------------------------------------------------------===

TEST(FaultInjectorTest, ParsesFullSpec) {
  FaultInjector FI;
  std::string Err;
  EXPECT_TRUE(FI.parse(
      "seed=42,solver-unknown=50,throw-fn=a,pipeline-throw-fn=b,"
      "throw-checker=uaf",
      Err))
      << Err;
  EXPECT_TRUE(FI.enabled());
  EXPECT_TRUE(FI.injectFunctionThrow("a"));
  EXPECT_FALSE(FI.injectFunctionThrow("b"));
  EXPECT_TRUE(FI.injectPipelineThrow("b"));
  EXPECT_TRUE(FI.injectCheckerThrow("uaf"));
}

TEST(FaultInjectorTest, RejectsMalformedSpecs) {
  FaultInjector FI;
  std::string Err;
  EXPECT_FALSE(FI.parse("bogus-key=1", Err));
  EXPECT_FALSE(FI.parse("solver-unknown=150", Err));
  EXPECT_FALSE(FI.parse("solver-unknown=abc", Err));
  EXPECT_FALSE(FI.parse("seed", Err));
  EXPECT_FALSE(FI.enabled());
}

TEST(FaultInjectorTest, SolverUnknownIsDeterministicPerSeed) {
  std::string Err;
  auto Draw = [&](uint64_t) {
    FaultInjector FI;
    EXPECT_TRUE(FI.parse("seed=9,solver-unknown=50", Err));
    std::vector<bool> Out;
    for (int I = 0; I < 64; ++I)
      Out.push_back(FI.injectSolverUnknown());
    return Out;
  };
  EXPECT_EQ(Draw(9), Draw(9));
}

//===----------------------------------------------------------------------===
// DegradationLog bookkeeping
//===----------------------------------------------------------------------===

TEST(DegradationLogTest, KeepsTheSmallestEventsPastTheCap) {
  // 5,000 distinct events noted from 4 threads in shuffled order: the log
  // stores exactly the 4,096 smallest in its order, whatever the arrival
  // order, and counts the rest.
  std::vector<DegradationEvent> All;
  for (int I = 0; I < 5000; ++I) {
    std::string N = std::to_string(I);
    All.push_back({static_cast<DegradationKind>(I % 3),
                   I % 2 ? "svfa" : "closure",
                   "fn" + std::string(5 - N.size(), '0') + N, "d" + N});
  }
  std::vector<DegradationEvent> Shuffled = All;
  std::shuffle(Shuffled.begin(), Shuffled.end(), std::mt19937(20261018));

  DegradationLog Log;
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < 4; ++T)
    Threads.emplace_back([&, T] {
      for (size_t I = T; I < Shuffled.size(); I += 4) {
        const DegradationEvent &E = Shuffled[I];
        Log.note(E.Kind, E.Stage, E.Function, E.Detail);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  std::sort(All.begin(), All.end());
  All.resize(DegradationLog::MaxStoredEvents);
  std::vector<DegradationEvent> Stored = Log.events();
  ASSERT_EQ(Stored.size(), All.size());
  for (size_t I = 0; I < All.size(); ++I) {
    EXPECT_EQ(Stored[I].Stage, All[I].Stage) << I;
    EXPECT_EQ(Stored[I].Function, All[I].Function) << I;
    EXPECT_EQ(Stored[I].Kind, All[I].Kind) << I;
    EXPECT_EQ(Stored[I].Detail, All[I].Detail) << I;
  }
  EXPECT_EQ(Log.total(), 5000u);
  EXPECT_EQ(Log.dropped(), 5000u - DegradationLog::MaxStoredEvents);
}

TEST(DegradationLogTest, CountsAndSummarizes) {
  DegradationLog Log;
  Log.note(DegradationKind::SolverUnknown, "smt", "f1", "q1");
  Log.note(DegradationKind::SolverUnknown, "smt", "f1", "q2");
  Log.note(DegradationKind::CheckerFailed, "checker", "uaf", "boom");
  EXPECT_EQ(Log.count(DegradationKind::SolverUnknown), 2u);
  EXPECT_EQ(Log.count(DegradationKind::CheckerFailed), 1u);
  EXPECT_EQ(Log.total(), 3u);
  EXPECT_EQ(Log.events().size(), 3u);
  std::string S = Log.summary();
  EXPECT_NE(S.find("degradations=3"), std::string::npos);
  EXPECT_NE(S.find("solver-unknown=2"), std::string::npos);
  EXPECT_NE(S.find("checker-failed=1"), std::string::npos);
}

} // namespace
} // namespace pinpoint::svfa
