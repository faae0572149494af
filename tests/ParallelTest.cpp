//===- tests/ParallelTest.cpp - Parallel engine correctness tests ----------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract of the parallel engine (`--jobs N`): scheduling is an
/// implementation detail, results are not. These tests pin down
///
///  * the ThreadPool primitives (completion, exception propagation, the
///    helping-wait that makes nested TaskGroup waits deadlock-free even on a
///    one-worker pool, and wake-ups under a storm of spawns from tasks);
///  * report-level determinism — analysing generator subjects with a
///    4-worker pool yields exactly the serial run's reports, in order,
///    and the same checker counters;
///  * fault isolation under parallelism — injected per-function failures
///    stay confined to their function with workers running concurrently;
///  * degradation events carrying the function name, so logs stay
///    attributable (and sortable) regardless of thread interleaving.
///
//===----------------------------------------------------------------------===//

#include "checkers/SpecialCheckers.h"
#include "frontend/Parser.h"
#include "support/FaultInjector.h"
#include "support/ResourceGovernor.h"
#include "support/ThreadPool.h"
#include "svfa/GlobalSVFA.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

using namespace pinpoint;

namespace pinpoint::svfa {
namespace {

//===----------------------------------------------------------------------===
// ThreadPool primitives
//===----------------------------------------------------------------------===

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.workers(), 4u);
  std::atomic<int> Sum{0};
  ThreadPool::TaskGroup G(Pool);
  for (int I = 1; I <= 100; ++I)
    G.spawn([&Sum, I] { Sum.fetch_add(I); });
  G.wait();
  EXPECT_EQ(Sum.load(), 5050);
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool Pool(2);
  {
    ThreadPool::TaskGroup G(Pool);
    for (int I = 0; I < 8; ++I)
      G.spawn([I] {
        if (I == 3)
          throw std::runtime_error("task 3 failed");
      });
    EXPECT_THROW(G.wait(), std::runtime_error);
  }
  // The pool must stay usable after a group saw an exception.
  std::atomic<int> Ran{0};
  ThreadPool::TaskGroup G2(Pool);
  for (int I = 0; I < 8; ++I)
    G2.spawn([&Ran] { Ran.fetch_add(1); });
  G2.wait();
  EXPECT_EQ(Ran.load(), 8);
}

TEST(ThreadPoolTest, NestedWaitDoesNotDeadlockOnOneWorker) {
  // Nested waits (a pool task that runs a TaskGroup of its own, as a
  // checker task would if its work fanned out) deadlock on a one-worker
  // pool unless wait() helps run queued tasks inline.
  ThreadPool Pool(1);
  std::atomic<int> Inner{0};
  ThreadPool::TaskGroup Outer(Pool);
  Outer.spawn([&Pool, &Inner] {
    ThreadPool::TaskGroup G(Pool);
    for (int I = 0; I < 4; ++I)
      G.spawn([&Inner] { Inner.fetch_add(1); });
    G.wait();
  });
  Outer.wait();
  EXPECT_EQ(Inner.load(), 4);
}

TEST(ThreadPoolTest, WaitingThreadHelpsRunTasks) {
  // Even the thread calling wait() (not a pool worker) must be able to
  // drain the queue, so a saturated pool cannot starve its waiter.
  ThreadPool Pool(1);
  std::atomic<int> Ran{0};
  ThreadPool::TaskGroup G(Pool);
  for (int I = 0; I < 64; ++I)
    G.spawn([&Ran] { Ran.fetch_add(1); });
  G.wait();
  EXPECT_EQ(Ran.load(), 64);
}

TEST(ThreadPoolTest, SpawnStormFromTasksRunsEveryTaskOnce) {
  // Each task spawns two children into its own group from inside the task,
  // as the pipeline's DAG walk does, while the main thread helps in wait():
  // a spawn that raced a sleeper's check of the queue and left its task
  // unrun would hang the wait or miss a count.
  constexpr size_t N = size_t(1) << 14;
  std::vector<std::atomic<int>> Runs(N);
  auto Pool = std::make_unique<ThreadPool>(8);
  uint64_t Pops = 0;
  {
    ThreadPool::TaskGroup G(*Pool);
    std::function<void(size_t)> Run = [&](size_t K) {
      Runs[K].fetch_add(1, std::memory_order_relaxed);
      for (size_t C = 2 * K + 1; C <= 2 * K + 2 && C < N; ++C)
        G.spawn([&Run, C] { Run(C); });
    };
    G.spawn([&Run] { Run(0); });
    G.wait();
    Pops = Pool->schedStats().InboxPops;
  }
  Pool.reset(); // Destroyed right after the wait: no task may be left.
  size_t Once = 0;
  for (const std::atomic<int> &R : Runs)
    Once += R.load() == 1;
  EXPECT_EQ(Once, N);
  EXPECT_EQ(Pops, N);
}

TEST(ThreadPoolTest, HardwareConcurrencyIsPositive) {
  EXPECT_GE(ThreadPool::hardwareConcurrency(), 1u);
}

//===----------------------------------------------------------------------===
// Determinism: jobs=4 must reproduce the serial reports byte for byte
//===----------------------------------------------------------------------===

std::string render(const Report &R) {
  std::string Out = R.Checker + "|" + R.SourceFn + ":" + R.Source.str() +
                    "->" + R.SinkFn + ":" + R.Sink.str() + "|" +
                    smt::toString(R.Verdict);
  for (const std::string &Step : R.Path)
    Out += "|" + Step;
  return Out;
}

/// One engine run: its rendered reports and the counters the CLI's
/// deterministic `[checker]` fields come from.
struct EngineRun {
  std::vector<std::string> Reports;
  GlobalSVFA::Stats Engine;
  smt::StagedSolver::Stats Solver;
};

/// Parses \p Src fresh (the pipeline mutates the module) and runs \p Spec
/// with a \p Jobs-worker pool (Jobs <= 1: the serial path).
EngineRun runEngine(const std::string &Src, const checkers::CheckerSpec &Spec,
                    unsigned Jobs, const std::string &FaultSpec = "",
                    Budget Bud = {}) {
  ir::Module M;
  std::vector<frontend::Diag> Diags;
  EXPECT_TRUE(frontend::parseModule(Src, M, Diags));
  for (auto &D : Diags)
    ADD_FAILURE() << D.str();
  smt::ExprContext Ctx;

  FaultInjector FI;
  if (!FaultSpec.empty()) {
    std::string Err;
    EXPECT_TRUE(FI.parse(FaultSpec, Err)) << Err;
  }
  ResourceGovernor Gov(Bud, std::move(FI));

  std::unique_ptr<ThreadPool> Pool;
  if (Jobs > 1)
    Pool = std::make_unique<ThreadPool>(Jobs);

  PipelineOptions PO;
  PO.Governor = &Gov;
  PO.Pool = Pool.get();
  AnalyzedModule AM(M, Ctx, PO);

  GlobalOptions GO;
  GO.Governor = &Gov;
  GO.Pool = Pool.get();
  GlobalSVFA Engine(AM, Spec, GO);

  EngineRun Out;
  for (const Report &R : Engine.run())
    Out.Reports.push_back(render(R));
  Out.Engine = Engine.stats();
  Out.Solver = Engine.solverStats();
  return Out;
}

std::vector<std::string> runRendered(const std::string &Src,
                                     const checkers::CheckerSpec &Spec,
                                     unsigned Jobs,
                                     const std::string &FaultSpec = "",
                                     Budget Bud = {}) {
  return runEngine(Src, Spec, Jobs, FaultSpec, Bud).Reports;
}

workload::WorkloadConfig subjectConfig(uint64_t Seed) {
  workload::WorkloadConfig C;
  C.Seed = Seed;
  C.TargetLoC = 800;
  C.FeasibleUAF = 3;
  C.InfeasibleUAF = 2;
  C.EnvGuardedUAF = 1;
  C.FeasibleDF = 2;
  C.FeasibleTaint = 2;
  C.InfeasibleTaint = 1;
  C.AliasNoise = 3;
  C.CallDepth = 3;
  return C;
}

TEST(ParallelDeterminismTest, WorkloadSubjectsMatchSerial) {
  const checkers::CheckerSpec Specs[] = {
      checkers::useAfterFreeChecker(), checkers::doubleFreeChecker(),
      checkers::pathTraversalChecker()};
  for (uint64_t Seed : {11u, 42u, 77u}) {
    workload::Workload W = workload::generate(subjectConfig(Seed));
    for (const checkers::CheckerSpec &Spec : Specs) {
      std::vector<std::string> Serial = runRendered(W.Source, Spec, 1);
      std::vector<std::string> Parallel = runRendered(W.Source, Spec, 4);
      EXPECT_EQ(Serial, Parallel)
          << "seed " << Seed << ", checker " << Spec.Name;
      // A subject with planted bugs must actually produce reports, or the
      // comparison is vacuous.
      if (Spec.Name == "use-after-free") {
        EXPECT_FALSE(Serial.empty()) << "seed " << Seed;
      }
    }
  }
}

TEST(ParallelDeterminismTest, RepeatedParallelRunsAreStable) {
  workload::Workload W = workload::generate(subjectConfig(5));
  const checkers::CheckerSpec Spec = checkers::useAfterFreeChecker();
  std::vector<std::string> First = runRendered(W.Source, Spec, 4);
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(runRendered(W.Source, Spec, 4), First) << "iteration " << I;
}

/// Fingerprint of the whole pipeline output: rewritten IR text plus
/// interface and SEG shape for every function, in bottom-up order.
std::string pipelineFingerprint(const std::string &Src, unsigned Jobs) {
  ir::Module M;
  std::vector<frontend::Diag> Diags;
  EXPECT_TRUE(frontend::parseModule(Src, M, Diags));
  smt::ExprContext Ctx;
  std::unique_ptr<ThreadPool> Pool;
  if (Jobs > 1)
    Pool = std::make_unique<ThreadPool>(Jobs);
  PipelineOptions PO;
  PO.Pool = Pool.get();
  AnalyzedModule AM(M, Ctx, PO);

  std::string Out;
  for (ir::Function *F : AM.bottomUpOrder()) {
    const AnalyzedFunction &I = AM.info(F);
    const transform::FunctionInterface &Iface = AM.interfaceOf(F);
    Out += F->str();
    Out += "refs=" + std::to_string(Iface.RefPaths.size()) +
           " mods=" + std::to_string(Iface.ModPaths.size()) +
           " edges=" + std::to_string(I.Seg ? I.Seg->numEdges() : 0) +
           " verts=" + std::to_string(I.Seg ? I.Seg->numVertices() : 0) + "\n";
  }
  return Out;
}

TEST(ParallelDeterminismTest, WideSubjectPipelineMatchesSerialExactly) {
  // Regression: a subject with hundreds of root SCCs (the generator's hub
  // allocators) and fast leaf tasks once made the scheduler's root scan
  // race with early completions and spawn some SCCs twice, running the
  // interface transform twice on one function. Small subjects never hit
  // the window; this wide one did on every run. The fingerprint covers the
  // rewritten IR itself, so a doubled transform cannot cancel out.
  workload::WorkloadConfig C;
  C.Seed = 3;
  C.TargetLoC = 6000;
  C.FeasibleUAF = 8;
  C.InfeasibleUAF = 4;
  C.EnvGuardedUAF = 2;
  C.FeasibleDF = 4;
  C.FeasibleTaint = 3;
  C.InfeasibleTaint = 2;
  C.AliasNoise = 8;
  C.CallDepth = 4;
  workload::Workload W = workload::generate(C);

  std::string Serial = pipelineFingerprint(W.Source, 1);
  for (unsigned Jobs : {2u, 4u})
    for (int Rep = 0; Rep < 2; ++Rep)
      EXPECT_EQ(Serial, pipelineFingerprint(W.Source, Jobs))
          << "jobs " << Jobs << ", rep " << Rep;
}

TEST(ParallelDeterminismTest, TwoSinksOnOneLineCountMatchesSerial) {
  // Both loads on the return line are sinks of the one free, so they share
  // a report key: the first candidate is reported and the second is
  // deduplicated before it reaches the solver. The checker counters must
  // say so at every pool width, not only the report list.
  constexpr const char *Src = R"(
    int twoloads(int *p, int c) {
      int *q = p;
      int *r = p;
      if (c > 0) {
        free(p);
      }
      return *q + *r;
    })";
  const checkers::CheckerSpec Spec = checkers::useAfterFreeChecker();
  const EngineRun Serial = runEngine(Src, Spec, 1);
  const EngineRun Parallel = runEngine(Src, Spec, 4);
  ASSERT_EQ(Serial.Reports.size(), 1u);
  EXPECT_EQ(Serial.Engine.Candidates, 1u);
  EXPECT_EQ(Serial.Solver.Queries, 1u);
  EXPECT_EQ(Parallel.Reports, Serial.Reports);
  EXPECT_EQ(Parallel.Engine.Candidates, Serial.Engine.Candidates);
  EXPECT_EQ(Parallel.Solver.Queries, Serial.Solver.Queries);
  EXPECT_EQ(Parallel.Solver.BackendQueries, Serial.Solver.BackendQueries);
}

//===----------------------------------------------------------------------===
// Schedule determinism: every pool width reproduces the serial reports
//===----------------------------------------------------------------------===

/// A \p Layers x \p Width diamond lattice of singleton SCCs: every
/// function in layer L calls two adjacent functions of layer L+1 (the
/// cones re-join, so mid-lattice SCCs become ready in bursts and the
/// scheduler's dispatch order really matters). Each bottom leaf plants a
/// feasible use-after-free; the layer above allocates, so value flow stays
/// one call deep — threading one pointer through the whole lattice would
/// double the path conditions per layer and swamp the scheduling question
/// this subject exists to ask.
std::string diamondLatticeSubject(unsigned Layers, unsigned Width) {
  std::string S;
  // Bottom-up so every callee is defined before its caller.
  for (unsigned L = Layers; L-- > 0;) {
    for (unsigned J = 0; J < Width; ++J) {
      std::string Name = "d" + std::to_string(L) + "_" + std::to_string(J);
      std::string A = "d" + std::to_string(L + 1) + "_" + std::to_string(J);
      std::string B = "d" + std::to_string(L + 1) + "_" +
                      std::to_string((J + 1) % Width);
      if (L + 1 == Layers) {
        S += "int " + Name + "(int *p, int c) { if (c > 0) { free(p); } "
             "if (c > 1) { int x = *p; } return c; }\n";
      } else if (L + 2 == Layers) {
        S += "int " + Name + "(int c) { int *p = malloc(4); int a = " + A +
             "(p, c); int b = " + B + "(p, c); return a + b; }\n";
      } else {
        S += "int " + Name + "(int c) { int a = " + A + "(c); int b = " + B +
             "(c); return a + b; }\n";
      }
    }
  }
  return S;
}

/// runRendered with a pool of \p Jobs workers attached to both the
/// pipeline and the engine (a one-worker pool takes their serial paths).
std::vector<std::string> runLattice(const std::string &Src, unsigned Jobs) {
  ir::Module M;
  std::vector<frontend::Diag> Diags;
  EXPECT_TRUE(frontend::parseModule(Src, M, Diags));
  smt::ExprContext Ctx;
  ThreadPool Pool(Jobs);
  PipelineOptions PO;
  PO.Pool = &Pool;
  AnalyzedModule AM(M, Ctx, PO);
  GlobalOptions GO;
  GO.Pool = &Pool;
  GlobalSVFA Engine(AM, checkers::useAfterFreeChecker(), GO);
  std::vector<std::string> Out;
  for (const Report &R : Engine.run())
    Out.push_back(render(R));
  return Out;
}

TEST(ParallelDeterminismTest, DiamondLatticeMatchesAcrossSchedules) {
  // 10 x 5 = 50 SCCs. The serial loop is the reference; pools of one, two
  // and eight workers must reproduce its reports exactly — dispatch order
  // is scheduling detail, never output.
  const std::string Src = diamondLatticeSubject(10, 5);
  const std::vector<std::string> Serial =
      runRendered(Src, checkers::useAfterFreeChecker(), 1);
  EXPECT_FALSE(Serial.empty()) << "lattice planted no findings";
  for (unsigned Jobs : {1u, 2u, 8u})
    EXPECT_EQ(runLattice(Src, Jobs), Serial) << "jobs=" << Jobs;
}

//===----------------------------------------------------------------------===
// Fault isolation under parallelism
//===----------------------------------------------------------------------===

constexpr const char *TwoBugSrc = R"(
  int f1(int *p) {
    free(p);
    return *p;
  }
  int f2(int *q) {
    free(q);
    return *q;
  })";

constexpr const char *GuardedBugSrc = R"(
  int f(int *p, int c) {
    if (c > 0) {
      free(p);
    }
    return *p;
  })";

TEST(ParallelFaultTest, SvfaThrowIsolatedUnderJobs4) {
  // f1's analysis throws; with four workers f2's reports must survive and
  // match the serial run exactly.
  std::vector<std::string> Serial =
      runRendered(TwoBugSrc, checkers::useAfterFreeChecker(), 1,
                  "seed=7,throw-fn=f1");
  std::vector<std::string> Parallel =
      runRendered(TwoBugSrc, checkers::useAfterFreeChecker(), 4,
                  "seed=7,throw-fn=f1");
  EXPECT_EQ(Serial, Parallel);
  ASSERT_EQ(Parallel.size(), 1u);
  EXPECT_NE(Parallel[0].find("f2"), std::string::npos);
}

TEST(ParallelFaultTest, PipelineThrowIsolatedUnderJobs4) {
  // The per-function pipeline task for f1 throws inside a pool worker: f1
  // degrades to the conservative fallback, f2 is untouched, and the
  // resulting reports equal the serial run's.
  std::vector<std::string> Serial =
      runRendered(TwoBugSrc, checkers::useAfterFreeChecker(), 1,
                  "seed=7,pipeline-throw-fn=f1");
  std::vector<std::string> Parallel =
      runRendered(TwoBugSrc, checkers::useAfterFreeChecker(), 4,
                  "seed=7,pipeline-throw-fn=f1");
  EXPECT_EQ(Serial, Parallel);
  EXPECT_FALSE(Parallel.empty());
}

TEST(ParallelFaultTest, ForcedSolverUnknownMatchesSerial) {
  // Every draw fires at solver-unknown=100, whatever the draw order.
  std::vector<std::string> Serial =
      runRendered(GuardedBugSrc, checkers::useAfterFreeChecker(), 1,
                  "seed=7,solver-unknown=100");
  std::vector<std::string> Parallel =
      runRendered(GuardedBugSrc, checkers::useAfterFreeChecker(), 4,
                  "seed=7,solver-unknown=100");
  EXPECT_EQ(Serial, Parallel);
  ASSERT_EQ(Parallel.size(), 1u);
  EXPECT_NE(Parallel[0].find("unknown"), std::string::npos);
}

/// \p N functions, each with one guarded use-after-free whose path
/// condition passes the linear filter and goes to the backend.
std::string guardedBugsSubject(unsigned N) {
  std::string S;
  for (unsigned I = 0; I < N; ++I)
    S += "int g" + std::to_string(I) + "(int *p, int c) { if (c > " +
         std::to_string(I) + ") { free(p); } return *p; }\n";
  return S;
}

TEST(ParallelFaultTest, PartialSolverUnknownMatchesSerial) {
  // A partial rate draws once per backend query. The engine decides each
  // candidate inline, in generation order, so a pool changes neither which
  // query takes which draw nor the resulting verdicts.
  const std::string Src = guardedBugsSubject(24);
  const checkers::CheckerSpec Spec = checkers::useAfterFreeChecker();
  const std::string Faults = "seed=7,solver-unknown=50";
  const EngineRun Serial = runEngine(Src, Spec, 1, Faults);
  ASSERT_EQ(Serial.Reports.size(), 24u);
  // Both verdicts occur, so the comparison below is not vacuous.
  EXPECT_GT(Serial.Engine.SolverSat, 0u);
  EXPECT_GT(Serial.Engine.SolverUnknown, 0u);
  for (int Rep = 0; Rep < 3; ++Rep) {
    const EngineRun Parallel = runEngine(Src, Spec, 4, Faults);
    EXPECT_EQ(Parallel.Reports, Serial.Reports) << "rep " << Rep;
    EXPECT_EQ(Parallel.Solver.InjectedUnknown, Serial.Solver.InjectedUnknown)
        << "rep " << Rep;
  }
}

//===----------------------------------------------------------------------===
// Degradation events stay attributable under parallelism
//===----------------------------------------------------------------------===

TEST(ParallelDegradationTest, EventsCarryFunctionAndMatchSerial) {
  workload::Workload W = workload::generate(subjectConfig(11));

  auto collect = [&](unsigned Jobs) {
    ir::Module M;
    std::vector<frontend::Diag> Diags;
    EXPECT_TRUE(frontend::parseModule(W.Source, M, Diags));
    smt::ExprContext Ctx;
    Budget B;
    B.MaxClosureSteps = 2; // Force closure truncation everywhere.
    ResourceGovernor Gov(B);
    std::unique_ptr<ThreadPool> Pool;
    if (Jobs > 1)
      Pool = std::make_unique<ThreadPool>(Jobs);
    PipelineOptions PO;
    PO.Governor = &Gov;
    PO.Pool = Pool.get();
    AnalyzedModule AM(M, Ctx, PO);
    GlobalOptions GO;
    GO.Governor = &Gov;
    GO.Pool = Pool.get();
    GlobalSVFA Engine(AM, checkers::useAfterFreeChecker(), GO);
    (void)Engine.run();

    // Sorted multiset of (stage, function, kind, detail): the parallel log
    // arrives in completion order but must hold the same events.
    std::multiset<std::string> Events;
    for (const DegradationEvent &E : Gov.log().events()) {
      if (E.Kind == DegradationKind::ClosureTruncated) {
        EXPECT_FALSE(E.Function.empty()) << E.Detail;
      }
      Events.insert(E.Stage + "|" + E.Function + "|" +
                    std::to_string(static_cast<int>(E.Kind)) + "|" + E.Detail);
    }
    return Events;
  };

  std::multiset<std::string> Serial = collect(1);
  std::multiset<std::string> Parallel = collect(4);
  EXPECT_FALSE(Serial.empty());
  EXPECT_EQ(Serial, Parallel);
}

} // namespace
} // namespace pinpoint::svfa
