//===- tests/LifecycleTest.cpp - Run-lifecycle resilience tests ------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The run-lifecycle contract (DESIGN.md section 12), enforced end to end:
///
///  * SIGTERM mid-run: the forked CLI child exits with code 3 and a
///    well-formed partial report ([partial] trailer, stats, degradation
///    log), having flushed completed-SCC cache entries;
///  * interrupt/resume: an interrupted run followed by a warm rerun over
///    the same cache directory is byte-identical to an uninterrupted run,
///    at --jobs 1 and 4, and the resumed run reports `resumed-sccs`, which
///    counts exactly the SCCs whose members all replayed from the cache;
///  * memory governance: an undersized --mem-budget-mb yields the same
///    MemoryPressure degradation set across runs and job counts, and the
///    per-structure accounting balances when the module is destroyed;
///  * cooperative cancellation at the library level: a pre-cancelled token
///    degrades everything, logs once, stores nothing in the summary cache;
///  * transient-fault retry: bounded retries recover from injected
///    transient backend failures, exhaustion degrades to Unknown with a
///    SolverTransient event, and 100%-transient injection still terminates.
///
/// The CLI tests fork a child that calls `pinpointToolMain` directly — the
/// exact production code path including signal handlers and exit codes —
/// through tests/CliHarness.h, and are skipped under TSan (fork +
/// instrumented threads do not mix).
///
//===----------------------------------------------------------------------===//

#include "CliHarness.h"

#include "checkers/Checker.h"
#include "frontend/Parser.h"
#include "smt/Solver.h"
#include "support/Interrupt.h"
#include "support/ResourceGovernor.h"
#include "support/Statistics.h"
#include "support/SummaryCache.h"
#include "support/ThreadPool.h"
#include "svfa/GlobalSVFA.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#if PINPOINT_CLI_TESTS
#include <csignal>
#endif

using namespace pinpoint;
using namespace pinpoint::clitest;

namespace {

//===----------------------------------------------------------------------===
// Harness
//===----------------------------------------------------------------------===

/// A deterministic subject with one feasible use-after-free per function
/// pair: enough independent SCCs for the scheduler, the cache and the
/// memory plan to have real work, with a known report per pair.
std::string pairSubject(int Pairs) {
  std::string S;
  for (int I = 0; I < Pairs; ++I) {
    std::string N = std::to_string(I);
    S += "void use" + N + "(int *p, int c) { if (c > " + N +
         ") { free(p); } if (c > " + std::to_string(I + 1) +
         ") { int x = *p; } }\n";
    S += "int caller" + N + "(int c) { int *p = malloc(4); use" + N +
         "(p, c); return 0; }\n";
  }
  return S;
}

#if PINPOINT_CLI_TESTS

size_t cacheEntryCount(const std::string &Dir) {
  size_t N = 0;
  std::error_code EC;
  for (auto It = std::filesystem::directory_iterator(Dir, EC);
       !EC && It != std::filesystem::directory_iterator(); ++It)
    if (It->path().extension() == ".pps")
      ++N;
  return N;
}

/// Launches a paced run over \p CacheDir, waits until at least \p MinEntries
/// summaries hit the disk, SIGTERMs the child and returns its exit code.
int interruptPacedRun(const std::string &Subject, const std::string &CacheDir,
                      const std::string &OutFile, size_t MinEntries) {
  pid_t Pid = spawnTool({"--jobs=2", "--cache-dir=" + CacheDir,
                         "--fault-inject=pace-fn-ms=20", "--stats",
                         "--degradation-log", Subject},
                        OutFile);
  // Wait for real progress (flushed cache entries), then interrupt. The
  // pacing gives the parent seconds of margin before the child finishes.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (cacheEntryCount(CacheDir) < MinEntries &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(cacheEntryCount(CacheDir), MinEntries)
      << "child made no progress before the deadline";
  kill(Pid, SIGTERM);
  return waitTool(Pid);
}

//===----------------------------------------------------------------------===
// CLI lifecycle: interrupt, flush, resume
//===----------------------------------------------------------------------===

TEST(LifecycleCLI, SigtermFlushesPartialReportAndExits3) {
  TempDir T("sigterm");
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << pairSubject(60);
  const std::string CacheDir = T.file("cache");

  int RC = interruptPacedRun(Subject, CacheDir, T.file("int.out"), 4);
  EXPECT_EQ(RC, 3);

  const std::string Out = readFile(T.file("int.out"));
  // Well-formed partial report: the trailer, the final count line, the
  // stats blocks and the cancellation degradations all flushed.
  EXPECT_NE(Out.find("[partial] run interrupted (signal 15)"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find(" report(s)\n"), std::string::npos) << Out;
  EXPECT_NE(Out.find("[pipeline]"), std::string::npos) << Out;
  EXPECT_NE(Out.find("[governor]"), std::string::npos) << Out;
  EXPECT_NE(Out.find("cancelled"), std::string::npos) << Out;

  // Completed SCCs were flushed as summary-cache entries, and the
  // directory holds nothing else.
  EXPECT_GE(cacheEntryCount(CacheDir), size_t(4));
  for (const auto &E : std::filesystem::directory_iterator(CacheDir))
    EXPECT_EQ(E.path().extension(), ".pps") << E.path();
}

TEST(LifecycleCLI, InterruptedPlusResumedMatchesUninterrupted) {
  TempDir T("resume");
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << pairSubject(60);
  const std::string CacheDir = T.file("cache");

  ASSERT_EQ(interruptPacedRun(Subject, CacheDir, T.file("int.out"), 4), 3);

  // Uninterrupted reference (no cache, no pacing).
  ASSERT_EQ(runTool({Subject}, T.file("clean.out")), 0);
  const std::string Clean = readFile(T.file("clean.out"));
  ASSERT_NE(Clean.find(" report(s)\n"), std::string::npos);

  // Warm rerun over the interrupted run's cache: byte-identical, at both
  // job counts.
  ASSERT_EQ(runTool({"--cache-dir=" + CacheDir, Subject}, T.file("res1.out")),
            0);
  EXPECT_EQ(readFile(T.file("res1.out")), Clean);
  ASSERT_EQ(runTool({"--jobs=4", "--cache-dir=" + CacheDir, Subject},
                    T.file("res4.out")),
            0);
  EXPECT_EQ(readFile(T.file("res4.out")), Clean);

  // A resumed --stats run reports the SCCs it resumed past.
  ASSERT_EQ(runTool({"--stats", "--cache-dir=" + CacheDir, Subject},
                    T.file("stats.out")),
            0);
  const std::string Stats = readFile(T.file("stats.out"));
  ASSERT_GE(statValue(Stats, "[lifecycle]", "resumed-sccs"), 0) << Stats;
  EXPECT_GT(statValue(Stats, "[lifecycle]", "resumed-sccs"), 0) << Stats;
}

TEST(LifecycleCLI, ResumedSCCsCountOnlyFullyReplayedSCCs) {
  TempDir T("resumedcount");
  const std::string Subject = T.file("subject.mc");
  // pairSubject, a recursion pair (one SCC of two relevant members), and
  // disconnected fillers the default checkers' pre-pass skips.
  constexpr int Pairs = 6, Fillers = 5;
  std::string Src = pairSubject(Pairs);
  Src += "void recA(int *p, int c) { if (c > 0) { free(p); } "
         "if (c > 1) { recB(p, c); } }\n"
         "void recB(int *p, int c) { if (c > 2) { int x = *p; } "
         "if (c > 3) { recA(p, c); } }\n";
  for (int I = 0; I < Fillers; ++I)
    Src += "int pad" + std::to_string(I) +
           "(int *p) { int *q = p; return *q; }\n";
  std::ofstream(Subject) << Src;
  const std::string CacheDir = T.file("cache");

  // Populate exhaustively: every function, fillers included, is stored.
  ASSERT_EQ(runTool({"--demand=off", "--cache-dir=" + CacheDir, Subject},
                    T.file("populate.out")),
            0);

  // The default run skips the fillers and replays every analysed function:
  // the 2 * Pairs singleton SCCs and the recursion pair count, the filler
  // SCCs analysed nothing and do not.
  ASSERT_EQ(runTool({"--stats", "--cache-dir=" + CacheDir, Subject},
                    T.file("warm.out")),
            0);
  const std::string Warm = readFile(T.file("warm.out"));
  EXPECT_EQ(statValue(Warm, "[demand]", "skipped-fns"), Fillers) << Warm;
  EXPECT_EQ(statValue(Warm, "[demand]", "relevant-fns"), 2 * Pairs + 2)
      << Warm;
  EXPECT_EQ(statValue(Warm, "[lifecycle]", "resumed-sccs"), 2 * Pairs + 1)
      << Warm;

  // An edit to use0 re-analyses use0 and its caller: those two SCCs did
  // not replay, every other relevant one did.
  std::string Edited = Src;
  const std::string From = "void use0(int *p, int c) {";
  Edited.replace(Edited.find(From), From.size(), From + " int zq = 7;");
  std::ofstream(Subject, std::ios::trunc) << Edited;
  ASSERT_EQ(runTool({"--stats", "--cache-dir=" + CacheDir, Subject},
                    T.file("edit.out")),
            0);
  const std::string Edit = readFile(T.file("edit.out"));
  EXPECT_EQ(statValue(Edit, "[lifecycle]", "resumed-sccs"), 2 * Pairs - 1)
      << Edit;
}

TEST(LifecycleCLI, ExitCodeContract) {
  TempDir T("exitcodes");
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << "int main() { return 0; }\n";

  EXPECT_EQ(runTool({"--help"}, T.file("help.out")), 0);
  EXPECT_NE(readFile(T.file("help.out")).find("exit codes:"),
            std::string::npos);
  EXPECT_EQ(runTool({"--no-such-flag", Subject}, T.file("bad.out")), 2);
  // The retired verdict-cache switch is an unknown option like any other.
  for (const char *Retired : {"--solver-cache=on", "--solver-cache=off"}) {
    const std::string Err = T.file("retired.err");
    EXPECT_EQ(runTool({Retired, Subject}, T.file("retired.out"), Err), 2)
        << Retired;
    EXPECT_NE(readFile(Err).find("unknown option"), std::string::npos)
        << Retired << ": " << readFile(Err);
  }
  EXPECT_EQ(runTool({T.file("missing.mc")}, T.file("miss.out")), 2);
  EXPECT_EQ(runTool({Subject}, T.file("ok.out")), 0);

  // A numeric value that does not fit the setting it feeds is a usage
  // error naming the flag — never wrapped into a negative timeout or a
  // serial run. The largest value that fits is accepted.
  for (const char *Bad :
       {"--solver-timeout-ms=3000000000", "--jobs=4294967297",
        "--jobs=1025", "--jobs=4294967295",
        "--retry-transient=4294967296", "--max-depth=65",
        "--mem-budget-mb=9223372036854775807",
        "--time-budget-ms=9223372036854775808"}) {
    const std::string Err = T.file("range.err");
    EXPECT_EQ(runTool({Bad, Subject}, T.file("range.out"), Err), 2) << Bad;
    const std::string Arg = Bad;
    EXPECT_NE(readFile(Err).find(Arg.substr(0, Arg.find('='))),
              std::string::npos)
        << Bad << ": " << readFile(Err);
  }
  for (const char *Edge : {"--solver-timeout-ms=2147483647",
                           "--retry-transient=2147483647", "--max-depth=64"})
    EXPECT_EQ(runTool({Edge, Subject}, T.file("edge.out")), 0) << Edge;
}

TEST(LifecycleCLI, ArgumentCountMismatchIsAUsageError) {
  // Too few actuals once crashed the connector transform, which indexes a
  // call's arguments by the callee's parameter positions; too many
  // misaligned the callee's Aux arguments behind the extra actuals.
  TempDir T("arity");
  const std::string Few = T.file("few.mc"), Many = T.file("many.mc");
  std::ofstream(Few) << "void setq(int *a, int **pp) { *pp = a; }\n"
                        "int main() { int *x = malloc(); setq(x); "
                        "return 0; }\n";
  std::ofstream(Many) << "int f(int *a) { return *a; }\n"
                         "int main() { int *x = malloc(); return f(x, x, x); "
                         "}\n";
  for (const auto &[Subject, Want] :
       {std::pair{Few, "call to 'setq' passes 1 argument(s), but it takes 2"},
        std::pair{Many, "call to 'f' passes 3 argument(s), but it takes 1"}}) {
    const std::string Err = T.file("arity.err");
    EXPECT_EQ(runTool({"--checker=uaf", "--demand=off", Subject},
                      T.file("arity.out"), Err),
              2)
        << Subject;
    EXPECT_NE(readFile(Err).find(Want), std::string::npos)
        << Subject << ": " << readFile(Err);
  }
}

TEST(LifecycleCLI, MemBudgetDegradationIsDeterministicAcrossJobs) {
  TempDir T("membudget");
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << pairSubject(60);

  ASSERT_EQ(runTool({"--mem-budget-mb=2", "--degradation-log", Subject},
                    T.file("j1.out")),
            0);
  ASSERT_EQ(runTool({"--jobs=4", "--mem-budget-mb=2", "--degradation-log",
                     Subject},
                    T.file("j4.out")),
            0);
  ASSERT_EQ(runTool({"--mem-budget-mb=2", "--degradation-log", Subject},
                    T.file("j1b.out")),
            0);
  const std::string J1 = readFile(T.file("j1.out"));
  EXPECT_NE(J1.find("memory-pressure"), std::string::npos) << J1;
  EXPECT_EQ(J1, readFile(T.file("j4.out")));
  EXPECT_EQ(J1, readFile(T.file("j1b.out")));
}

#endif // PINPOINT_CLI_TESTS

//===----------------------------------------------------------------------===
// Library-level memory governance
//===----------------------------------------------------------------------===

struct LibRun {
  std::vector<std::string> Reports;
  std::multiset<std::string> MemoryPressure; ///< Degraded function set.
  size_t PlanDegraded = 0;
};

LibRun runWithBudget(const std::string &Src, int64_t MemBudgetMB,
                     unsigned Jobs, CancelToken *Cancel = nullptr,
                     SummaryCache *Cache = nullptr) {
  LibRun Out;
  ir::Module M;
  std::vector<frontend::Diag> Diags;
  EXPECT_TRUE(frontend::parseModule(Src, M, Diags));

  Budget Bud;
  Bud.MemBudgetMB = MemBudgetMB;
  ResourceGovernor Gov(Bud, FaultInjector());
  if (Cancel)
    Gov.setCancelToken(Cancel);
  if (Cache) {
    std::string Err;
    EXPECT_TRUE(Cache->prepare(Err)) << Err;
  }

  std::unique_ptr<ThreadPool> Pool;
  if (Jobs > 1)
    Pool = std::make_unique<ThreadPool>(Jobs);

  smt::ExprContext Ctx;
  svfa::PipelineOptions PO;
  PO.Governor = &Gov;
  PO.Pool = Pool.get();
  PO.Cache = Cache;
  svfa::AnalyzedModule AM(M, Ctx, PO);
  Out.PlanDegraded = AM.memPlanDegradedSCCs();

  svfa::GlobalOptions GO;
  GO.Governor = &Gov;
  GO.Pool = Pool.get();
  svfa::GlobalSVFA Engine(AM, checkers::useAfterFreeChecker(), GO);
  for (const svfa::Report &R : Engine.run())
    Out.Reports.push_back(R.SourceFn + ":" + R.Source.str() + "->" +
                          R.SinkFn + ":" + R.Sink.str());

  for (const DegradationEvent &E : Gov.log().events())
    if (E.Kind == DegradationKind::MemoryPressure)
      Out.MemoryPressure.insert(E.Stage + "|" + E.Function);
  return Out;
}

TEST(LifecycleMemory, PlanDegradesDeterministicallyAcrossRunsAndJobs) {
  const std::string Src = pairSubject(40);
  LibRun A = runWithBudget(Src, 2, 1);
  LibRun B = runWithBudget(Src, 2, 4);
  LibRun C = runWithBudget(Src, 2, 1);

  EXPECT_GT(A.PlanDegraded, size_t(0));
  EXPECT_FALSE(A.MemoryPressure.empty());
  EXPECT_EQ(A.PlanDegraded, B.PlanDegraded);
  EXPECT_EQ(A.PlanDegraded, C.PlanDegraded);
  EXPECT_EQ(A.MemoryPressure, B.MemoryPressure);
  EXPECT_EQ(A.MemoryPressure, C.MemoryPressure);
  EXPECT_EQ(A.Reports, B.Reports);
  EXPECT_EQ(A.Reports, C.Reports);
}

TEST(LifecycleMemory, UnlimitedBudgetDegradesNothing) {
  LibRun A = runWithBudget(pairSubject(10), 0, 1);
  EXPECT_EQ(A.PlanDegraded, size_t(0));
  EXPECT_TRUE(A.MemoryPressure.empty());
  LibRun B = runWithBudget(pairSubject(10), 1 << 20, 1);
  EXPECT_EQ(B.PlanDegraded, size_t(0));
  EXPECT_TRUE(B.MemoryPressure.empty());
  EXPECT_EQ(A.Reports, B.Reports);
}

TEST(LifecycleMemory, GovernedAccountingBalancesOnDestruction) {
  // Governed memory is the arena ledger alone. The SEGs' CSR arenas are
  // reported, so while the module is alive their bytes are in the ledger,
  // and destroying the module must give at least those bytes back.
  MemStats &MS = MemStats::get();
  ir::Module M;
  std::vector<frontend::Diag> Diags;
  ASSERT_TRUE(frontend::parseModule(pairSubject(10), M, Diags));
  smt::ExprContext Ctx;
  const int64_t Csr0 = Counters::get().value("seg.csr-bytes");
  auto AM = std::make_unique<svfa::AnalyzedModule>(M, Ctx);
  const int64_t CsrBytes = Counters::get().value("seg.csr-bytes") - Csr0;
  EXPECT_GT(CsrBytes, 0);
  const int64_t Live = MS.liveBytes();
  AM.reset();
  EXPECT_LE(MS.liveBytes(), Live - CsrBytes);
}

//===----------------------------------------------------------------------===
// Library-level cancellation
//===----------------------------------------------------------------------===

TEST(LifecycleCancel, PreCancelledRunDegradesAndStoresNothing) {
  TempDir T("precancel");
  SummaryCache Cache(T.file("cache"), SummaryCache::Mode::ReadWrite);
  const int64_t Stored0 = Counters::get().value("cache.stored");

  CancelToken Tok;
  Tok.cancel();
  LibRun Out = runWithBudget(pairSubject(8), 0, 1, &Tok, &Cache);

  // Everything degraded (no crash, no hang), nothing entered the cache —
  // cancellation taints exactly like any other nondeterministic skip.
  EXPECT_TRUE(Out.Reports.empty());
  EXPECT_EQ(Counters::get().value("cache.stored"), Stored0);
}

TEST(LifecycleCancel, CancelledEventIsLoggedOnce) {
  ir::Module M;
  std::vector<frontend::Diag> Diags;
  ASSERT_TRUE(frontend::parseModule(pairSubject(8), M, Diags));
  Budget Bud;
  ResourceGovernor Gov(Bud, FaultInjector());
  CancelToken Tok;
  Tok.cancel();
  Gov.setCancelToken(&Tok);
  smt::ExprContext Ctx;
  svfa::PipelineOptions PO;
  PO.Governor = &Gov;
  svfa::AnalyzedModule AM(M, Ctx, PO);

  size_t CancelEvents = 0;
  for (const DegradationEvent &E : Gov.log().events())
    CancelEvents += E.Kind == DegradationKind::Cancelled;
  EXPECT_EQ(CancelEvents, size_t(1)); // One-shot, not once per function.
}

TEST(LifecycleCancel, PendingShutdownNarrowsHelpingWaitToOwnGroup) {
  // The SIGINT drain-latency contract: once a stop is pending, a helping
  // wait() runs only its *own* group's stragglers — it must never burn the
  // drain on another group's backlog. Deterministic by construction: the
  // single worker is parked (or already exited at the stop boundary), so
  // every queued task can only run inline through the restricted helper,
  // and the assertion counts exactly which ones did.
  ThreadPool Pool(1);
  std::mutex LatchMu;
  std::condition_variable LatchCv;
  bool Release = false;

  // Parks the single worker; spawned first, so the FIFO inbox hands it to
  // the worker before any backlog task.
  ThreadPool::TaskGroup Hold(Pool);
  Hold.spawn([&] {
    std::unique_lock<std::mutex> L(LatchMu);
    LatchCv.wait(L, [&] { return Release; });
  });

  std::atomic<int> ARan{0}, BRan{0};
  ThreadPool::TaskGroup A(Pool), B(Pool);
  for (int I = 0; I < 8; ++I)
    A.spawn([&] { ARan.fetch_add(1); });
  B.spawn([&] { BRan.fetch_add(1); });

  Pool.requestStop();
  // The restricted helper drains B's single task and steps over all eight
  // queued A tasks, however the queues interleave them.
  B.wait();
  EXPECT_EQ(BRan.load(), 1);
  EXPECT_EQ(ARan.load(), 0) << "helping wait ran another group's backlog "
                               "during a pending shutdown";

  // Unpark and drain the rest: group waits still complete after the stop.
  {
    std::lock_guard<std::mutex> L(LatchMu);
    Release = true;
  }
  LatchCv.notify_all();
  Hold.wait();
  A.wait();
  EXPECT_EQ(ARan.load(), 8);
}

//===----------------------------------------------------------------------===
// Transient-fault retry in the staged solver
//===----------------------------------------------------------------------===

/// A satisfiable formula the linear filter cannot refute, so checkSat
/// always reaches the backend discharge path where transients are
/// injected.
const smt::Expr *backendQuery(smt::ExprContext &Ctx) {
  const smt::Expr *X = Ctx.freshIntVar("x");
  return Ctx.mkAnd(Ctx.freshBoolVar("b"),
                   Ctx.mkCmp(smt::ExprKind::Lt, X, Ctx.getInt(5)));
}

smt::StagedSolver makeSolver(smt::ExprContext &Ctx, ResourceGovernor &Gov) {
  return smt::StagedSolver(Ctx, smt::createMiniSolver(Ctx),
                           /*UseLinearFilter=*/true, &Gov);
}

ResourceGovernor makeGov(int RetryTransient, const std::string &FaultSpec) {
  Budget Bud;
  Bud.RetryTransient = RetryTransient;
  FaultInjector FI;
  std::string Err;
  EXPECT_TRUE(FI.parse(FaultSpec, Err)) << Err;
  return ResourceGovernor(Bud, std::move(FI));
}

TEST(LifecycleRetry, BoundedRetryRecoversFromTransients) {
  smt::ExprContext Ctx;
  ResourceGovernor Gov = makeGov(3, "transient-fails=2");
  smt::StagedSolver S = makeSolver(Ctx, Gov);

  // Two injected transients, then the real backend answers: a definite
  // verdict, two retries, no degradation.
  EXPECT_EQ(S.checkSat(backendQuery(Ctx)), smt::SatResult::Sat);
  EXPECT_EQ(S.stats().Retries, 2u);
  EXPECT_EQ(S.stats().TransientFailures, 0u);
  for (const DegradationEvent &E : Gov.log().events())
    EXPECT_NE(E.Kind, DegradationKind::SolverTransient);
}

TEST(LifecycleRetry, ExhaustedRetriesDegradeToUnknown) {
  smt::ExprContext Ctx;
  ResourceGovernor Gov = makeGov(1, "transient-fails=3");
  smt::StagedSolver S = makeSolver(Ctx, Gov);

  EXPECT_EQ(S.checkSat(backendQuery(Ctx)), smt::SatResult::Unknown);
  EXPECT_EQ(S.stats().Retries, 1u);
  EXPECT_EQ(S.stats().TransientFailures, 1u);
  size_t TransientEvents = 0;
  for (const DegradationEvent &E : Gov.log().events())
    TransientEvents += E.Kind == DegradationKind::SolverTransient;
  EXPECT_EQ(TransientEvents, size_t(1));
}

TEST(LifecycleRetry, FullyTransientBackendStillTerminates) {
  smt::ExprContext Ctx;
  ResourceGovernor Gov = makeGov(2, "seed=7,transient=100");
  smt::StagedSolver S = makeSolver(Ctx, Gov);

  // 100% transient injection: the retry budget bounds the loop, every
  // query terminates with Unknown and exact retry accounting.
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(S.checkSat(backendQuery(Ctx)), smt::SatResult::Unknown);
  EXPECT_EQ(S.stats().Retries, 3u * 2u);
  EXPECT_EQ(S.stats().TransientFailures, 3u);
}

TEST(LifecycleRetry, ZeroRetriesFailImmediately) {
  smt::ExprContext Ctx;
  ResourceGovernor Gov = makeGov(0, "transient-fails=1");
  smt::StagedSolver S = makeSolver(Ctx, Gov);
  EXPECT_EQ(S.checkSat(backendQuery(Ctx)), smt::SatResult::Unknown);
  EXPECT_EQ(S.stats().Retries, 0u);
  EXPECT_EQ(S.stats().TransientFailures, 1u);
}

} // namespace
