//===- tools/PinpointTool.cpp - The pinpoint command-line driver -----------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `pinpoint` tool: parses MiniC sources, runs the selected checkers
/// through the full pipeline, and prints reports and statistics.
///
///   pinpoint [options] file.mc [file2.mc ...]
///     --checker=LIST    comma list of uaf,df,taint-path,taint-data,
///                       null-deref,leak (default: uaf,df); each name at
///                       most once
///     --max-depth=N     calling-context depth (default 6)
///     --no-path-sensitivity   skip the SMT feasibility stage
///     --no-linear-filter      disable the linear-time pre-filter
///     --demand=MODE     on | off (default on): demand-driven value-flow
///                       slicing (DESIGN.md section 13). A relevance
///                       pre-pass over the call graph skips SSA and summary
///                       construction for functions outside the
///                       bidirectional source/sink cones of every enabled
///                       checker (checkers without syntactic sinks fall
///                       back to the source-only cone). With --cache-dir,
///                       every function's seeds are persisted and warm
///                       runs re-scan only new or edited functions.
///                       Reports and the degradation log are byte-identical
///                       across modes; only speed, memory and the [demand]
///                       counters change.
///     --dump-ir         print the transformed IR
///     --stats           print pipeline and solver statistics
///     --jobs=N          worker threads (default 1 = serial; 0 = all
///                       hardware threads; at most 1024). Reports are
///                       byte-identical across values of N.
///     --cache-dir=PATH  persistent function-summary cache for incremental
///                       reanalysis; unchanged call-graph SCCs load their
///                       pipeline artifacts instead of rebuilding. Reports
///                       are byte-identical to a from-scratch run. Entries
///                       are written as SCCs complete, so a rerun after an
///                       interrupt resumes instead of starting over. The
///                       directory holds only summary entries (`*.pps`),
///                       one of them the demand pre-pass's seed table.
///
///   Resource governance (see support/ResourceGovernor.h):
///     --time-budget-ms=N      whole-run wall clock; past it, remaining
///                             work degrades instead of running
///     --fn-budget-ms=N        per-function wall clock in the global stage
///     --solver-timeout-ms=N   per-query Z3 timeout (default 10000;
///                             0 = no limit); the MiniSolver is bounded by
///                             its DPLL step budget instead
///     --max-closure-steps=N   step budget per value-closure walk
///     --max-pta-steps=N       step budget per local points-to pass
///     --max-fn-stmts=N        skip (degrade) functions larger than N stmts
///     --mem-budget-mb=N       governed-memory budget; the largest SCCs
///                             are deterministically degraded until the
///                             projected footprint fits (0 = unlimited)
///     --fault-inject=SPEC     deterministic fault injection
///     --degradation-log       print every degradation event
///
/// The tool always terminates with best-effort reports: budget hits, solver
/// Unknowns (a timeout, a step cap or a backend exception) and
/// per-function/per-checker failures degrade gracefully and are surfaced in
/// the [governor] stats line. SIGINT/SIGTERM cancel the run
/// cooperatively: in-flight work drains at the next task boundary and the
/// partial report, statistics and degradation log are still flushed.
///
/// Numeric values are non-negative integers; one that does not fit the
/// setting it feeds (e.g. --solver-timeout-ms past INT_MAX) is a usage
/// error, never silently wrapped.
///
/// Exit status: 0 = analysis completed (reports, possibly degraded);
/// 2 = usage or input error; 3 = interrupted, partial results flushed;
/// 4 = internal error. On 0, 3 and 4 a release build ends the process
/// right after its final flush, without running destructors (see
/// PinpointTool.h).
///
//===----------------------------------------------------------------------===//

#include "tools/PinpointTool.h"

#include "checkers/Checker.h"
#include "checkers/SpecialCheckers.h"
#include "frontend/Parser.h"
#include "ir/SSA.h"
#include "support/Interrupt.h"
#include "support/ResourceGovernor.h"
#include "support/Statistics.h"
#include "support/SummaryCache.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "svfa/GlobalSVFA.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

// Sanitizer builds keep the full teardown: LeakSanitizer checks for leaks
// at exit, and ThreadSanitizer checks the pool's shutdown.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PINPOINT_FULL_TEARDOWN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PINPOINT_FULL_TEARDOWN 1
#endif
#endif

using namespace pinpoint;

namespace pinpoint::tools {

namespace {

/// Ends an analysis run with exit code \p Code once its output is
/// complete. Every stdio stream is flushed (stderr may be a buffered file
/// too). A release build then ends the process without running a
/// destructor: nothing reads the IR, the analysed module or the expression
/// context after the last line, and the OS reclaims them faster than their
/// destructors do. Sanitizer builds return \p Code instead.
int finishRun(int Code) {
  std::fflush(nullptr);
#ifdef PINPOINT_FULL_TEARDOWN
  return Code;
#else
  std::_Exit(Code);
#endif
}

const char *const KnownCheckers[] = {"uaf",        "df",   "taint-path",
                                     "taint-data", "null-deref", "leak"};

struct Options {
  std::vector<std::string> Files;
  std::vector<std::string> Checkers{"uaf", "df"};
  long long MaxDepth = 6;
  bool PathSensitive = true;
  bool LinearFilter = true;
  bool Demand = true;
  bool DumpIR = false;
  bool Stats = false;
  bool DegradationLog = false;
  long long TimeBudgetMs = -1;
  long long FnBudgetMs = -1;
  long long SolverTimeoutMs = 10000;
  long long MaxClosureSteps = 0;
  long long MaxPTASteps = 0;
  long long MaxFnStmts = 0;
  long long MemBudgetMB = 0;
  long long Jobs = 1;
  std::string FaultSpec;
  std::string CacheDir;
};

void usage() {
  std::puts(
      "usage: pinpoint [options] file.mc [...]\n"
      "  --checker=LIST           uaf,df,taint-path,taint-data,null-deref,"
      "leak (each at most once)\n"
      "  --max-depth=N            calling context depth (default 6)\n"
      "  --no-path-sensitivity    report all candidates (no SMT stage)\n"
      "  --no-linear-filter       disable the linear-time pre-filter\n"
      "  --demand=MODE            on | off (default on): demand-driven "
      "value-flow slicing;\n"
      "                           skips SSA and summary construction where "
      "no checker needs it\n"
      "  --dump-ir                print the transformed IR\n"
      "  --stats                  print statistics\n"
      "  --jobs=N                 worker threads (default 1 = serial, 0 = "
      "all hardware threads, at most 1024)\n"
      "  --cache-dir=PATH         persistent function-summary cache for "
      "incremental reanalysis\n"
      "resource governance:\n"
      "  --time-budget-ms=N       whole-run wall clock budget\n"
      "  --fn-budget-ms=N         per-function wall clock budget\n"
      "  --solver-timeout-ms=N    per-query Z3 timeout (default 10000, "
      "0 = no limit)\n"
      "  --max-closure-steps=N    step budget per value-closure walk\n"
      "  --max-pta-steps=N        step budget per points-to pass\n"
      "  --max-fn-stmts=N         degrade functions larger than N stmts\n"
      "  --mem-budget-mb=N        governed-memory budget (0 = unlimited)\n"
      "  --fault-inject=SPEC      e.g. seed=7,solver-unknown=50,throw-fn=f\n"
      "  --degradation-log        print every degradation event\n"
      "exit codes: 0 = completed, 2 = usage/input error, 3 = interrupted "
      "(partial results flushed), 4 = internal error");
}

/// Strict parse of the value part of --opt=N into [0, Max]. Garbage,
/// empty, negative and out-of-range values are all rejected.
bool parseCount(const std::string &Arg, size_t PrefixLen, long long Max,
                long long &Out) {
  const std::string Val = Arg.substr(PrefixLen);
  if (Val.empty() || Val[0] == '-' || Val[0] == '+')
    return false;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(Val.c_str(), &End, 10);
  if (errno != 0 || End != Val.c_str() + Val.size() || V > Max)
    return false;
  Out = V;
  return true;
}

bool knownChecker(const std::string &Name) {
  for (const char *K : KnownCheckers)
    if (Name == K)
      return true;
  return false;
}

enum class ParseResult { Ok, Help, Error };

ParseResult parseArgs(int Argc, char **Argv, Options &O) {
  // Numeric --opt=N flags that share the strict-parse-and-error path. Max
  // is the largest value the setting the flag feeds can hold: an int field,
  // a budget whose byte count times 8 fits an int64_t (--mem-budget-mb; the
  // memory plan's 8/10 soft threshold multiplies before it divides), or
  // the worker count the pool is asked to start (--jobs: 1024, far past
  // any host's useful parallelism, so a typo never starts a thread per
  // value).
  constexpr long long LLMax = std::numeric_limits<long long>::max();
  constexpr long long IntMax = std::numeric_limits<int>::max();
  constexpr long long MaxJobs = 1024;
  struct CountFlag {
    const char *Prefix;
    long long *Slot;
    long long Max;
  } CountFlags[] = {
      {"--max-depth=", &O.MaxDepth, 64},
      {"--time-budget-ms=", &O.TimeBudgetMs, LLMax},
      {"--fn-budget-ms=", &O.FnBudgetMs, LLMax},
      {"--solver-timeout-ms=", &O.SolverTimeoutMs, IntMax},
      {"--max-closure-steps=", &O.MaxClosureSteps, LLMax},
      {"--max-pta-steps=", &O.MaxPTASteps, LLMax},
      {"--max-fn-stmts=", &O.MaxFnStmts, LLMax},
      {"--mem-budget-mb=", &O.MemBudgetMB, LLMax >> 23},
      {"--jobs=", &O.Jobs, MaxJobs},
  };

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.rfind("--checker=", 0) == 0) {
      O.Checkers.clear();
      std::stringstream SS(A.substr(10));
      std::string Item;
      while (std::getline(SS, Item, ','))
        O.Checkers.push_back(Item);
      if (O.Checkers.empty()) {
        std::fprintf(stderr, "error: --checker= needs at least one name\n");
        return ParseResult::Error;
      }
      for (auto It = O.Checkers.begin(); It != O.Checkers.end(); ++It) {
        if (!knownChecker(*It)) {
          std::fprintf(stderr,
                       "error: unknown checker '%s' (expected one of: uaf, "
                       "df, taint-path, taint-data, null-deref, leak)\n",
                       It->c_str());
          return ParseResult::Error;
        }
        // A repeated name would run that checker twice and print each of
        // its reports twice.
        if (std::find(O.Checkers.begin(), It, *It) != It) {
          std::fprintf(stderr,
                       "error: checker '%s' is listed more than once\n",
                       It->c_str());
          return ParseResult::Error;
        }
      }
    } else if (A.rfind("--fault-inject=", 0) == 0) {
      O.FaultSpec = A.substr(std::strlen("--fault-inject="));
    } else if (A.rfind("--cache-dir=", 0) == 0) {
      O.CacheDir = A.substr(std::strlen("--cache-dir="));
      if (O.CacheDir.empty()) {
        std::fprintf(stderr, "error: --cache-dir= needs a path\n");
        return ParseResult::Error;
      }
    } else if (A.rfind("--demand=", 0) == 0) {
      const std::string Mode = A.substr(std::strlen("--demand="));
      if (Mode != "on" && Mode != "off") {
        std::fprintf(stderr,
                     "error: invalid --demand value '%s' (expected on or "
                     "off)\n",
                     Mode.c_str());
        return ParseResult::Error;
      }
      O.Demand = Mode == "on";
    } else if (A == "--no-path-sensitivity") {
      O.PathSensitive = false;
    } else if (A == "--no-linear-filter") {
      O.LinearFilter = false;
    } else if (A == "--dump-ir") {
      O.DumpIR = true;
    } else if (A == "--stats") {
      O.Stats = true;
    } else if (A == "--degradation-log") {
      O.DegradationLog = true;
    } else if (A == "--help" || A == "-h") {
      // No std::exit here: every exit funnels through pinpointToolMain,
      // whose only early ends follow its final flush (the run-lifecycle
      // contract).
      return ParseResult::Help;
    } else if (!A.empty() && A[0] == '-') {
      bool Matched = false;
      for (const CountFlag &CF : CountFlags) {
        if (A.rfind(CF.Prefix, 0) != 0)
          continue;
        if (!parseCount(A, std::strlen(CF.Prefix), CF.Max, *CF.Slot)) {
          std::fprintf(stderr,
                       "error: invalid value in '%s' (expected an integer "
                       "in [0, %lld])\n",
                       A.c_str(), CF.Max);
          return ParseResult::Error;
        }
        Matched = true;
        break;
      }
      if (!Matched) {
        std::fprintf(stderr, "unknown option: %s\n", A.c_str());
        return ParseResult::Error;
      }
    } else {
      O.Files.push_back(A);
    }
  }
  if (O.Files.empty()) {
    std::fprintf(stderr, "error: no input files\n");
    return ParseResult::Error;
  }
  return ParseResult::Ok;
}

bool specFor(const std::string &Name, checkers::CheckerSpec &Out) {
  if (Name == "uaf")
    Out = checkers::useAfterFreeChecker();
  else if (Name == "df")
    Out = checkers::doubleFreeChecker();
  else if (Name == "taint-path")
    Out = checkers::pathTraversalChecker();
  else if (Name == "taint-data")
    Out = checkers::dataTransmissionChecker();
  else if (Name == "null-deref")
    Out = checkers::nullDerefChecker();
  else
    return false;
  return true;
}

} // namespace

int pinpointToolMain(int Argc, char **Argv) {
  Options O;
  switch (parseArgs(Argc, Argv, O)) {
  case ParseResult::Help:
    usage();
    return 0;
  case ParseResult::Error:
    usage();
    return 2;
  case ParseResult::Ok:
    break;
  }

  // Read & concatenate the inputs (one module).
  Timer ParseT;
  std::string Source;
  for (const std::string &File : O.Files) {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", File.c_str());
      return 2;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    Source += SS.str();
    Source += "\n";
  }

  ir::Module M;
  std::vector<frontend::Diag> Diags;
  if (!frontend::parseModule(Source, M, Diags)) {
    for (const auto &D : Diags)
      std::fprintf(stderr, "error: %s\n", D.str().c_str());
    return 2;
  }
  const double ParseSec = ParseT.seconds();

  // Assemble the resource governor: budgets + fault injection.
  Budget Bud;
  Bud.RunWallMs = O.TimeBudgetMs;
  Bud.FunctionWallMs = O.FnBudgetMs;
  Bud.SolverTimeoutMs = static_cast<int>(O.SolverTimeoutMs);
  Bud.MaxClosureSteps = static_cast<uint64_t>(O.MaxClosureSteps);
  Bud.MaxPTASteps = static_cast<uint64_t>(O.MaxPTASteps);
  Bud.MaxFunctionStmts = static_cast<size_t>(O.MaxFnStmts);
  Bud.MemBudgetMB = O.MemBudgetMB;
  FaultInjector FI;
  if (!O.FaultSpec.empty()) {
    std::string Err;
    if (!FI.parse(O.FaultSpec, Err)) {
      std::fprintf(stderr, "error: --fault-inject: %s\n", Err.c_str());
      return 2;
    }
  }
  ResourceGovernor Gov(Bud, std::move(FI));

  // Cooperative cancellation: SIGINT/SIGTERM flip the process token; every
  // long-running stage polls it at task boundaries, drains, and falls
  // through to the flush below, which prints whatever was found.
  interrupt::installSignalHandlers();
  Gov.setCancelToken(&interrupt::processToken());

  // Everything from here on either completes or is an internal error (4):
  // input validation is done, so an escaping exception is a bug, not a
  // usage problem.
  try {
    const unsigned Jobs = O.Jobs == 0 ? ThreadPool::hardwareConcurrency()
                                      : static_cast<unsigned>(O.Jobs);
    std::unique_ptr<ThreadPool> Pool;
    if (Jobs > 1)
      Pool = std::make_unique<ThreadPool>(Jobs);

    std::unique_ptr<SummaryCache> Cache;
    if (!O.CacheDir.empty()) {
      Cache = std::make_unique<SummaryCache>(O.CacheDir,
                                             SummaryCache::Mode::ReadWrite);
      std::string Err;
      if (!Cache->prepare(Err)) {
        std::fprintf(stderr, "error: --cache-dir: %s\n", Err.c_str());
        return 2;
      }
    }

    Timer Total;
    smt::ExprContext Ctx;

    // Demand spec: the union of every enabled checker's sources and sinks,
    // so the pipeline keeps exactly the functions at least one checker
    // needs. The leak checker has no CheckerSpec; its sources are malloc
    // sites, flagged separately. Built unconditionally: even with
    // --demand=off it keys the memory plan (PlanDemand below), which is
    // what makes the --mem-budget-mb degraded-SCC set identical across
    // demand modes.
    svfa::DemandSpec DS;
    for (const std::string &Name : O.Checkers) {
      if (Name == "leak") {
        DS.LeakSources = true;
        continue;
      }
      checkers::CheckerSpec Spec;
      if (specFor(Name, Spec))
        DS.Checkers.push_back(std::move(Spec));
    }

    svfa::PipelineOptions PO;
    PO.UseLinearFilter = O.LinearFilter;
    PO.Governor = &Gov;
    PO.Pool = Pool.get();
    PO.Cache = Cache.get();
    PO.Demand = O.Demand ? &DS : nullptr;
    PO.PlanDemand = &DS;
    svfa::AnalyzedModule AM(M, Ctx, PO);
    double PipelineSec = Total.seconds();

    if (O.DumpIR) {
      // The dump shows every function in SSA form. A demand-skipped one
      // never got it; SSA names and ids are numbered per function, so
      // building it now prints what a run without slicing prints.
      for (ir::Function *F : M.functions())
        if (AM.info(F).Skipped) {
          F->recomputeCFGEdges();
          ir::constructSSA(*F);
        }
      std::fputs(M.str().c_str(), stdout);
    }

    svfa::GlobalOptions GO;
    GO.MaxContextDepth = static_cast<int>(O.MaxDepth);
    GO.PathSensitive = O.PathSensitive;
    GO.UseLinearFilter = O.LinearFilter;
    GO.Demand = O.Demand;
    GO.Governor = &Gov;

    // Each checker's results land in an indexed slot; with a pool the
    // checkers run concurrently (they share only thread-safe state: the
    // analysed module, the expression context and the governor) but slots
    // are always printed serially in command-line order, so the output is
    // byte-identical to the serial run.
    struct CheckerRun {
      std::vector<svfa::Report> Reports;
      svfa::GlobalSVFA::Stats EngineStats;
      smt::StagedSolver::Stats SolverStats;
      bool Failed = false;
      std::string Error;
    };
    std::vector<CheckerRun> Runs(O.Checkers.size());

    auto runChecker = [&](size_t Idx) {
      const std::string &Name = O.Checkers[Idx];
      CheckerRun &Slot = Runs[Idx];
      // Checker-level fault isolation: one failing checker must not take
      // down the run — log, warn, move on to the next checker.
      try {
        if (Gov.faults().injectCheckerThrow(Name)) {
          Gov.note(DegradationKind::InjectedFault, "checker", Name,
                   "forced checker throw");
          throw std::runtime_error("injected checker fault");
        }
        if (Name == "leak") {
          Slot.Reports = checkers::checkMemoryLeaks(AM);
        } else {
          checkers::CheckerSpec Spec;
          specFor(Name, Spec); // parseArgs has rejected unknown names.
          svfa::GlobalSVFA Engine(AM, Spec, GO);
          Slot.Reports = Engine.run();
          Slot.EngineStats = Engine.stats();
          Slot.SolverStats = Engine.solverStats();
        }
      } catch (const std::exception &Ex) {
        Gov.note(DegradationKind::CheckerFailed, "checker", Name, Ex.what());
        Slot.Failed = true;
        Slot.Error = Ex.what();
      }
    };

    Timer DischargeT;
    if (Pool) {
      ThreadPool::TaskGroup G(*Pool);
      for (size_t Idx = 0; Idx < O.Checkers.size(); ++Idx)
        G.spawn([&runChecker, Idx] { runChecker(Idx); });
      G.wait();
    } else {
      for (size_t Idx = 0; Idx < O.Checkers.size(); ++Idx)
        runChecker(Idx);
    }
    const double DischargeSec = DischargeT.seconds();
    Timer ReportT;

    // --- Flush. Every post-analysis exit goes through this block so an
    // interrupted run still emits its partial report, statistics and
    // degradation log.
    const bool Interrupted = Gov.cancelled();

    int TotalReports = 0;
    for (size_t Idx = 0; Idx < O.Checkers.size(); ++Idx) {
      const std::string &Name = O.Checkers[Idx];
      CheckerRun &Slot = Runs[Idx];
      if (Slot.Failed) {
        std::fprintf(stderr, "warning: checker %s failed (%s); continuing\n",
                     Name.c_str(), Slot.Error.c_str());
        continue;
      }

      for (const auto &R : Slot.Reports) {
        ++TotalReports;
        std::printf("%s: source %s:%s -> sink %s:%s%s%s\n", R.Checker.c_str(),
                    R.SourceFn.c_str(), R.Source.str().c_str(),
                    R.SinkFn.c_str(), R.Sink.str().c_str(),
                    R.Verdict == smt::SatResult::Unknown
                        ? " [verdict=unknown]"
                        : "",
                    Interrupted ? " [partial]" : "");
        for (const auto &Step : R.Path)
          std::printf("    via %s\n", Step.c_str());
      }
      svfa::GlobalSVFA::Stats &EngineStats = Slot.EngineStats;
      smt::StagedSolver::Stats &SolverStats = Slot.SolverStats;
      if (O.Stats && Name != "leak") {
        // Every field is deterministic: each engine generates and decides
        // its candidates in one serial order, whatever --jobs is. The one
        // exception is a partial-rate --fault-inject stream: checkers that
        // run concurrently draw from it in interleaved order.
        std::printf("[%s] events=%llu candidates=%llu sat=%llu unsat=%llu "
                    "unknown=%llu linear-pruned=%llu smt-queries=%llu "
                    "isolated-failures=%llu\n",
                    Name.c_str(), (unsigned long long)EngineStats.Events,
                    (unsigned long long)EngineStats.Candidates,
                    (unsigned long long)EngineStats.SolverSat,
                    (unsigned long long)EngineStats.SolverUnsat,
                    (unsigned long long)EngineStats.SolverUnknown,
                    (unsigned long long)EngineStats.LinearPruned,
                    (unsigned long long)SolverStats.BackendQueries,
                    (unsigned long long)EngineStats.IsolatedFailures);
      }
    }

    if (O.Stats) {
      std::printf("[pipeline] %zu functions, %zu SEG edges, %.3fs build, "
                  "%.3fs total, %.1f MB peak\n",
                  M.functions().size(), AM.totalSEGEdges(), PipelineSec,
                  Total.seconds(), MemStats::get().peakBytes() / 1e6);
      // Per-stage wall clock, so an incremental win (or a regression) is
      // attributable without a profiler: parse = read+parse, ssa/prepass
      // come from the pipeline constructor, pipeline = the per-SCC stages
      // proper, discharge = the checker/solver runs, report = the flush up
      // to this line. Wall times are interleaving- and load-dependent, so
      // like [sched] this line is exempt from the cross-run determinism
      // contract (harnesses filter it).
      const svfa::AnalyzedModule::PhaseSeconds &PS = AM.phaseSeconds();
      std::printf("[phase] parse=%.3fs ssa=%.3fs prepass=%.3fs "
                  "pipeline=%.3fs discharge=%.3fs report=%.3fs\n",
                  ParseSec, PS.SSA, PS.Prepass,
                  std::max(0.0, PipelineSec - PS.SSA - PS.Prepass),
                  DischargeSec, ReportT.seconds());
      // Size of the shared expression context: work performed, not
      // findings, so like [pipeline] it is exempt from the cross-run
      // determinism contract (harnesses filter it).
      const smt::ExprContext::InternStats IS = Ctx.internStats();
      std::printf("[exprs] nodes=%zu arena-mb=%.1f\n", IS.Nodes,
                  IS.ArenaBytes / 1e6);
      if (Cache) {
        Counters &C = Counters::get();
        std::printf("[cache] hits=%lld misses=%lld invalidated=%lld "
                    "corrupt=%lld stored=%lld gc-tmp=%lld\n",
                    (long long)C.value("cache.hits"),
                    (long long)C.value("cache.misses"),
                    (long long)C.value("cache.invalidated"),
                    (long long)C.value("cache.corrupt"),
                    (long long)C.value("cache.stored"),
                    (long long)C.value("cache.gc-tmp"));
      }
      // Demand-slicing counters. Like [pipeline]/[exprs], this line
      // reflects the work performed, not the findings, so it is exempt
      // from the --demand on/off determinism contract (the reports,
      // degradation log and the deterministic [checker] fields are not).
      if (AM.demandActive()) {
        Counters &C = Counters::get();
        std::printf("[demand] relevant-fns=%zu skipped-fns=%zu "
                    "source-fns=%zu sink-fns=%zu lazy-reach-rows=%lld "
                    "csr-bytes=%lld cg-csr-bytes=%lld relevance-stored=%lld "
                    "relevance-replayed=%lld relevance-stale=%lld "
                    "prepass-fns=%lld dirty-fns=%lld refresh-mode=%s\n",
                    AM.relevantFunctions(), AM.skippedFunctions(),
                    AM.sourceFunctions(), AM.sinkFunctions(),
                    (long long)C.value("svfa.lazy-reach-rows"),
                    (long long)C.value("seg.csr-bytes"),
                    (long long)C.value("cg.csr-bytes"),
                    (long long)C.value("demand.relevance-stored"),
                    (long long)C.value("demand.relevance-replayed"),
                    (long long)C.value("demand.relevance-stale"),
                    (long long)C.value("demand.prepass-fns"),
                    (long long)C.value("demand.dirty-fns"),
                    AM.relevanceRefreshMode().c_str());
      }
      // Run-lifecycle counters, printed only when the layer is active (a
      // memory budget, a cache directory or an interrupt), so other runs
      // keep byte-identical output.
      if (O.MemBudgetMB > 0 || Cache || Interrupted) {
        std::printf("[lifecycle] mem.peak-governed=%.1fMB "
                    "mem-plan-degraded=%zu resumed-sccs=%zu\n",
                    MemStats::get().peakBytes() / 1e6,
                    AM.memPlanDegradedSCCs(), AM.resumedSCCs());
      }
      // Pool observability (parallel runs only). Like [exprs], the pop
      // count reflects work and interleaving, not findings (helping waits
      // pop too), so the line is exempt from the cross-run determinism
      // contract (test harnesses filter it alongside [pipeline]/[cache]).
      if (Pool)
        std::printf("[sched] workers=%u inbox-pops=%llu\n", Pool->workers(),
                    (unsigned long long)Pool->schedStats().InboxPops);
      std::printf("[governor] %s\n", Gov.log().summary().c_str());
    }
    if (O.DegradationLog) {
      // Under --jobs>1 events arrive in completion order; the log keeps
      // the smallest in one fixed order and returns them sorted, so it is
      // stable across thread interleavings (and across --jobs values),
      // past its cap too.
      for (const DegradationEvent &E : Gov.log().events())
        std::printf("[degradation] %s %s fn=%s: %s\n", toString(E.Kind),
                    E.Stage.c_str(),
                    E.Function.empty() ? "-" : E.Function.c_str(),
                    E.Detail.c_str());
      if (uint64_t Dropped = Gov.log().dropped())
        std::printf("[degradation] %llu more event(s) not stored\n",
                    (unsigned long long)Dropped);
    }

    if (Interrupted)
      std::printf("[partial] run interrupted (signal %d); results above "
                  "were flushed before exit\n",
                  interrupt::lastSignal());
    std::printf("%d report(s)\n", TotalReports);
    return finishRun(Interrupted ? 3 : 0);
  } catch (const std::exception &Ex) {
    std::fprintf(stderr, "internal error: %s\n", Ex.what());
    return finishRun(4);
  }
}

} // namespace pinpoint::tools
