//===- perfbench/pinbench.cpp - Helper for the end-to-end benchmark -------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-process half of the end-to-end benchmark (perfbench/run.py):
///
///   pinbench gen SUBJECT SCALE SEED INDEX OUT.mc OUT.bugs
///       Writes Table-1 subject SUBJECT at SCALE, generated from
///       workload::configFor with its Seed replaced by SEED (unless SEED is
///       "default"), hashed with INDEX when INDEX is not 0, and its planted
///       ground truth (one "kind checker source-line sink-line" per line).
///   pinbench eval OUT.bugs CLI.out
///       Classifies the report lines of a pinpoint run against the plants
///       with workload::evaluate; prints one JSON object per bug checker.
///   pinbench isolated CHECKERS FILE.mc
///       Lists the functions the demand pre-pass keeps for CHECKERS whose
///       edit invalidates no other kept function's summary-cache entry: no
///       kept function shares their call-graph SCC or calls them, even
///       transitively. A warm run after such an edit misses exactly once.
///       Each line is "NAME LINE": a statement appended to source line LINE
///       (the first straight-line statement of the entry block) edits NAME.
///   pinbench trace [CLI flags] --reports=OUT FILE.mc
///       Drives the same library calls as the pinpoint CLI, with one span
///       around each layer entry point, writes the reports to OUT in the
///       CLI's format and prints the spans and layer counters as JSON.
///
//===----------------------------------------------------------------------===//

#include "checkers/Checker.h"
#include "checkers/SpecialCheckers.h"
#include "frontend/Parser.h"
#include "ir/SSA.h"
#include "support/RNG.h"
#include "support/ResourceGovernor.h"
#include "support/Statistics.h"
#include "support/SummaryCache.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "svfa/GlobalSVFA.h"
#include "workload/Evaluate.h"
#include "workload/Subjects.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

using namespace pinpoint;

namespace {

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::stringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  std::stringstream SS(S);
  std::string Item;
  while (std::getline(SS, Item, ','))
    Out.push_back(Item);
  return Out;
}

/// The checker spec the CLI builds for \p Name (leak has none).
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

svfa::DemandSpec demandSpecFor(const std::vector<std::string> &Checkers) {
  svfa::DemandSpec DS;
  for (const std::string &Name : Checkers) {
    checkers::CheckerSpec Spec;
    if (Name == "leak")
      DS.LeakSources = true;
    else if (specFor(Name, Spec))
      DS.Checkers.push_back(std::move(Spec));
  }
  return DS;
}

bool parseSource(const std::string &Source, ir::Module &M) {
  std::vector<frontend::Diag> Diags;
  if (frontend::parseModule(Source, M, Diags))
    return true;
  for (const frontend::Diag &D : Diags)
    std::fprintf(stderr, "error: %s\n", D.str().c_str());
  return false;
}

//===--- gen ---------------------------------------------------------------===

const char *kindName(workload::BugKind K) {
  switch (K) {
  case workload::BugKind::Feasible:
    return "feasible";
  case workload::BugKind::Infeasible:
    return "infeasible";
  case workload::BugKind::EnvGuarded:
    return "envguarded";
  }
  return "?";
}

/// Bug checkers by the name their reports carry (the ones with plants).
const std::map<std::string, workload::BugChecker> &plantedCheckers() {
  static const std::map<std::string, workload::BugChecker> M = {
      {"use-after-free", workload::BugChecker::UseAfterFree},
      {"double-free", workload::BugChecker::DoubleFree},
      {"path-traversal", workload::BugChecker::PathTraversal},
      {"data-transmission", workload::BugChecker::DataTransmission},
  };
  return M;
}

const char *checkerName(workload::BugChecker C) {
  for (const auto &[Name, BC] : plantedCheckers())
    if (BC == C)
      return Name.c_str();
  return "?";
}

int cmdGen(int Argc, char **Argv) {
  if (Argc != 8) {
    std::fprintf(stderr, "usage: pinbench gen SUBJECT SCALE SEED INDEX "
                         "OUT.mc OUT.bugs\n");
    return 2;
  }
  const workload::Subject *Subj = nullptr;
  for (const workload::Subject &S : workload::table1Subjects())
    if (std::strcmp(S.Name, Argv[2]) == 0)
      Subj = &S;
  const double Scale = std::atof(Argv[3]);
  if (!Subj || Scale <= 0) {
    std::fprintf(stderr, "error: unknown subject or bad scale\n");
    return 2;
  }
  workload::WorkloadConfig Cfg = workload::configFor(*Subj, Scale);
  if (std::strcmp(Argv[4], "default") != 0)
    Cfg.Seed = std::strtoull(Argv[4], nullptr, 10);
  // The generator's SplitMix64 stream from Seed + k * golden-ratio is its
  // stream from Seed shifted by k draws, so sibling subjects of one seed
  // take a hashed seed instead of a stepped one.
  if (const uint64_t Index = std::strtoull(Argv[5], nullptr, 10))
    Cfg.Seed = RNG(Cfg.Seed ^ (Index * 0xd1b54a32d192ed03ull)).next();
  const workload::Workload W = workload::generate(Cfg);

  std::ofstream Src(Argv[6]), Bugs(Argv[7]);
  Src << W.Source;
  for (const workload::PlantedBug &B : W.Bugs)
    Bugs << kindName(B.Kind) << ' ' << checkerName(B.Checker) << ' '
         << B.SourceLine << ' ' << B.SinkLine << '\n';
  if (!Src.flush() || !Bugs.flush()) {
    std::fprintf(stderr, "error: cannot write subject files\n");
    return 1;
  }
  std::printf("{\"loc\": %zu, \"bugs\": %zu}\n", W.LoC, W.Bugs.size());
  return 0;
}

//===--- eval --------------------------------------------------------------===

int cmdEval(int Argc, char **Argv) {
  std::string BugText, Out;
  if (Argc != 4 || !readFile(Argv[2], BugText) || !readFile(Argv[3], Out)) {
    std::fprintf(stderr, "usage: pinbench eval OUT.bugs CLI.out\n");
    return 2;
  }
  std::vector<workload::PlantedBug> Bugs;
  std::istringstream BS(BugText);
  std::string Kind, Checker;
  uint32_t Src = 0, Sink = 0;
  while (BS >> Kind >> Checker >> Src >> Sink) {
    workload::PlantedBug B;
    B.Kind = Kind == "feasible"     ? workload::BugKind::Feasible
             : Kind == "infeasible" ? workload::BugKind::Infeasible
                                    : workload::BugKind::EnvGuarded;
    B.Checker = plantedCheckers().at(Checker);
    B.SourceLine = Src;
    B.SinkLine = Sink;
    Bugs.push_back(B);
  }

  // Report header lines: "<checker>: source <fn>:<line>:<col> -> sink ...".
  std::vector<workload::ReportView> Views;
  std::istringstream OS(Out);
  std::string Line;
  while (std::getline(OS, Line)) {
    char Name[64], SrcFn[256], SinkFn[256];
    unsigned SL = 0, SC = 0, KL = 0, KC = 0;
    if (std::sscanf(Line.c_str(), "%63[^:]: source %255[^:]:%u:%u -> sink "
                                  "%255[^:]:%u:%u",
                    Name, SrcFn, &SL, &SC, SinkFn, &KL, &KC) != 7)
      continue;
    auto It = plantedCheckers().find(Name);
    if (It != plantedCheckers().end())
      Views.push_back({SL, KL, It->second});
  }

  // Feasible plants found come from the oracle as is; reports on infeasible
  // and env-guarded plants by asking it again with only those plants,
  // relabelled feasible, so its true positives count exactly them.
  auto relabelled = [&](workload::BugKind K) {
    std::vector<workload::PlantedBug> Only;
    for (workload::PlantedBug B : Bugs)
      if (B.Kind == K) {
        B.Kind = workload::BugKind::Feasible;
        Only.push_back(B);
      }
    return Only;
  };
  const auto Infeasible = relabelled(workload::BugKind::Infeasible);
  const auto EnvGuarded = relabelled(workload::BugKind::EnvGuarded);

  std::printf("{");
  const char *Sep = "";
  for (const auto &[Name, BC] : plantedCheckers()) {
    const workload::EvalResult R = workload::evaluate(Bugs, Views, BC);
    std::printf("%s\"%s\": {\"reports\": %d, \"feasible\": %d, "
                "\"feasible_found\": %d, \"infeasible_reported\": %d, "
                "\"envguarded_reported\": %d}",
                Sep, Name.c_str(), R.Reports,
                R.TruePositives + R.FalseNegatives, R.TruePositives,
                workload::evaluate(Infeasible, Views, BC).TruePositives,
                workload::evaluate(EnvGuarded, Views, BC).TruePositives);
    Sep = ", ";
  }
  std::printf("}\n");
  return 0;
}

//===--- isolated ----------------------------------------------------------===

int cmdIsolated(int Argc, char **Argv) {
  std::string Source;
  if (Argc != 4 || !readFile(Argv[3], Source)) {
    std::fprintf(stderr, "usage: pinbench isolated CHECKERS FILE.mc\n");
    return 2;
  }
  ir::Module M;
  if (!parseSource(Source, M))
    return 2;
  for (ir::Function *F : M.functions()) {
    F->recomputeCFGEdges();
    ir::constructSSA(*F);
  }
  const ir::CallGraph CG(M);
  const svfa::DemandSpec DS = demandSpecFor(splitList(Argv[2]));
  const svfa::RelevanceSet Rel = svfa::computeRelevance(CG, M, DS);

  // An SCC's cache key chains through its callees' keys, so an edit
  // invalidates its own SCC and every SCC that reaches it, and each kept
  // function there misses. SCC ids are topological (callee < caller), so
  // one descending sweep finds the SCCs with a kept transitive caller.
  const auto &SCCs = CG.sccs();
  std::vector<size_t> Kept(SCCs.size(), 0);
  for (size_t I = 0; I < SCCs.size(); ++I)
    for (const ir::Function *F : SCCs[I].Members)
      Kept[I] += Rel.relevant(F) ? 1 : 0;
  std::vector<uint8_t> KeptAbove(SCCs.size(), 0);
  for (size_t I = SCCs.size(); I-- > 0;)
    for (uint32_t Callee : SCCs[I].CalleeSCCs)
      KeptAbove[Callee] |= KeptAbove[I] | (Kept[I] > 0);

  // A line that holds a statement of the body before any branch, so a
  // statement appended to it stays in the function and moves no other line.
  auto editLine = [](const ir::Function &F) -> uint32_t {
    if (!F.entry())
      return 0;
    for (const ir::Stmt *S : F.entry()->stmts())
      if (S->stmtKind() != ir::Stmt::SK_Phi && !S->isTerminator() &&
          !S->isSynthetic() && S->loc().isValid())
        return S->loc().Line;
    return 0;
  };
  for (size_t I = 0; I < SCCs.size(); ++I)
    if (Kept[I] == 1 && !KeptAbove[I])
      for (const ir::Function *F : SCCs[I].Members)
        if (Rel.relevant(F))
          if (const uint32_t Line = editLine(*F))
            std::printf("%s %u\n", F->name().c_str(), Line);
  return 0;
}

//===--- trace -------------------------------------------------------------===

/// The layer spans of one traced run, kept in memory and printed at the
/// end: name, parent span, and start and end in steady-clock seconds since
/// the run began. Checker spans close on pool threads, hence the lock.
class Trace {
public:
  /// Runs \p Fn inside a span; returns its duration.
  template <typename FnT>
  double span(std::string Name, const char *Parent, FnT &&Fn) {
    const double Start = Epoch.seconds();
    Fn();
    const double End = Epoch.seconds();
    std::lock_guard<std::mutex> L(Mu);
    Spans.push_back({std::move(Name), Parent, Start, End});
    return End - Start;
  }

  void print() const {
    std::printf("[");
    for (size_t I = 0; I < Spans.size(); ++I)
      std::printf("%s{\"name\": \"%s\", \"parent\": \"%s\", "
                  "\"start\": %.6f, \"end\": %.6f}",
                  I ? ", " : "", Spans[I].Name.c_str(), Spans[I].Parent,
                  Spans[I].Start, Spans[I].End);
    std::printf("]");
  }

private:
  struct Span {
    std::string Name;
    const char *Parent;
    double Start, End;
  };
  Timer Epoch;
  std::mutex Mu;
  std::vector<Span> Spans;
};

struct CheckerRun {
  std::vector<svfa::Report> Reports;
  svfa::GlobalSVFA::Stats Engine;
  smt::StagedSolver::Stats Solver;
  double RunSec = 0, TeardownSec = 0;
};

int cmdTrace(int Argc, char **Argv) {
  std::vector<std::string> Checkers{"uaf", "df"};
  unsigned Jobs = 1;
  bool Demand = true;
  std::string CacheDir, ReportsPath, File;
  for (int I = 2; I < Argc; ++I) {
    const std::string A = Argv[I];
    if (A.rfind("--checker=", 0) == 0)
      Checkers = splitList(A.substr(10));
    else if (A.rfind("--jobs=", 0) == 0)
      Jobs = static_cast<unsigned>(std::atoi(A.c_str() + 7));
    else if (A == "--demand=off" || A == "--demand=on")
      Demand = A == "--demand=on";
    else if (A.rfind("--cache-dir=", 0) == 0)
      CacheDir = A.substr(12);
    else if (A.rfind("--reports=", 0) == 0)
      ReportsPath = A.substr(10);
    else if (A[0] != '-')
      File = A;
    else {
      std::fprintf(stderr, "error: unsupported trace flag %s\n", A.c_str());
      return 2;
    }
  }
  if (File.empty() || ReportsPath.empty()) {
    std::fprintf(stderr, "usage: pinbench trace [flags] --reports=OUT "
                         "FILE.mc\n");
    return 2;
  }

  // The same objects, options and call order as tools/PinpointTool.cpp,
  // held by pointer so their destruction can be timed as one span.
  Trace T;
  Counters &C = Counters::get();
  auto M = std::make_unique<ir::Module>();
  bool Parsed = false;
  const double Parse = T.span("frontend", "run", [&] {
    std::string Source;
    if (readFile(File, Source))
      Parsed = parseSource(Source + "\n", *M);
  });
  if (!Parsed)
    return 2;

  auto Gov = std::make_unique<ResourceGovernor>();
  std::unique_ptr<ThreadPool> Pool;
  if (Jobs > 1)
    Pool = std::make_unique<ThreadPool>(Jobs);
  std::unique_ptr<SummaryCache> Cache;
  if (!CacheDir.empty()) {
    Cache = std::make_unique<SummaryCache>(CacheDir,
                                           SummaryCache::Mode::ReadWrite);
    std::string Err;
    if (!Cache->prepare(Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
  }
  auto Ctx = std::make_unique<smt::ExprContext>();
  const svfa::DemandSpec DS = demandSpecFor(Checkers);

  svfa::PipelineOptions PO;
  PO.Governor = Gov.get();
  PO.Pool = Pool.get();
  PO.Cache = Cache.get();
  PO.Demand = Demand ? &DS : nullptr;
  PO.PlanDemand = &DS;
  std::unique_ptr<svfa::AnalyzedModule> AM;
  const double Analyze = T.span("analyze", "run", [&] {
    AM = std::make_unique<svfa::AnalyzedModule>(*M, *Ctx, PO);
  });

  svfa::GlobalOptions GO;
  GO.Demand = Demand;
  GO.Governor = Gov.get();
  GO.Pool = Pool.get();
  std::vector<CheckerRun> Runs(Checkers.size());
  auto runChecker = [&](size_t Idx) {
    const std::string &Name = Checkers[Idx];
    CheckerRun &R = Runs[Idx];
    checkers::CheckerSpec Spec;
    if (Name == "leak") {
      R.RunSec = T.span("checkers.leak", "discharge", [&] {
        R.Reports = checkers::checkMemoryLeaks(*AM);
      });
      return;
    }
    if (!specFor(Name, Spec))
      return;
    std::unique_ptr<svfa::GlobalSVFA> Engine;
    R.RunSec = T.span("global." + Name, "discharge", [&] {
      Engine = std::make_unique<svfa::GlobalSVFA>(*AM, Spec, GO);
      R.Reports = Engine->run();
    });
    R.Engine = Engine->stats();
    R.Solver = Engine->solverStats();
    R.TeardownSec = T.span("teardown.global." + Name, "discharge",
                           [&] { Engine.reset(); });
  };
  T.span("discharge", "run", [&] {
    if (Pool) {
      ThreadPool::TaskGroup G(*Pool);
      for (size_t Idx = 0; Idx < Checkers.size(); ++Idx)
        G.spawn([&runChecker, Idx] { runChecker(Idx); });
      G.wait();
    } else {
      for (size_t Idx = 0; Idx < Checkers.size(); ++Idx)
        runChecker(Idx);
    }
  });

  T.span("report", "run", [&] {
    std::ofstream Out(ReportsPath);
    for (const CheckerRun &R : Runs)
      for (const svfa::Report &Rep : R.Reports) {
        Out << Rep.Checker << ": source " << Rep.SourceFn << ':'
            << Rep.Source.str() << " -> sink " << Rep.SinkFn << ':'
            << Rep.Sink.str()
            << (Rep.Verdict == smt::SatResult::Unknown ? " [verdict=unknown]"
                                                       : "")
            << '\n';
        for (const std::string &Step : Rep.Path)
          Out << "    via " << Step << '\n';
      }
  });

  // Everything the layers expose, read while the objects are still alive.
  const auto &PS = AM->phaseSeconds();
  std::map<std::string, double> V;
  V["frontend.parse_s"] = Parse;
  V["demand.relevant_fns"] = static_cast<double>(AM->relevantFunctions());
  V["demand.skipped_fns"] = static_cast<double>(AM->skippedFunctions());
  V["demand.prepass_fns"] = C.value("demand.prepass-fns");
  V["demand.dirty_fns"] = static_cast<double>(AM->dirtyFunctions());
  V["ir.ssa_s"] = PS.SSA;
  V["demand.prepass_s"] = PS.Prepass;
  V["pipeline.build_s"] = std::max(0.0, Analyze - PS.SSA - PS.Prepass);
  uint64_t BusyUs = 0;
  for (uint64_t Us : AM->sccCostsUs())
    BusyUs += Us;
  V["pipeline.busy_s"] = BusyUs / 1e6;
  V["pipeline.seg_edges"] = static_cast<double>(AM->totalSEGEdges());
  const ThreadPool::SchedStats SS =
      Pool ? Pool->schedStats() : ThreadPool::SchedStats{};
  V["sched.steals"] = static_cast<double>(SS.Steals);
  V["sched.local_pops"] = static_cast<double>(SS.LocalPops);
  V["sched.inbox_pops"] = static_cast<double>(SS.InboxPops);
  V["cache.hits"] = C.value("cache.hits");
  V["cache.misses"] = C.value("cache.misses");
  V["cache.stored"] = C.value("cache.stored");
  for (const char *Name : {"uaf", "df", "null-deref"})
    V[std::string("global.") + Name + "_s"] = 0;
  V["checkers.leak_s"] = 0;
  double EngineTeardown = 0;
  for (size_t Idx = 0; Idx < Checkers.size(); ++Idx) {
    const CheckerRun &R = Runs[Idx];
    V[Checkers[Idx] == "leak" ? std::string("checkers.leak_s")
                              : "global." + Checkers[Idx] + "_s"] = R.RunSec;
    EngineTeardown += R.TeardownSec;
    V["global.events"] += R.Engine.Events;
    V["global.candidates"] += R.Engine.Candidates;
    V["global.closure_steps"] += R.Engine.ClosureSteps;
    V["global.linear_pruned"] += R.Engine.LinearPruned;
    V["smt.queries"] += R.Solver.Queries;
    V["smt.linear_unsat"] += R.Solver.LinearUnsat;
    V["smt.backend_calls"] += R.Solver.BackendCalls;
    V["smt.cache_hits"] += R.Solver.CacheHits;
  }
  V["mem.peak_arena_mb"] = MemStats::get().peakBytes() / 1e6;

  // Walks every intern bucket, so it gets its own span, which the harness
  // takes out of the traced total: it is not a cost of the CLI run.
  T.span("probe", "run", [&] {
    V["smt.expr_nodes"] = static_cast<double>(Ctx->internStats().Nodes);
  });

  const double Teardown = T.span("teardown", "run", [&] {
    Runs.clear();
    AM.reset();
    Ctx.reset();
    Cache.reset();
    Pool.reset();
    Gov.reset();
    M.reset();
  });
  V["teardown_s"] = EngineTeardown + Teardown;

  std::printf("{\"spans\": ");
  T.print();
  std::printf(", \"metrics\": {");
  const char *Sep = "";
  for (const auto &[Name, Val] : V) {
    std::printf("%s\"%s\": %.6f", Sep, Name.c_str(), Val);
    Sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}

//===--- stamp -------------------------------------------------------------===

int cmdStamp() {
#if PINPOINT_HAS_Z3
  std::printf("z3\n");
#else
  std::printf("minisolver\n");
#endif
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  const std::string Cmd = Argc > 1 ? Argv[1] : "";
  if (Cmd == "gen")
    return cmdGen(Argc, Argv);
  if (Cmd == "eval")
    return cmdEval(Argc, Argv);
  if (Cmd == "isolated")
    return cmdIsolated(Argc, Argv);
  if (Cmd == "trace")
    return cmdTrace(Argc, Argv);
  if (Cmd == "smt-backend")
    return cmdStamp();
  std::fprintf(stderr,
               "usage: pinbench gen|eval|isolated|trace|smt-backend ...\n");
  return 2;
}
