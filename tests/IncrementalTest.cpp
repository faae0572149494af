//===- tests/IncrementalTest.cpp - Incremental reanalysis differential tests ===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The correctness bar of the persistent summary cache (`--cache-dir`) is
/// absolute: a warm, cold or partially-invalidated run must be
/// *indistinguishable* from a from-scratch analysis — same reports, same
/// degradation events — with the cache visible only in its own counters.
/// These tests enforce that differentially:
///
///  * full vs warm-cache vs single-function-edited runs over generated
///    subjects, across checkers and jobs ∈ {1, 4};
///  * invalidation granularity on a handcrafted call chain — exactly the
///    edited SCC plus its transitive callers rebuild;
///  * robustness: truncated, bit-flipped and version-mismatched entry
///    files are detected, logged as degradation events, and silently fall
///    back to a full rebuild (never a crash, never a wrong report),
///    including via the `cache-read` injected fault;
///  * read-only mode writes nothing; nondeterministically degraded chains
///    are never stored;
///  * the serialisation layer itself (writer/reader round trips, bounds
///    checks, store/load integrity);
///  * `GlobalSVFA::Stats` being pollable from another thread while `run()`
///    is in flight (exercised under TSan in CI).
///
//===----------------------------------------------------------------------===//

#include "checkers/SpecialCheckers.h"
#include "frontend/Parser.h"
#include "support/FaultInjector.h"
#include "support/Hasher.h"
#include "support/ResourceGovernor.h"
#include "support/Serializer.h"
#include "support/Statistics.h"
#include "support/SummaryCache.h"
#include "support/ThreadPool.h"
#include "svfa/GlobalSVFA.h"
#include "svfa/SummaryIO.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace pinpoint;

namespace pinpoint::svfa {
namespace {

//===----------------------------------------------------------------------===
// Harness
//===----------------------------------------------------------------------===

/// A fresh cache directory under the test working directory, removed on
/// scope exit.
class TempCacheDir {
public:
  explicit TempCacheDir(const std::string &Tag) {
    Path = "inc_cache_" + Tag + "_" +
           std::to_string(Counter.fetch_add(1, std::memory_order_relaxed));
    std::filesystem::remove_all(Path);
  }
  ~TempCacheDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  const std::string &path() const { return Path; }

private:
  static inline std::atomic<uint64_t> Counter{0};
  std::string Path;
};

/// Snapshot of the global cache counters; tests work in deltas because the
/// counters are cumulative across the whole test process.
struct CacheCounters {
  int64_t Hits = 0, Misses = 0, Invalidated = 0, Corrupt = 0, Stored = 0;

  static CacheCounters now() {
    Counters &C = Counters::get();
    return {C.value("cache.hits"), C.value("cache.misses"),
            C.value("cache.invalidated"), C.value("cache.corrupt"),
            C.value("cache.stored")};
  }
  CacheCounters operator-(const CacheCounters &O) const {
    return {Hits - O.Hits, Misses - O.Misses, Invalidated - O.Invalidated,
            Corrupt - O.Corrupt, Stored - O.Stored};
  }
};

std::string render(const Report &R) {
  std::string Out = R.Checker + "|" + R.SourceFn + ":" + R.Source.str() +
                    "->" + R.SinkFn + ":" + R.Sink.str() + "|" +
                    smt::toString(R.Verdict);
  for (const std::string &Step : R.Path)
    Out += "|" + Step;
  return Out;
}

/// One full analysis run and everything the differential comparison needs.
struct RunResult {
  std::vector<std::string> Reports;
  /// Sorted multiset of degradation events, cache-stage events excluded
  /// (those are the cache's own, legitimately warm-vs-cold-different
  /// channel — everything else must match exactly).
  std::multiset<std::string> Degradations;
  /// The cache stage's events, as "kind|function".
  std::multiset<std::string> CacheDegradations;
  CacheCounters Cache; ///< Deltas attributable to this run.
  size_t NumFunctions = 0;
};

RunResult runAnalysis(const std::string &Src,
                      const checkers::CheckerSpec &Spec, unsigned Jobs,
                      SummaryCache *Cache, const std::string &FaultSpec = "") {
  RunResult Out;
  CacheCounters Before = CacheCounters::now();

  ir::Module M;
  std::vector<frontend::Diag> Diags;
  EXPECT_TRUE(frontend::parseModule(Src, M, Diags));
  for (auto &D : Diags)
    ADD_FAILURE() << D.str();
  Out.NumFunctions = M.functions().size();
  smt::ExprContext Ctx;

  FaultInjector FI;
  if (!FaultSpec.empty()) {
    std::string Err;
    EXPECT_TRUE(FI.parse(FaultSpec, Err)) << Err;
  }
  Budget Bud;
  ResourceGovernor Gov(Bud, std::move(FI));
  if (Cache) {
    std::string Err;
    EXPECT_TRUE(Cache->prepare(Err)) << Err;
  }

  std::unique_ptr<ThreadPool> Pool;
  if (Jobs > 1)
    Pool = std::make_unique<ThreadPool>(Jobs);

  PipelineOptions PO;
  PO.Governor = &Gov;
  PO.Pool = Pool.get();
  PO.Cache = Cache;
  AnalyzedModule AM(M, Ctx, PO);

  GlobalOptions GO;
  GO.Governor = &Gov;
  GO.Pool = Pool.get();
  GlobalSVFA Engine(AM, Spec, GO);
  for (const Report &R : Engine.run())
    Out.Reports.push_back(render(R));

  for (const DegradationEvent &E : Gov.log().events())
    if (E.Stage != "cache")
      Out.Degradations.insert(E.Stage + "|" + E.Function + "|" +
                              std::to_string(static_cast<int>(E.Kind)) + "|" +
                              E.Detail);
    else
      Out.CacheDegradations.insert(std::string(toString(E.Kind)) + "|" +
                                   E.Function);
  Out.Cache = CacheCounters::now() - Before;
  return Out;
}

/// Cache-stage degradation kinds seen by a run (the channel excluded from
/// the differential comparison, asserted on by the robustness tests).
std::multiset<DegradationKind> cacheEvents(const std::string &Src,
                                           SummaryCache *Cache,
                                           const std::string &FaultSpec = "") {
  ir::Module M;
  std::vector<frontend::Diag> Diags;
  EXPECT_TRUE(frontend::parseModule(Src, M, Diags));
  smt::ExprContext Ctx;
  FaultInjector FI;
  if (!FaultSpec.empty()) {
    std::string Err;
    EXPECT_TRUE(FI.parse(FaultSpec, Err)) << Err;
  }
  Budget Bud;
  ResourceGovernor Gov(Bud, std::move(FI));
  PipelineOptions PO;
  PO.Governor = &Gov;
  PO.Cache = Cache;
  AnalyzedModule AM(M, Ctx, PO);
  std::multiset<DegradationKind> Out;
  for (const DegradationEvent &E : Gov.log().events())
    if (E.Stage == "cache")
      Out.insert(E.Kind);
  return Out;
}

workload::WorkloadConfig subjectConfig(uint64_t Seed) {
  workload::WorkloadConfig C;
  C.Seed = Seed;
  C.TargetLoC = 700;
  C.FeasibleUAF = 3;
  C.InfeasibleUAF = 2;
  C.FeasibleDF = 2;
  C.FeasibleTaint = 2;
  C.AliasNoise = 3;
  C.CallDepth = 3;
  return C;
}

/// Deterministic single-function edit: a dead declaration appended after
/// the header of the \p Pick-th generated function (column-0 headers).
std::string mutateOneFunction(const std::string &Src, size_t Pick,
                              std::string *EditedName = nullptr) {
  std::vector<size_t> HeaderEnds;
  std::vector<std::string> Names;
  size_t Pos = 0;
  while (Pos < Src.size()) {
    size_t EOL = Src.find('\n', Pos);
    if (EOL == std::string::npos)
      EOL = Src.size();
    std::string Line = Src.substr(Pos, EOL - Pos);
    if (Line.rfind("int ", 0) == 0 && Line.find('(') != std::string::npos &&
        Line.size() >= 1 && Line.back() == '{') {
      HeaderEnds.push_back(EOL);
      size_t NameStart = Line.find_first_not_of("* ", 4);
      Names.push_back(
          Line.substr(NameStart, Line.find('(') - NameStart));
    }
    Pos = EOL + 1;
  }
  EXPECT_FALSE(HeaderEnds.empty());
  size_t Idx = Pick % HeaderEnds.size();
  if (EditedName)
    *EditedName = Names[Idx];
  std::string Out = Src;
  Out.insert(HeaderEnds[Idx], "\n  int zqcachepad = 7;");
  return Out;
}

//===----------------------------------------------------------------------===
// Differential harness: full vs warm vs edited
//===----------------------------------------------------------------------===

TEST(IncrementalDifferentialTest, WarmRunMatchesColdExactly) {
  const checkers::CheckerSpec Specs[] = {checkers::useAfterFreeChecker(),
                                         checkers::doubleFreeChecker(),
                                         checkers::pathTraversalChecker()};
  for (uint64_t Seed : {11u, 42u}) {
    workload::Workload W = workload::generate(subjectConfig(Seed));
    for (unsigned Jobs : {1u, 4u}) {
      TempCacheDir Dir("warm");
      SummaryCache Cache(Dir.path(), SummaryCache::Mode::ReadWrite);

      // Reference: no cache at all.
      RunResult Ref = runAnalysis(W.Source, Specs[0], Jobs, nullptr);
      // Cold populate, then warm.
      RunResult Cold = runAnalysis(W.Source, Specs[0], Jobs, &Cache);
      RunResult Warm = runAnalysis(W.Source, Specs[0], Jobs, &Cache);

      EXPECT_EQ(Ref.Reports, Cold.Reports) << "seed " << Seed;
      EXPECT_EQ(Ref.Reports, Warm.Reports) << "seed " << Seed;
      EXPECT_EQ(Ref.Degradations, Cold.Degradations);
      EXPECT_EQ(Ref.Degradations, Warm.Degradations);
      EXPECT_FALSE(Ref.Reports.empty()) << "vacuous comparison";

      // Cold stored everything it could; warm hit exactly that set and
      // rebuilt the rest.
      EXPECT_EQ(Cold.Cache.Hits, 0);
      EXPECT_EQ(Cold.Cache.Misses, (int64_t)Cold.NumFunctions);
      EXPECT_GT(Cold.Cache.Stored, 0);
      EXPECT_EQ(Warm.Cache.Hits, Cold.Cache.Stored);
      EXPECT_EQ(Warm.Cache.Misses,
                (int64_t)Warm.NumFunctions - Cold.Cache.Stored);
      EXPECT_EQ(Warm.Cache.Invalidated, 0);
      EXPECT_EQ(Warm.Cache.Corrupt, 0);

      // The other checkers see identical reports on the warm pipeline too
      // (the checker stage is downstream of everything the cache replays).
      for (const checkers::CheckerSpec &Spec : {Specs[1], Specs[2]}) {
        RunResult R1 = runAnalysis(W.Source, Spec, Jobs, nullptr);
        RunResult R2 = runAnalysis(W.Source, Spec, Jobs, &Cache);
        EXPECT_EQ(R1.Reports, R2.Reports)
            << "seed " << Seed << " checker " << Spec.Name;
      }
    }
  }
}

TEST(IncrementalDifferentialTest, EditedRunMatchesColdAndReusesCleanSCCs) {
  for (uint64_t Seed : {7u, 23u}) {
    workload::Workload W = workload::generate(subjectConfig(Seed));
    std::string Edited = mutateOneFunction(W.Source, Seed);
    for (unsigned Jobs : {1u, 4u}) {
      TempCacheDir Dir("edit");
      SummaryCache Cache(Dir.path(), SummaryCache::Mode::ReadWrite);
      const checkers::CheckerSpec Spec = checkers::useAfterFreeChecker();

      RunResult Cold = runAnalysis(W.Source, Spec, Jobs, &Cache);
      RunResult EditedRef = runAnalysis(Edited, Spec, Jobs, nullptr);
      RunResult EditedWarm = runAnalysis(Edited, Spec, Jobs, &Cache);

      EXPECT_EQ(EditedRef.Reports, EditedWarm.Reports)
          << "seed " << Seed << " jobs " << Jobs;
      EXPECT_EQ(EditedRef.Degradations, EditedWarm.Degradations);
      // The edit must not blow the whole cache away: untouched SCCs hit.
      EXPECT_GT(EditedWarm.Cache.Hits, 0) << "seed " << Seed;
      // And it must invalidate something (the edited chain).
      EXPECT_GT(EditedWarm.Cache.Invalidated, 0) << "seed " << Seed;
      EXPECT_EQ(EditedWarm.Cache.Hits + EditedWarm.Cache.Misses,
                (int64_t)EditedWarm.NumFunctions);
      (void)Cold;
    }
  }
}

//===----------------------------------------------------------------------===
// Warm SEGs equal cold SEGs
//===----------------------------------------------------------------------===

/// Renders a condition with every symbolic variable replaced by the IR
/// variable it stands for, so conditions interned in two separate
/// expression contexts compare structurally. Variables without IR backing
/// (never part of a cached entry) render as a bare "fresh".
class StructuralRenderer {
public:
  explicit StructuralRenderer(const ir::SymbolMap &Syms) : Syms(Syms) {}

  const std::string &operator()(const smt::Expr *E) {
    auto It = Memo.find(E);
    if (It != Memo.end())
      return It->second;
    std::string Out;
    switch (E->kind()) {
    case smt::ExprKind::True:
      Out = "true";
      break;
    case smt::ExprKind::False:
      Out = "false";
      break;
    case smt::ExprKind::IntConst:
      Out = std::to_string(E->constValue());
      break;
    case smt::ExprKind::BoolVar:
    case smt::ExprKind::IntVar: {
      const ir::Variable *V = Syms.irVar(E->varId());
      Out = V ? V->parent()->name() + "." + V->name() + "#" +
                    std::to_string(V->id())
              : "fresh";
      break;
    }
    default:
      Out = "(" + std::to_string(static_cast<int>(E->kind()));
      for (const smt::Expr *Op : E->operands())
        Out += " " + (*this)(Op);
      Out += ")";
      break;
    }
    return Memo.emplace(E, std::move(Out)).first->second;
  }

private:
  const ir::SymbolMap &Syms;
  std::map<const smt::Expr *, std::string> Memo;
};

/// What the warm/cold comparison reads of one function's SEG.
struct SEGShape {
  size_t Vertices = 0, Edges = 0;
  /// Per load, in block order: the flow-in edges of its destination as
  /// "source if condition", in edge order.
  std::vector<std::vector<std::string>> LoadFlowIns;
};

/// Runs the pipeline over \p Src with \p Cache and returns every SEG's
/// shape by function name; \p Delta receives the run's cache counters.
std::map<std::string, SEGShape> segShapes(const std::string &Src,
                                          SummaryCache &Cache,
                                          CacheCounters &Delta) {
  CacheCounters Before = CacheCounters::now();
  ir::Module M;
  std::vector<frontend::Diag> Diags;
  EXPECT_TRUE(frontend::parseModule(Src, M, Diags));
  std::string Err;
  EXPECT_TRUE(Cache.prepare(Err)) << Err;
  smt::ExprContext Ctx;
  PipelineOptions PO;
  PO.Cache = &Cache;
  AnalyzedModule AM(M, Ctx, PO);
  StructuralRenderer Render(AM.symbols());
  std::map<std::string, SEGShape> Out;
  for (const ir::Function *F : M.functions()) {
    const seg::SEG *Seg = AM.info(F).Seg.get();
    if (!Seg)
      continue;
    SEGShape &Shape = Out[F->name()];
    Shape.Vertices = Seg->numVertices();
    Shape.Edges = Seg->numEdges();
    for (const ir::BasicBlock *B : F->blocks())
      for (const ir::Stmt *S : B->stmts())
        if (const auto *L = dyn_cast<ir::LoadStmt>(S)) {
          std::vector<std::string> In;
          for (const seg::FlowEdge &E : Seg->flowsIn(L->dst()))
            In.push_back(E.To->name() + "#" + std::to_string(E.To->id()) +
                         " if " + Render(E.Cond));
          Shape.LoadFlowIns.push_back(std::move(In));
        }
  }
  Delta = CacheCounters::now() - Before;
  return Out;
}

TEST(IncrementalDifferentialTest, WarmSEGsMatchColdSEGs) {
  // A cache hit builds its SEG from the replayed load dependences, a miss
  // from points-to pass 2. Every function that hits must get the SEG a
  // cold build gives it: same size, and per load the same sources under
  // the same conditions.
  for (uint64_t Seed : {11u, 42u}) {
    workload::Workload W = workload::generate(subjectConfig(Seed));
    TempCacheDir Dir("seg");
    SummaryCache Cache(Dir.path(), SummaryCache::Mode::ReadWrite);
    CacheCounters ColdDelta, WarmDelta;
    std::map<std::string, SEGShape> Cold =
        segShapes(W.Source, Cache, ColdDelta);
    std::map<std::string, SEGShape> Warm =
        segShapes(W.Source, Cache, WarmDelta);

    EXPECT_EQ(ColdDelta.Hits, 0);
    EXPECT_GT(WarmDelta.Hits, 0) << "seed " << Seed;
    EXPECT_EQ(WarmDelta.Hits, ColdDelta.Stored) << "seed " << Seed;
    EXPECT_EQ(WarmDelta.Corrupt, 0);

    ASSERT_EQ(Cold.size(), Warm.size());
    size_t LoadEdges = 0;
    for (const auto &[Name, C] : Cold) {
      auto It = Warm.find(Name);
      ASSERT_NE(It, Warm.end()) << Name;
      const SEGShape &H = It->second;
      EXPECT_EQ(C.Vertices, H.Vertices) << Name;
      EXPECT_EQ(C.Edges, H.Edges) << Name;
      EXPECT_EQ(C.LoadFlowIns, H.LoadFlowIns) << Name;
      for (const std::vector<std::string> &In : C.LoadFlowIns)
        LoadEdges += In.size();
    }
    EXPECT_GT(LoadEdges, 0u) << "vacuous comparison: no load dependences";
  }
}

//===----------------------------------------------------------------------===
// Invalidation granularity on a handcrafted chain
//===----------------------------------------------------------------------===

constexpr const char *ChainSrc = R"(int leaf(int *p) { free(p); return 0; }
int mid(int *p) { return leaf(p); }
int top(int *p) { return mid(p); }
int sibling(int *q) { free(q); return *q; }
int main() {
  int *a = malloc(4);
  top(a);
  *a = 1;
  int *b = malloc(4);
  sibling(b);
  free(b);
  return 0;
}
)";

TEST(IncrementalInvalidationTest, ExactlyDirtySCCAndTransitiveCallersRebuild) {
  const checkers::CheckerSpec Spec = checkers::useAfterFreeChecker();
  TempCacheDir Dir("chain");
  SummaryCache Cache(Dir.path(), SummaryCache::Mode::ReadWrite);

  RunResult Cold = runAnalysis(ChainSrc, Spec, 1, &Cache);
  EXPECT_EQ(Cold.Cache.Stored, 5);

  // Editing the chain's leaf dirties leaf, mid, top and main — but not
  // sibling, the one function outside the edited call chain.
  std::string LeafEdited(ChainSrc);
  LeafEdited.insert(LeafEdited.find("free(p)"), "int pad = 7; ");
  RunResult LeafRun = runAnalysis(LeafEdited, Spec, 1, &Cache);
  EXPECT_EQ(LeafRun.Cache.Hits, 1);
  EXPECT_EQ(LeafRun.Cache.Misses, 4);
  EXPECT_EQ(LeafRun.Cache.Invalidated, 4);

  // A second, stacked edit to sibling dirties only sibling and main; the
  // leaf chain (re-stored under its edited key by the previous run) is
  // reused wholesale.
  std::string SiblingEdited(LeafEdited);
  SiblingEdited.insert(SiblingEdited.find("free(q)"), "int pad = 7; ");
  RunResult SiblingRun = runAnalysis(SiblingEdited, Spec, 1, &Cache);
  EXPECT_EQ(SiblingRun.Cache.Hits, 3);
  EXPECT_EQ(SiblingRun.Cache.Misses, 2);
  EXPECT_EQ(SiblingRun.Cache.Invalidated, 2);

  // A pure layout change below every function body (appended comment-free
  // whitespace) keys identically: the fingerprint is content-based.
  RunResult Whitespace =
      runAnalysis(SiblingEdited + "\n\n", Spec, 1, &Cache);
  EXPECT_EQ(Whitespace.Cache.Invalidated, 0);
  EXPECT_EQ(Whitespace.Cache.Hits, 5);
}

//===----------------------------------------------------------------------===
// Robustness: corrupted, truncated, version-mismatched entries
//===----------------------------------------------------------------------===

class CacheRobustnessTest : public ::testing::Test {
protected:
  /// Populates a cache for ChainSrc and returns the baseline reports.
  std::vector<std::string> populate(SummaryCache &Cache) {
    RunResult Cold =
        runAnalysis(ChainSrc, checkers::useAfterFreeChecker(), 1, &Cache);
    EXPECT_EQ(Cold.Cache.Stored, 5);
    return Cold.Reports;
  }

  /// Warm run against the (possibly damaged) cache; expects byte-identical
  /// reports and returns the run's cache counter deltas.
  CacheCounters warmExpecting(SummaryCache &Cache,
                              const std::vector<std::string> &Baseline) {
    RunResult Warm =
        runAnalysis(ChainSrc, checkers::useAfterFreeChecker(), 1, &Cache);
    EXPECT_EQ(Warm.Reports, Baseline);
    return Warm.Cache;
  }
};

TEST_F(CacheRobustnessTest, TruncatedEntryFallsBackToRebuild) {
  TempCacheDir Dir("trunc");
  SummaryCache Cache(Dir.path(), SummaryCache::Mode::ReadWrite);
  std::vector<std::string> Baseline = populate(Cache);

  std::string Entry = Cache.entryPath("leaf");
  ASSERT_TRUE(std::filesystem::exists(Entry));
  std::filesystem::resize_file(Entry,
                               std::filesystem::file_size(Entry) / 2);

  CacheCounters C = warmExpecting(Cache, Baseline);
  EXPECT_EQ(C.Corrupt, 1);
  EXPECT_EQ(C.Hits, 4);
  std::multiset<DegradationKind> Events = cacheEvents(ChainSrc, &Cache);
  EXPECT_EQ(Events.count(DegradationKind::CacheCorrupt), 0u)
      << "rebuild must have re-stored a healthy entry";
}

TEST_F(CacheRobustnessTest, BitFlippedPayloadIsDetectedByChecksum) {
  TempCacheDir Dir("flip");
  SummaryCache Cache(Dir.path(), SummaryCache::Mode::ReadWrite);
  std::vector<std::string> Baseline = populate(Cache);

  std::string Entry = Cache.entryPath("mid");
  ASSERT_TRUE(std::filesystem::exists(Entry));
  {
    std::fstream F(Entry, std::ios::in | std::ios::out | std::ios::binary);
    F.seekg(0, std::ios::end);
    auto Size = static_cast<long>(F.tellg());
    ASSERT_GT(Size, 40);
    F.seekp(Size - 3);
    char B = 0;
    F.seekg(Size - 3);
    F.read(&B, 1);
    B ^= 0x40;
    F.seekp(Size - 3);
    F.write(&B, 1);
  }

  std::multiset<DegradationKind> Events = cacheEvents(ChainSrc, &Cache);
  EXPECT_EQ(Events.count(DegradationKind::CacheCorrupt), 1u);
  CacheCounters C = warmExpecting(Cache, Baseline);
  EXPECT_EQ(C.Corrupt, 0) << "the corrupt entry was rebuilt and re-stored";
  EXPECT_EQ(C.Hits, 5);
}

TEST_F(CacheRobustnessTest, VersionMismatchIsDetectedAndRebuilt) {
  TempCacheDir Dir("ver");
  SummaryCache Cache(Dir.path(), SummaryCache::Mode::ReadWrite);
  std::vector<std::string> Baseline = populate(Cache);

  std::string Entry = Cache.entryPath("top");
  {
    // The u32 format version sits right after the 4-byte magic.
    std::fstream F(Entry, std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(4);
    uint8_t Bumped = SummaryCache::FormatVersion + 1;
    F.write(reinterpret_cast<const char *>(&Bumped), 1);
  }

  std::multiset<DegradationKind> Events = cacheEvents(ChainSrc, &Cache);
  EXPECT_EQ(Events.count(DegradationKind::CacheCorrupt), 1u);
  CacheCounters C = warmExpecting(Cache, Baseline);
  EXPECT_EQ(C.Hits, 5);
}

TEST_F(CacheRobustnessTest, GarbageAndEmptyEntryFilesNeverCrash) {
  TempCacheDir Dir("garbage");
  SummaryCache Cache(Dir.path(), SummaryCache::Mode::ReadWrite);
  std::vector<std::string> Baseline = populate(Cache);

  {
    std::ofstream(Cache.entryPath("leaf"), std::ios::binary).write("", 0);
    std::ofstream G(Cache.entryPath("sibling"), std::ios::binary);
    for (int I = 0; I < 100; ++I)
      G.put(static_cast<char>(I * 37));
  }
  CacheCounters C = warmExpecting(Cache, Baseline);
  EXPECT_EQ(C.Corrupt, 2);
  EXPECT_EQ(C.Hits, 3);
}

TEST_F(CacheRobustnessTest, InjectedCacheReadFaultDegradesGracefully) {
  TempCacheDir Dir("fault");
  SummaryCache Cache(Dir.path(), SummaryCache::Mode::ReadWrite);
  std::vector<std::string> Baseline = populate(Cache);

  RunResult Warm = runAnalysis(ChainSrc, checkers::useAfterFreeChecker(), 1,
                               &Cache, "seed=7,cache-read=mid");
  EXPECT_EQ(Warm.Reports, Baseline);
  EXPECT_EQ(Warm.Cache.Corrupt, 1);
  EXPECT_EQ(Warm.Cache.Hits, 4);
  std::multiset<DegradationKind> Events =
      cacheEvents(ChainSrc, &Cache, "seed=7,cache-read=mid");
  EXPECT_EQ(Events.count(DegradationKind::InjectedFault), 1u);
}

/// A use-after-free through a callee's side effect: setp's connector
/// carries *h = a back to main.
constexpr const char *SetpSrc = R"(void setp(int **pp, int *v) { *pp = v; }
int main() {
  int *a = malloc();
  int **h = malloc();
  setp(h, a);
  free(a);
  int *b = *h;
  return *b;
}
)";

TEST_F(CacheRobustnessTest, OversizedCountInEntryRebuildsTheFunction) {
  const checkers::CheckerSpec Spec = checkers::useAfterFreeChecker();
  TempCacheDir Dir("count");
  SummaryCache Cache(Dir.path(), SummaryCache::Mode::ReadWrite);
  RunResult Cold = runAnalysis(SetpSrc, Spec, 1, &Cache);
  ASSERT_EQ(Cold.Reports.size(), 1u);
  EXPECT_EQ(Cold.Cache.Stored, 2);

  // Rewrite setp's entry under its own content key with a payload whose
  // access-path count no payload could hold. Magic, version, key and
  // checksum all pass; only the payload's decoding can catch it.
  uint64_t Key = 0;
  {
    std::ifstream In(Cache.entryPath("setp"), std::ios::binary);
    std::vector<uint8_t> Raw((std::istreambuf_iterator<char>(In)),
                             std::istreambuf_iterator<char>());
    ByteReader R(Raw);
    for (int I = 0; I < 4; ++I) // Magic.
      R.u8();
    ASSERT_EQ(R.u32(), SummaryCache::FormatVersion);
    Key = R.u64();
  }
  ByteWriter W;
  W.boolean(false);
  W.boolean(false);
  W.u32(0xFFFFFFFF);
  ASSERT_TRUE(Cache.store("setp", Key, W.take()));

  // Never wrong, at worst cold: the entry reads as corrupt and setp is
  // rebuilt, instead of failing as a function.
  RunResult Warm = runAnalysis(SetpSrc, Spec, 1, &Cache);
  EXPECT_EQ(Warm.Reports, Cold.Reports);
  EXPECT_EQ(Warm.Degradations, Cold.Degradations);
  EXPECT_EQ(Warm.CacheDegradations,
            std::multiset<std::string>{"cache-corrupt|setp"});
  EXPECT_EQ(Warm.Cache.Corrupt, 1);
  EXPECT_EQ(Warm.Cache.Hits, 1);
}

//===----------------------------------------------------------------------===
// Summary payload decoding
//===----------------------------------------------------------------------===

/// The count fields of a function-summary payload, in payload order.
enum class CountField { RefPaths, ModPaths, Nodes, Ops, Entries, Vals };

/// A payload that is well formed up to \p Field, whose count reads
/// 0xFFFFFFFF; every earlier count is 0, or 1 where the field sits inside
/// a counted item.
std::vector<uint8_t> payloadWithHugeCount(CountField Field) {
  constexpr uint32_t Huge = 0xFFFFFFFF;
  ByteWriter W;
  W.boolean(false); // NoteTruncated.
  W.boolean(false); // Pass 2's truncation flag.
  W.u32(Field == CountField::RefPaths ? Huge : 0);
  if (Field == CountField::RefPaths)
    return W.take();
  W.u32(Field == CountField::ModPaths ? Huge : 0);
  if (Field == CountField::ModPaths)
    return W.take();
  W.u32(1); // Loads.
  if (Field == CountField::Nodes || Field == CountField::Ops) {
    W.u32(Field == CountField::Nodes ? Huge : 1);
    if (Field == CountField::Ops) {
      W.u8(static_cast<uint8_t>(smt::ExprKind::And));
      W.u32(Huge);
    }
    return W.take();
  }
  W.u32(0); // Nodes.
  W.u32(Field == CountField::Entries ? Huge : 1);
  if (Field == CountField::Vals) {
    W.u32(0); // LoadIdx.
    W.u32(Huge);
  }
  return W.take();
}

void expectCorruptNotThrown(CountField Field) {
  svfa::FunctionSummaryEntry E;
  std::string Err;
  bool OK = true;
  EXPECT_NO_THROW(OK = svfa::decodeFunctionSummary(payloadWithHugeCount(Field),
                                                   E, Err));
  EXPECT_FALSE(OK);
  EXPECT_NE(Err.find("count exceeds the payload"), std::string::npos) << Err;
}

TEST(SummaryDecodeTest, RefPathCountIsBoundedByPayload) {
  expectCorruptNotThrown(CountField::RefPaths);
}

TEST(SummaryDecodeTest, ModPathCountIsBoundedByPayload) {
  expectCorruptNotThrown(CountField::ModPaths);
}

TEST(SummaryDecodeTest, NodeCountIsBoundedByPayload) {
  expectCorruptNotThrown(CountField::Nodes);
}

TEST(SummaryDecodeTest, OperandCountIsBoundedByPayload) {
  expectCorruptNotThrown(CountField::Ops);
}

TEST(SummaryDecodeTest, LoadEntryCountIsBoundedByPayload) {
  expectCorruptNotThrown(CountField::Entries);
}

TEST(SummaryDecodeTest, DependenceValueCountIsBoundedByPayload) {
  expectCorruptNotThrown(CountField::Vals);
}

//===----------------------------------------------------------------------===
// Write-side policy
//===----------------------------------------------------------------------===

TEST(CachePolicyTest, ReadOnlyModeNeverWrites) {
  TempCacheDir Dir("ro");
  SummaryCache Cache(Dir.path(), SummaryCache::Mode::Read);
  RunResult R =
      runAnalysis(ChainSrc, checkers::useAfterFreeChecker(), 1, &Cache);
  EXPECT_EQ(R.Cache.Misses, 5);
  EXPECT_EQ(R.Cache.Stored, 0);
  EXPECT_FALSE(std::filesystem::exists(Dir.path()))
      << "read mode must not even create the directory";
}

TEST(CachePolicyTest, NondeterministicallyDegradedChainsAreNotStored) {
  // leaf's pipeline throws: leaf (failed) and its transitive callers mid,
  // top and main (built against a degraded interface) must not be stored;
  // sibling — independent of the fault — must.
  TempCacheDir Dir("taint");
  SummaryCache Cache(Dir.path(), SummaryCache::Mode::ReadWrite);
  RunResult Faulty = runAnalysis(ChainSrc, checkers::useAfterFreeChecker(), 1,
                                 &Cache, "seed=7,pipeline-throw-fn=leaf");
  EXPECT_EQ(Faulty.Cache.Stored, 1);
  EXPECT_TRUE(std::filesystem::exists(Cache.entryPath("sibling")));
  EXPECT_FALSE(std::filesystem::exists(Cache.entryPath("leaf")));
  EXPECT_FALSE(std::filesystem::exists(Cache.entryPath("mid")));
  EXPECT_FALSE(std::filesystem::exists(Cache.entryPath("top")));
  EXPECT_FALSE(std::filesystem::exists(Cache.entryPath("main")));

  // A healthy follow-up run reuses sibling, rebuilds the chain fresh, and
  // reports exactly what a never-cached run reports.
  RunResult Ref = runAnalysis(ChainSrc, checkers::useAfterFreeChecker(), 1,
                              nullptr);
  RunResult Healthy = runAnalysis(ChainSrc, checkers::useAfterFreeChecker(),
                                  1, &Cache);
  EXPECT_EQ(Ref.Reports, Healthy.Reports);
  EXPECT_EQ(Healthy.Cache.Hits, 1);
  EXPECT_EQ(Healthy.Cache.Stored, 4);
}

//===----------------------------------------------------------------------===
// Serialisation layer
//===----------------------------------------------------------------------===

TEST(SerializerTest, RoundTripsEveryFieldType) {
  ByteWriter W;
  W.u8(0xab);
  W.u32(0xdeadbeef);
  W.u64(0x0123456789abcdefull);
  W.i64(-42);
  W.boolean(true);
  W.boolean(false);
  W.str("hello");
  W.str("");

  ByteReader R(W.buffer());
  EXPECT_EQ(R.u8(), 0xab);
  EXPECT_EQ(R.u32(), 0xdeadbeefu);
  EXPECT_EQ(R.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(R.i64(), -42);
  EXPECT_TRUE(R.boolean());
  EXPECT_FALSE(R.boolean());
  EXPECT_EQ(R.str(), "hello");
  EXPECT_EQ(R.str(), "");
  EXPECT_TRUE(R.atEnd());
}

TEST(SerializerTest, ReadingPastTheEndThrows) {
  ByteWriter W;
  W.u32(7);
  ByteReader R(W.buffer());
  EXPECT_EQ(R.u32(), 7u);
  EXPECT_THROW(R.u8(), SerializationError);

  // A string whose length prefix overruns the buffer must throw, not read
  // out of bounds.
  ByteWriter W2;
  W2.u32(1000);
  ByteReader R2(W2.buffer());
  EXPECT_THROW(R2.str(), SerializationError);
}

TEST(SummaryCacheTest, StoreLoadRoundTripAndStaleKey) {
  TempCacheDir Dir("unit");
  SummaryCache Cache(Dir.path(), SummaryCache::Mode::ReadWrite);
  std::string Err;
  ASSERT_TRUE(Cache.prepare(Err)) << Err;

  std::vector<uint8_t> Payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(Cache.store("fn", 0x1111, Payload));

  SummaryCache::Loaded L = Cache.load("fn", 0x1111);
  EXPECT_EQ(L.Status, SummaryCache::LoadStatus::Ok);
  EXPECT_EQ(L.Payload, Payload);

  EXPECT_EQ(Cache.load("fn", 0x2222).Status, SummaryCache::LoadStatus::Stale);
  EXPECT_EQ(Cache.load("other", 0x1111).Status,
            SummaryCache::LoadStatus::Missing);

  // Overwrite is atomic-replace: the new payload wins completely.
  std::vector<uint8_t> Payload2 = {9, 9};
  ASSERT_TRUE(Cache.store("fn", 0x3333, Payload2));
  SummaryCache::Loaded L2 = Cache.load("fn", 0x3333);
  EXPECT_EQ(L2.Status, SummaryCache::LoadStatus::Ok);
  EXPECT_EQ(L2.Payload, Payload2);
}

TEST(SummaryCacheTest, MissingDirectoryInReadModeJustMisses) {
  SummaryCache Cache("inc_cache_never_created", SummaryCache::Mode::Read);
  std::string Err;
  EXPECT_TRUE(Cache.prepare(Err));
  EXPECT_EQ(Cache.load("fn", 1).Status, SummaryCache::LoadStatus::Missing);
}

TEST(HasherTest, DigestIsOrderAndLengthSensitive) {
  EXPECT_NE(Hasher().str("ab").str("c").digest(),
            Hasher().str("a").str("bc").digest());
  EXPECT_NE(Hasher().u32(1).u32(2).digest(), Hasher().u32(2).u32(1).digest());
  EXPECT_EQ(Hasher::hashString("pinpoint"), Hasher::hashString("pinpoint"));
}

//===----------------------------------------------------------------------===
// GlobalSVFA::Stats is concurrently pollable (exercised under TSan)
//===----------------------------------------------------------------------===

TEST(StatsConcurrencyTest, PollingWhileRunningIsRaceFree) {
  workload::Workload W = workload::generate(subjectConfig(5));
  ir::Module M;
  std::vector<frontend::Diag> Diags;
  ASSERT_TRUE(frontend::parseModule(W.Source, M, Diags));
  smt::ExprContext Ctx;
  AnalyzedModule AM(M, Ctx);

  GlobalSVFA Engine(AM, checkers::useAfterFreeChecker());
  std::atomic<bool> Done{false};
  uint64_t LastEvents = 0;
  std::thread Poller([&] {
    while (!Done.load(std::memory_order_acquire)) {
      GlobalSVFA::Stats Snap = Engine.stats(); // Copy = relaxed snapshot.
      uint64_t E = Snap.Events.load(std::memory_order_relaxed);
      EXPECT_GE(E, LastEvents) << "counters must be monotone";
      LastEvents = E;
      std::this_thread::yield();
    }
  });
  std::vector<Report> Reports = Engine.run();
  Done.store(true, std::memory_order_release);
  Poller.join();

  EXPECT_GE(Engine.stats().Events.load(std::memory_order_relaxed),
            LastEvents);
  EXPECT_FALSE(Reports.empty());
}

} // namespace
} // namespace pinpoint::svfa
