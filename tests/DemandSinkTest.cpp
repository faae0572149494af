//===- tests/DemandSinkTest.cpp - Sink-driven bidirectional slicing tests --===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sink-intersected half of the demand contract (DESIGN.md section 13):
///
///  * the bidirectional relevance computation itself — per checker,
///    `callees*( callers*(Src) ∩ callers*(Snk) )` — on subjects where the
///    sink cone prunes regions the source-only cone keeps, with exact
///    relevant/skipped membership;
///  * the syntactic-sink predicate, the deref-host sink seeding for deref-
///    sink checkers (use-after-free, null-deref), and the source-only leak
///    cone;
///  * the relevance entry, the summary-cache entry that persists every
///    function's seeds: round-trip, staleness on a spec change, corruption
///    detection, records for deleted functions, leftovers of older builds,
///    and the warm-run replay that skips the seed scan entirely;
///  * the edit-localised warm refresh (DESIGN.md section 15): the
///    fingerprint diff, seed reuse for clean functions, and cones that
///    match a cold pre-pass at any dirty fraction;
///  * CLI differentials proving sink-intersected runs emit byte-identical
///    reports and degradation logs to `--demand=off` at --jobs 1 and 4
///    (per checker and for the union run);
///  * the mode-independent memory plan: one --mem-budget-mb pre-degrades
///    the same SCC set under --demand=on and off;
///  * the frozen condensation layout (CallGraph SCC member/callee spans).
///
/// The CLI tests fork a child that calls `pinpointToolMain` directly (the
/// tests/CliHarness.h harness) and are skipped under TSan.
///
//===----------------------------------------------------------------------===//

#include "CliHarness.h"

#include "checkers/Checker.h"
#include "checkers/SpecialCheckers.h"
#include "frontend/Parser.h"
#include "ir/CallGraph.h"
#include "ir/Fingerprint.h"
#include "support/Hasher.h"
#include "support/Serializer.h"
#include "support/Statistics.h"
#include "support/SummaryCache.h"
#include "svfa/Demand.h"
#include "svfa/GlobalSVFA.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

using namespace pinpoint;
using namespace pinpoint::clitest;

namespace {

//===----------------------------------------------------------------------===
// Subjects
//===----------------------------------------------------------------------===

/// The canonical sink-pruning subject for the taint-path checker. Three
/// regions plus a disconnected filler:
///
///  * srcOnly/srcCaller: a source (read_input) whose caller cone never
///    meets a sink — the source-only cone keeps both, the sink
///    intersection prunes both;
///  * bothSrc/bothSnk/bothCaller: a source and a sink joined by a shared
///    caller — the only region where a report can form, kept by both
///    cones;
///  * snkOnly/snkCaller: a sink (remove) no source can reach — pruned by
///    both cones (the source cone never saw it);
///  * filler: disconnected pointer code, pruned by both.
///
/// taint-path sources here: read_input (x2). Sinks: open, remove.
std::string sinkSubject() {
  return "int srcOnly(int c) { int v = read_input(); return v; }\n"
         "int srcCaller(int c) { int r = srcOnly(c); return r; }\n"
         "int bothSrc(int c) { int v = read_input(); return v; }\n"
         "int bothSnk(int v) { open(v); return 0; }\n"
         "int bothCaller(int c) { int v = bothSrc(c); int r = bothSnk(v); "
         "return r + v; }\n"
         "int snkOnly(int v) { remove(v); return 0; }\n"
         "int snkCaller(int v) { int r = snkOnly(v); return r; }\n"
         "int filler(int *p) { int *q = p; return *q; }\n";
}

/// sinkSubject plus a taint-data region (read_secret -> send, with an
/// orphan load_key source) and a double-free region, so every sink-sliced
/// checker has real work and real reports on one subject.
std::string mixedSubject() {
  return sinkSubject() +
         "int tdSrc(int c) { int k = read_secret(); return k; }\n"
         "int tdSnk(int k) { send(k); return 0; }\n"
         "int tdCaller(int c) { int k = tdSrc(c); int r = tdSnk(k); "
         "return r + k; }\n"
         "int tdOrphan(int c) { int k = load_key(); return k; }\n"
         "int dfBoth(int *p, int c) { if (c > 0) { free(p); } "
         "if (c > 1) { free(p); } return c; }\n";
}

/// The use-after-free narrowing subject: a feasible report in the freeUse
/// region, a free-only region (freeNoUse/freeNoUseCaller) whose caller cone
/// never meets a dereference — only the deref-host sink seeding can prune
/// it, the source-only cone keeps it — and a disconnected deref-only pad
/// both cones prune.
std::string derefNarrowSubject() {
  return "void freeUse(int *p, int c) { if (c > 0) { free(p); } "
         "if (c > 1) { int x = *p; } }\n"
         "int freeUseCaller(int c) { int *p = malloc(4); "
         "freeUse(p, c); return 0; }\n"
         "int freeNoUse(int *p, int c) { if (c > 0) { free(p); } "
         "return c; }\n"
         "int freeNoUseCaller(int c) { int *p = malloc(4); "
         "int r = freeNoUse(p, c); return r; }\n"
         "int pad(int *p) { int *q = p; return *q; }\n";
}

//===----------------------------------------------------------------------===
// Bidirectional relevance computation
//===----------------------------------------------------------------------===

class SinkRelevanceTest : public ::testing::Test {
protected:
  void parse(const std::string &Source) {
    std::vector<frontend::Diag> Diags;
    ASSERT_TRUE(frontend::parseModule(Source, M, Diags))
        << (Diags.empty() ? "" : Diags[0].str());
    CG = std::make_unique<ir::CallGraph>(M);
  }
  const ir::Function *fn(const std::string &Name) {
    for (ir::Function *F : M.functions())
      if (F->name() == Name)
        return F;
    return nullptr;
  }
  svfa::RelevanceSet relevanceFor(const checkers::CheckerSpec &Spec,
                                  bool UseSinkCones) {
    svfa::DemandSpec DS;
    DS.Checkers.push_back(Spec);
    DS.UseSinkCones = UseSinkCones;
    return svfa::computeRelevance(*CG, M, DS);
  }
  /// The names kept by \p R, sorted.
  std::vector<std::string> names(const svfa::RelevanceSet &R) {
    std::vector<std::string> Out;
    for (ir::Function *F : M.functions())
      if (R.relevant(F))
        Out.push_back(F->name());
    std::sort(Out.begin(), Out.end());
    return Out;
  }

  ir::Module M;
  std::unique_ptr<ir::CallGraph> CG;
};

TEST_F(SinkRelevanceTest, BidirectionalPrunesWhatSourceOnlyKeeps) {
  parse(sinkSubject());
  svfa::RelevanceSet R =
      relevanceFor(checkers::pathTraversalChecker(), /*UseSinkCones=*/true);
  EXPECT_FALSE(R.All);
  // Only the region where a source cone meets a sink cone survives; the
  // callee closure of the intersected core pulls the source and sink
  // leaves back in.
  EXPECT_EQ(names(R), (std::vector<std::string>{"bothCaller", "bothSnk",
                                                "bothSrc"}));
  EXPECT_EQ(R.SourceFns, 2u); // srcOnly + bothSrc contain read_input.
  EXPECT_EQ(R.SinkFns, 2u);   // bothSnk (open) + snkOnly (remove).
}

TEST_F(SinkRelevanceTest, SourceOnlyConeKeepsSinklessRegions) {
  parse(sinkSubject());
  svfa::RelevanceSet R =
      relevanceFor(checkers::pathTraversalChecker(), /*UseSinkCones=*/false);
  // The ablation keeps the whole source caller cone (and its callees),
  // including the region that can never reach a sink.
  EXPECT_EQ(names(R), (std::vector<std::string>{"bothCaller", "bothSnk",
                                                "bothSrc", "srcCaller",
                                                "srcOnly"}));
  EXPECT_EQ(R.SourceFns, 2u);
  EXPECT_EQ(R.SinkFns, 0u); // No sink seeds in source-only mode.
}

TEST_F(SinkRelevanceTest, DerefSinkCheckerIntersectsDerefHostCone) {
  parse(mixedSubject());
  // use-after-free sinks are loads/stores, not named calls, so its sink
  // cone seeds at deref hosts. The only deref host here (filler) is
  // disconnected from the only free host (dfBoth): the intersection is
  // empty — no freed value can ever reach a dereference on this subject.
  ASSERT_FALSE(checkers::useAfterFreeChecker().hasSyntacticSinks());
  svfa::RelevanceSet Bi =
      relevanceFor(checkers::useAfterFreeChecker(), /*UseSinkCones=*/true);
  svfa::RelevanceSet SrcOnly =
      relevanceFor(checkers::useAfterFreeChecker(), /*UseSinkCones=*/false);
  EXPECT_EQ(names(Bi), std::vector<std::string>{});
  EXPECT_EQ(Bi.SinkFns, 1u); // filler is the only deref host.
  // The ablation keeps the free host the narrowing proved sink-less.
  EXPECT_EQ(names(SrcOnly), (std::vector<std::string>{"dfBoth"}));
  EXPECT_EQ(SrcOnly.SinkFns, 0u);
}

TEST_F(SinkRelevanceTest, DerefNarrowingSkipsStrictlyMore) {
  parse(derefNarrowSubject());
  svfa::RelevanceSet Bi =
      relevanceFor(checkers::useAfterFreeChecker(), /*UseSinkCones=*/true);
  svfa::RelevanceSet SrcOnly =
      relevanceFor(checkers::useAfterFreeChecker(), /*UseSinkCones=*/false);
  // The free-only region survives the source-only cone but not the deref
  // intersection; the reporting region survives both.
  EXPECT_EQ(names(Bi),
            (std::vector<std::string>{"freeUse", "freeUseCaller"}));
  EXPECT_EQ(names(SrcOnly),
            (std::vector<std::string>{"freeNoUse", "freeNoUseCaller",
                                      "freeUse", "freeUseCaller"}));
  EXPECT_EQ(Bi.SourceFns, 2u); // freeUse + freeNoUse call free.
  EXPECT_EQ(Bi.SinkFns, 2u);   // freeUse + pad dereference.
}

TEST_F(SinkRelevanceTest, DerefNarrowedReportsMatchExhaustive) {
  // Library-level non-vacuity + equivalence for the deref narrowing: the
  // subject really produces a use-after-free finding, and the narrowed
  // demand run reports exactly what the exhaustive run does.
  auto runMode = [](bool Demand) {
    ir::Module M2;
    std::vector<frontend::Diag> Diags;
    EXPECT_TRUE(frontend::parseModule(derefNarrowSubject(), M2, Diags));
    smt::ExprContext Ctx;
    svfa::GlobalOptions GO;
    GO.Demand = Demand;
    auto Reports =
        svfa::checkModule(M2, Ctx, checkers::useAfterFreeChecker(), GO);
    std::vector<std::string> Keys;
    for (const auto &R : Reports)
      Keys.push_back(R.SourceFn + ":" + R.Source.str() + "->" + R.SinkFn +
                     ":" + R.Sink.str());
    std::sort(Keys.begin(), Keys.end());
    return Keys;
  };
  auto On = runMode(true), Off = runMode(false);
  EXPECT_EQ(On, Off);
  EXPECT_FALSE(Off.empty()) << "narrowing subject produced no uaf findings";
}

TEST_F(SinkRelevanceTest, DoubleFreeConesCoincide) {
  parse(mixedSubject());
  // df's source and sink are the same site (free), so the sink
  // intersection is a no-op by construction — a useful degenerate case.
  ASSERT_TRUE(checkers::doubleFreeChecker().hasSyntacticSinks());
  svfa::RelevanceSet Bi =
      relevanceFor(checkers::doubleFreeChecker(), /*UseSinkCones=*/true);
  svfa::RelevanceSet SrcOnly =
      relevanceFor(checkers::doubleFreeChecker(), /*UseSinkCones=*/false);
  EXPECT_EQ(names(Bi), names(SrcOnly));
  EXPECT_EQ(names(Bi), (std::vector<std::string>{"dfBoth"}));
  EXPECT_EQ(Bi.SinkFns, 1u);
}

TEST_F(SinkRelevanceTest, UnionIsPerCheckerIntersectThenUnion) {
  parse(mixedSubject());
  svfa::DemandSpec DS;
  DS.Checkers.push_back(checkers::pathTraversalChecker());
  DS.Checkers.push_back(checkers::dataTransmissionChecker());
  svfa::RelevanceArtifact A = svfa::computeRelevanceArtifact(*CG, DS);

  // Each checker intersects its own cones before the union: srcOnly is in
  // taint-path's source cone and tdSnk is in taint-data's sink cone, but
  // neither pair meets, so neither survives into the union.
  EXPECT_EQ(names(A.Union),
            (std::vector<std::string>{"bothCaller", "bothSnk", "bothSrc",
                                      "tdCaller", "tdSnk", "tdSrc"}));
  // Union seed counts: read_input x2, read_secret, load_key sources;
  // open, remove, send sinks.
  EXPECT_EQ(A.Union.SourceFns, 4u);
  EXPECT_EQ(A.Union.SinkFns, 3u);

  // The per-checker slices the engines consume are the individual cones,
  // keyed by CheckerSpec::Name.
  ASSERT_EQ(A.PerChecker.count("path-traversal"), 1u);
  ASSERT_EQ(A.PerChecker.count("data-transmission"), 1u);
  EXPECT_EQ(names(A.PerChecker.at("path-traversal")),
            (std::vector<std::string>{"bothCaller", "bothSnk", "bothSrc"}));
  EXPECT_EQ(names(A.PerChecker.at("data-transmission")),
            (std::vector<std::string>{"tdCaller", "tdSnk", "tdSrc"}));
}

TEST_F(SinkRelevanceTest, SyntacticSinkPredicates) {
  parse(mixedSubject());
  // Which checkers can be sink-sliced at all.
  EXPECT_FALSE(checkers::useAfterFreeChecker().hasSyntacticSinks());
  EXPECT_FALSE(checkers::nullDerefChecker().hasSyntacticSinks());
  EXPECT_TRUE(checkers::doubleFreeChecker().hasSyntacticSinks());
  EXPECT_TRUE(checkers::pathTraversalChecker().hasSyntacticSinks());
  EXPECT_TRUE(checkers::dataTransmissionChecker().hasSyntacticSinks());

  // Site membership for the taint checkers.
  const checkers::CheckerSpec TP = checkers::pathTraversalChecker();
  EXPECT_TRUE(TP.hasSinkSite(*fn("bothSnk")));  // open
  EXPECT_TRUE(TP.hasSinkSite(*fn("snkOnly")));  // remove
  EXPECT_FALSE(TP.hasSinkSite(*fn("bothSrc"))); // source, not sink
  EXPECT_FALSE(TP.hasSinkSite(*fn("tdSnk")));   // other checker's sink
  const checkers::CheckerSpec TD = checkers::dataTransmissionChecker();
  EXPECT_TRUE(TD.hasSinkSite(*fn("tdSnk"))); // send
  EXPECT_FALSE(TD.hasSinkSite(*fn("bothSnk")));
  // A deref-sink checker reports no syntactic sink sites anywhere.
  for (ir::Function *F : M.functions())
    EXPECT_FALSE(checkers::useAfterFreeChecker().hasSinkSite(*F))
        << F->name();

  // Deref-host membership, the sink-seed scan for deref-sink checkers.
  const checkers::CheckerSpec UAF = checkers::useAfterFreeChecker();
  EXPECT_TRUE(UAF.hasDerefSite(*fn("filler")));  // loads *q
  EXPECT_FALSE(UAF.hasDerefSite(*fn("dfBoth"))); // frees, never derefs
  EXPECT_FALSE(UAF.hasDerefSite(*fn("bothSnk"))); // calls only
}

TEST_F(SinkRelevanceTest, SlicedReportsMatchExhaustiveOnTheSinkSubject) {
  // Library-level non-vacuity + equivalence: the subject really produces
  // taint-path findings, and the bidirectional slice reports exactly them.
  auto runMode = [](bool Demand) {
    ir::Module M2;
    std::vector<frontend::Diag> Diags;
    EXPECT_TRUE(frontend::parseModule(sinkSubject(), M2, Diags));
    smt::ExprContext Ctx;
    svfa::GlobalOptions GO;
    GO.Demand = Demand;
    auto Reports =
        svfa::checkModule(M2, Ctx, checkers::pathTraversalChecker(), GO);
    std::vector<std::string> Keys;
    for (const auto &R : Reports)
      Keys.push_back(R.SourceFn + ":" + R.Source.str() + "->" + R.SinkFn +
                     ":" + R.Sink.str());
    std::sort(Keys.begin(), Keys.end());
    return Keys;
  };
  auto On = runMode(true), Off = runMode(false);
  EXPECT_EQ(On, Off);
  EXPECT_FALSE(Off.empty()) << "sink subject produced no taint findings";
}

//===----------------------------------------------------------------------===
// Persisted seeds (the relevance entry)
//===----------------------------------------------------------------------===

using FingerprintMap = std::vector<uint64_t>;

/// Seed-count plus function-id view of a relevance set.
std::vector<std::string> setView(const svfa::RelevanceSet &S) {
  std::vector<std::string> Out;
  Out.push_back("src=" + std::to_string(S.SourceFns) +
                " snk=" + std::to_string(S.SinkFns));
  for (size_t Id = 0; Id < S.Fns.size(); ++Id)
    if (S.Fns[Id])
      Out.push_back("fn" + std::to_string(Id));
  return Out;
}

/// The union and every per-checker slice of \p A, for equality.
std::vector<std::vector<std::string>>
artifactView(const svfa::RelevanceArtifact &A) {
  std::vector<std::vector<std::string>> Out;
  Out.push_back(setView(A.Union));
  for (const auto &[Name, S] : A.PerChecker) {
    Out.push_back({Name});
    Out.push_back(setView(S));
  }
  return Out;
}

svfa::DemandSpec taintSpec() {
  svfa::DemandSpec DS;
  DS.Checkers.push_back(checkers::pathTraversalChecker());
  return DS;
}

class RelevancePersistTest : public SinkRelevanceTest {
protected:
  /// Scans the parsed module and stores its seeds into \p Cache.
  svfa::SeedTable storeSeeds(const SummaryCache &Cache,
                             const svfa::DemandSpec &DS) {
    FP = ir::fingerprintModule(M);
    svfa::SeedTable Seeds = svfa::scanSeeds(*CG, DS);
    EXPECT_TRUE(svfa::storeRelevanceSeeds(Cache, DS, *CG, Seeds, FP));
    return Seeds;
  }

  FingerprintMap FP;
};

TEST_F(RelevancePersistTest, RoundTrip) {
  parse(sinkSubject());
  TempDir T("roundtrip");
  SummaryCache Cache(T.path(), SummaryCache::Mode::ReadWrite);
  const svfa::DemandSpec DS = taintSpec();
  const svfa::SeedTable Seeds = storeSeeds(Cache, DS);
  svfa::StoredSeeds S;
  ASSERT_EQ(svfa::loadRelevanceSeeds(Cache, DS, S),
            SummaryCache::LoadStatus::Ok);
  ASSERT_EQ(S.Seeds.Stride, Seeds.Stride);

  // Refreshing the same module from the entry scans nothing and rebuilds
  // the cold artifact exactly.
  svfa::SeedRefresh R = svfa::refreshSeeds(*CG, DS, S, FP);
  EXPECT_EQ(R.DirtyFns, 0u);
  EXPECT_FALSE(R.Deleted);
  EXPECT_EQ(R.Seeds.Rows, Seeds.Rows);
  EXPECT_EQ(artifactView(svfa::relevanceFromSeeds(*CG, DS, R.Seeds)),
            artifactView(svfa::computeRelevanceArtifact(*CG, DS)));

  // The entry is one summary-cache entry, in a file of its own: a function
  // called `relevance` would not share it.
  size_t Files = 0;
  for (const auto &E : std::filesystem::directory_iterator(T.path())) {
    EXPECT_EQ(E.path().extension(), ".pps") << E.path();
    ++Files;
  }
  EXPECT_EQ(Files, 1u);
  EXPECT_NE(Cache.entryPath(svfa::RelevanceEntryName),
            Cache.entryPath("relevance"));
}

/// The entry's per-function records (name, fingerprint, seed row) survive
/// a store and a load unchanged.
TEST_F(RelevancePersistTest, V3RecordsRoundTrip) {
  parse(sinkSubject());
  TempDir T("records");
  SummaryCache Cache(T.path(), SummaryCache::Mode::ReadWrite);
  const svfa::DemandSpec DS = taintSpec();
  const svfa::SeedTable Seeds = storeSeeds(Cache, DS);

  // Every function's record carries its live fingerprint and seed row.
  svfa::StoredSeeds S;
  ASSERT_EQ(svfa::loadRelevanceSeeds(Cache, DS, S),
            SummaryCache::LoadStatus::Ok);
  ASSERT_EQ(S.Seeds.Stride, Seeds.Stride);
  ASSERT_EQ(S.Fns.size(), M.functions().size());
  const std::vector<ir::Function *> &Order = CG->bottomUpOrder();
  for (size_t I = 0; I < Order.size(); ++I) {
    const svfa::StoredSeeds::Record &Rec = S.Fns.at(Order[I]->name());
    EXPECT_EQ(Rec.FP, FP.at(Order[I]->id())) << Order[I]->name();
    EXPECT_TRUE(std::equal(Seeds.row(I), Seeds.row(I) + Seeds.Stride,
                           S.Seeds.row(Rec.Row)))
        << Order[I]->name();
  }
  // bothSnk calls open: a syntactic sink of the spec's one checker.
  EXPECT_EQ(S.Seeds.row(S.Fns.at("bothSnk").Row)[1], svfa::SeedTable::Sink);

  // Storing the seeds refreshed from the loaded records writes the entry's
  // bytes again, exactly.
  const std::string Entry = Cache.entryPath(svfa::RelevanceEntryName);
  const std::string Orig = readFile(Entry);
  svfa::SeedRefresh R = svfa::refreshSeeds(*CG, DS, S, FP);
  ASSERT_TRUE(svfa::storeRelevanceSeeds(Cache, DS, *CG, R.Seeds, FP));
  EXPECT_EQ(readFile(Entry), Orig);
}

TEST_F(RelevancePersistTest, SubjectOrSpecMismatchIsStale) {
  parse(sinkSubject());
  TempDir T("stale");
  SummaryCache Cache(T.path(), SummaryCache::Mode::ReadWrite);
  const svfa::DemandSpec DS = taintSpec();
  storeSeeds(Cache, DS);

  // Another demand spec lays its seed rows out differently: the entry is
  // well-formed but Stale, and never decoded.
  svfa::StoredSeeds S;
  svfa::DemandSpec Other;
  Other.Checkers.push_back(checkers::dataTransmissionChecker());
  EXPECT_EQ(svfa::loadRelevanceSeeds(Cache, Other, S),
            SummaryCache::LoadStatus::Stale);
  svfa::DemandSpec NoSink = DS;
  NoSink.UseSinkCones = false;
  EXPECT_EQ(svfa::loadRelevanceSeeds(Cache, NoSink, S),
            SummaryCache::LoadStatus::Stale);
  EXPECT_TRUE(S.Fns.empty());

  // Another subject under the same spec: every record is stale. No
  // function matches a stored (name, fingerprint), so every one is
  // scanned, and the stored functions read as deleted.
  ir::Module M2;
  std::vector<frontend::Diag> Diags;
  ASSERT_TRUE(frontend::parseModule(
      "int reader(int c) { int v = read_input(); open(v); return v; }\n"
      "int top(int c) { int r = reader(c); return r; }\n",
      M2, Diags));
  ir::CallGraph CG2(M2);
  ASSERT_EQ(svfa::loadRelevanceSeeds(Cache, DS, S),
            SummaryCache::LoadStatus::Ok);
  svfa::SeedRefresh R = svfa::refreshSeeds(CG2, DS, S, ir::fingerprintModule(M2));
  EXPECT_EQ(R.DirtyFns, 2u);
  EXPECT_TRUE(R.Deleted);
  EXPECT_EQ(artifactView(svfa::relevanceFromSeeds(CG2, DS, R.Seeds)),
            artifactView(svfa::computeRelevanceArtifact(CG2, DS)));
}

TEST_F(RelevancePersistTest, MissingEntry) {
  parse(sinkSubject());
  TempDir T("missing");
  svfa::StoredSeeds S;
  SummaryCache Cache(T.path(), SummaryCache::Mode::ReadWrite);
  EXPECT_EQ(svfa::loadRelevanceSeeds(Cache, taintSpec(), S),
            SummaryCache::LoadStatus::Missing);
  // A read-only cache over a directory that does not exist just misses.
  SummaryCache Absent(T.file("absent"), SummaryCache::Mode::Read);
  EXPECT_EQ(svfa::loadRelevanceSeeds(Absent, taintSpec(), S),
            SummaryCache::LoadStatus::Missing);
}

TEST_F(RelevancePersistTest, CorruptBytesAreDetected) {
  parse(sinkSubject());
  TempDir T("corrupt");
  SummaryCache Cache(T.path(), SummaryCache::Mode::ReadWrite);
  const svfa::DemandSpec DS = taintSpec();
  storeSeeds(Cache, DS);
  const std::string Entry = Cache.entryPath(svfa::RelevanceEntryName);
  const std::string Orig = readFile(Entry);
  // The summary-cache frame: magic, version, key, name, checksum, size.
  const size_t KeyAt = 8, NameAt = 20;
  const size_t NameEnd = NameAt + std::strlen(svfa::RelevanceEntryName);
  ASSERT_GT(Orig.size(), NameEnd + 12);

  // Every single-byte flip is caught and the entry never replays. A flip
  // in the content key reads as another spec's entry (Stale); one in the
  // name or its length as another entry's file (Missing) unless the parse
  // runs off the end; every other flip — frame, checksum or payload — is
  // Corrupt. Each of them recomputes the pre-pass.
  for (size_t Pos = 0; Pos < Orig.size(); ++Pos) {
    std::string Bad = Orig;
    Bad[Pos] = static_cast<char>(Bad[Pos] ^ 0x40);
    std::ofstream(Entry, std::ios::binary | std::ios::trunc) << Bad;
    svfa::StoredSeeds S;
    const SummaryCache::LoadStatus Got =
        svfa::loadRelevanceSeeds(Cache, DS, S);
    if (Pos >= KeyAt && Pos < KeyAt + 8)
      EXPECT_EQ(Got, SummaryCache::LoadStatus::Stale) << "flip at " << Pos;
    else if (Pos >= NameAt - 4 && Pos < NameEnd)
      EXPECT_TRUE(Got == SummaryCache::LoadStatus::Missing ||
                  Got == SummaryCache::LoadStatus::Corrupt)
          << "flip at " << Pos;
    else
      EXPECT_EQ(Got, SummaryCache::LoadStatus::Corrupt) << "flip at " << Pos;
  }
  // Truncation too.
  std::ofstream(Entry, std::ios::binary | std::ios::trunc)
      << Orig.substr(0, Orig.size() / 2);
  svfa::StoredSeeds S;
  EXPECT_EQ(svfa::loadRelevanceSeeds(Cache, DS, S),
            SummaryCache::LoadStatus::Corrupt);
}

TEST_F(RelevancePersistTest, RecordForMissingFunctionIsIgnored) {
  parse(sinkSubject());
  TempDir T("deleted");
  SummaryCache Cache(T.path(), SummaryCache::Mode::ReadWrite);
  const svfa::DemandSpec DS = taintSpec();
  storeSeeds(Cache, DS);

  // The same subject without filler: filler's record names nothing, so it
  // is skipped; every surviving function matches and nothing is scanned.
  ir::Module M2;
  std::vector<frontend::Diag> Diags;
  std::string Src = sinkSubject();
  const std::string Filler = "int filler(int *p) { int *q = p; return *q; }\n";
  Src.erase(Src.find(Filler), Filler.size());
  ASSERT_TRUE(frontend::parseModule(Src, M2, Diags));
  ir::CallGraph CG2(M2);
  svfa::StoredSeeds S;
  ASSERT_EQ(svfa::loadRelevanceSeeds(Cache, DS, S),
            SummaryCache::LoadStatus::Ok);
  ASSERT_EQ(S.Fns.count("filler"), 1u);
  svfa::SeedRefresh R =
      svfa::refreshSeeds(CG2, DS, S, ir::fingerprintModule(M2));
  EXPECT_EQ(R.DirtyFns, 0u);
  EXPECT_TRUE(R.Deleted);
  EXPECT_EQ(R.Seeds.Rows, svfa::scanSeeds(CG2, DS).Rows);
  EXPECT_EQ(artifactView(svfa::relevanceFromSeeds(CG2, DS, R.Seeds)),
            artifactView(svfa::computeRelevanceArtifact(CG2, DS)));
}

/// Files an older build left in a cache directory: its standalone
/// `relevance` entry (own magic, version 3, checksummed payload) and its
/// text run journal.
void writeLeftoverFiles(const std::string &Dir) {
  ByteWriter PW;
  PW.u32(0);
  std::vector<uint8_t> Payload = PW.take();
  ByteWriter W;
  for (char C : {'P', 'P', 'R', 'L'})
    W.u8(static_cast<uint8_t>(C));
  W.u32(3);
  W.u64(0); // subject fingerprint
  W.u64(0); // spec key
  W.u64(Hasher().bytes(Payload.data(), Payload.size()).digest());
  W.u32(static_cast<uint32_t>(Payload.size()));
  std::vector<uint8_t> Bytes = W.take();
  Bytes.insert(Bytes.end(), Payload.begin(), Payload.end());
  std::ofstream Rel((std::filesystem::path(Dir) / "relevance").string(),
                    std::ios::binary | std::ios::trunc);
  Rel.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  std::ofstream((std::filesystem::path(Dir) / "run-journal").string())
      << std::string{'P', 'P', 'R', 'J'}
      << " 1 0000000000000001\n0000000000000002 completed\n";
}

TEST_F(RelevancePersistTest, LeftoverRelevanceFileIsNeverRead) {
  parse(sinkSubject());
  TempDir T("leftover");
  writeLeftoverFiles(T.path());
  // Neither file is a summary-cache entry: the loader never opens them,
  // so the entry is simply Missing — not Stale, not Corrupt.
  SummaryCache Cache(T.path(), SummaryCache::Mode::ReadWrite);
  svfa::StoredSeeds S;
  EXPECT_EQ(svfa::loadRelevanceSeeds(Cache, taintSpec(), S),
            SummaryCache::LoadStatus::Missing);
}

//===----------------------------------------------------------------------===
// Edit-localised refresh (DESIGN.md section 15)
//===----------------------------------------------------------------------===

/// One parsed subject with its call graph and fingerprints — refresh tests
/// hold two of these (the stored world and the edited world).
struct RefreshSubject {
  ir::Module M;
  std::unique_ptr<ir::CallGraph> CG;
  FingerprintMap FP;
};

void loadRefreshSubject(RefreshSubject &S, const std::string &Src) {
  std::vector<frontend::Diag> Diags;
  ASSERT_TRUE(frontend::parseModule(Src, S.M, Diags))
      << (Diags.empty() ? "" : Diags[0].str());
  S.CG = std::make_unique<ir::CallGraph>(S.M);
  S.FP = ir::fingerprintModule(S.M);
}

/// sinkSubject with \p From replaced by \p To.
std::string editedSinkSubject(const std::string &From, const std::string &To) {
  std::string S = sinkSubject();
  size_t Pos = S.find(From);
  EXPECT_NE(Pos, std::string::npos) << From;
  if (Pos != std::string::npos)
    S.replace(Pos, From.size(), To);
  return S;
}

class RelevanceRefreshTest : public ::testing::Test {
protected:
  /// Stores the original subject's seeds, refreshes them against the
  /// edited subject, and checks the result against a cold pre-pass on the
  /// edited module: the same seed table and the same cones. Returns the
  /// refreshed artifact.
  svfa::RelevanceArtifact refreshAgainst(RefreshSubject &Orig,
                                         RefreshSubject &Edited,
                                         svfa::SeedRefresh &Stats) {
    TempDir T("refresh");
    SummaryCache Cache(T.path(), SummaryCache::Mode::ReadWrite);
    const svfa::DemandSpec DS = taintSpec();
    EXPECT_TRUE(svfa::storeRelevanceSeeds(
        Cache, DS, *Orig.CG, svfa::scanSeeds(*Orig.CG, DS), Orig.FP));
    svfa::StoredSeeds Prev;
    EXPECT_EQ(svfa::loadRelevanceSeeds(Cache, DS, Prev),
              SummaryCache::LoadStatus::Ok);
    Stats = svfa::refreshSeeds(*Edited.CG, DS, Prev, Edited.FP);
    EXPECT_EQ(Stats.Seeds.Rows, svfa::scanSeeds(*Edited.CG, DS).Rows);
    svfa::RelevanceArtifact A =
        svfa::relevanceFromSeeds(*Edited.CG, DS, Stats.Seeds);
    EXPECT_EQ(artifactView(A),
              artifactView(svfa::computeRelevanceArtifact(*Edited.CG, DS)));
    return A;
  }
};

TEST_F(RelevanceRefreshTest, LocalRefreshMatchesColdOnSeedChangingEdit) {
  RefreshSubject Orig, Edited;
  loadRefreshSubject(Orig, sinkSubject());
  // srcOnly gains a sink call: its region flips from pruned to relevant,
  // so the cones genuinely change with the merged seeds.
  loadRefreshSubject(
      Edited,
      editedSinkSubject(
          "int srcOnly(int c) { int v = read_input(); return v; }",
          "int srcOnly(int c) { int v = read_input(); open(v); return v; }"));

  svfa::SeedRefresh Stats;
  svfa::RelevanceArtifact R = refreshAgainst(Orig, Edited, Stats);
  EXPECT_EQ(Stats.DirtyFns, 1u);
  EXPECT_FALSE(Stats.Deleted);
  // The refresh really changed the result: the srcOnly region is now kept.
  EXPECT_TRUE(R.Union.relevant(Edited.M.function("srcOnly")));
  EXPECT_TRUE(R.Union.relevant(Edited.M.function("srcCaller")));

  // The refreshed seeds, stored again, replay on the edited subject.
  TempDir T("restore");
  SummaryCache Cache(T.path(), SummaryCache::Mode::ReadWrite);
  ASSERT_TRUE(svfa::storeRelevanceSeeds(Cache, taintSpec(), *Edited.CG,
                                        Stats.Seeds, Edited.FP));
  svfa::StoredSeeds Re;
  ASSERT_EQ(svfa::loadRelevanceSeeds(Cache, taintSpec(), Re),
            SummaryCache::LoadStatus::Ok);
  svfa::SeedRefresh Again =
      svfa::refreshSeeds(*Edited.CG, taintSpec(), Re, Edited.FP);
  EXPECT_EQ(Again.DirtyFns, 0u);
  EXPECT_FALSE(Again.Deleted);
}

TEST_F(RelevanceRefreshTest, ConeNeutralEditMatchesCold) {
  RefreshSubject Orig, Edited;
  loadRefreshSubject(Orig, sinkSubject());
  // A body edit that touches no source/sink/call site: one function is
  // dirty and scanned, the other seven rows come from the entry.
  loadRefreshSubject(
      Edited, editedSinkSubject(
                  "int srcOnly(int c) { int v = read_input(); return v; }",
                  "int srcOnly(int c) { int v = read_input(); int zq = 7; "
                  "return v; }"));

  svfa::SeedRefresh Stats;
  refreshAgainst(Orig, Edited, Stats);
  EXPECT_EQ(Stats.DirtyFns, 1u);
  EXPECT_FALSE(Stats.Deleted);
}

TEST_F(RelevanceRefreshTest, AddedAndDeletedFunctionsForceConeRecompute) {
  RefreshSubject Orig, Edited;
  loadRefreshSubject(Orig, sinkSubject());
  // filler disappears and a new caller of srcCaller appears: definition-set
  // changes can re/un-resolve call edges anywhere. The cones come from the
  // live call graph on every run, so the edit is just one scan.
  std::string Src = editedSinkSubject(
      "int filler(int *p) { int *q = p; return *q; }\n", "");
  Src += "int extra(int c) { int r = srcCaller(c); return r; }\n";
  loadRefreshSubject(Edited, Src);

  svfa::SeedRefresh Stats;
  refreshAgainst(Orig, Edited, Stats);
  EXPECT_EQ(Stats.DirtyFns, 1u); // only the new definition is dirty
  EXPECT_TRUE(Stats.Deleted);
}

TEST_F(RelevanceRefreshTest, HighDirtyFractionStaysLocal) {
  RefreshSubject Orig, Edited;
  loadRefreshSubject(Orig, sinkSubject());
  // Five of eight functions edited (62%), one of them seed-changing
  // (srcOnly gains a sink): exactly the dirty functions are scanned and
  // the result is the cold artifact. No dirty fraction sends a matching
  // entry to the full pre-pass.
  std::string Src = editedSinkSubject(
      "int srcOnly(int c) { int v = read_input(); return v; }",
      "int srcOnly(int c) { int v = read_input(); open(v); return v; }");
  for (const auto &[From, To] :
       std::vector<std::pair<std::string, std::string>>{
           {"int bothSrc(int c) { int v = read_input(); return v; }",
            "int bothSrc(int c) { int v = read_input(); int b = 2; "
            "return v; }"},
           {"int snkOnly(int v) { remove(v); return 0; }",
            "int snkOnly(int v) { remove(v); int c = 3; return 0; }"},
           {"int snkCaller(int v) { int r = snkOnly(v); return r; }",
            "int snkCaller(int v) { int r = snkOnly(v); int d = 4; "
            "return r; }"},
           {"int filler(int *p) { int *q = p; return *q; }",
            "int filler(int *p) { int *q = p; int e = 5; return *q; }"}}) {
    size_t Pos = Src.find(From);
    ASSERT_NE(Pos, std::string::npos) << From;
    Src.replace(Pos, From.size(), To);
  }
  loadRefreshSubject(Edited, Src);

  svfa::SeedRefresh Stats;
  svfa::RelevanceArtifact R = refreshAgainst(Orig, Edited, Stats);
  EXPECT_EQ(Stats.DirtyFns, 5u);
  EXPECT_FALSE(Stats.Deleted);
  EXPECT_GT(Stats.DirtyFns * 10, Edited.M.functions().size() * 3);
  EXPECT_TRUE(R.Union.relevant(Edited.M.function("srcOnly")));
}

TEST(RelevanceSpecKeyTest, OrderInvariantAndKnobSensitive) {
  svfa::DemandSpec AB, BA;
  AB.Checkers = {checkers::pathTraversalChecker(),
                 checkers::dataTransmissionChecker()};
  BA.Checkers = {checkers::dataTransmissionChecker(),
                 checkers::pathTraversalChecker()};
  // The key is canonical over checker order (the CLI assembles the spec in
  // flag order) ...
  EXPECT_EQ(svfa::relevanceSpecKey(AB), svfa::relevanceSpecKey(BA));

  // ... but sensitive to every knob that shapes the result.
  svfa::DemandSpec NoSink = AB;
  NoSink.UseSinkCones = false;
  EXPECT_NE(svfa::relevanceSpecKey(AB), svfa::relevanceSpecKey(NoSink));
  svfa::DemandSpec Leak = AB;
  Leak.LeakSources = true;
  EXPECT_NE(svfa::relevanceSpecKey(AB), svfa::relevanceSpecKey(Leak));
  svfa::DemandSpec One;
  One.Checkers = {checkers::pathTraversalChecker()};
  EXPECT_NE(svfa::relevanceSpecKey(AB), svfa::relevanceSpecKey(One));
}

//===----------------------------------------------------------------------===
// Frozen condensation layout
//===----------------------------------------------------------------------===

TEST(CondensationLayoutTest, FrozenSpansReplayBottomUpOrder) {
  ir::Module M;
  std::vector<frontend::Diag> Diags;
  // A recursion pair, a chain through it, and an isolated function: three
  // SCC shapes (multi-member, chained singletons, isolated singleton).
  ASSERT_TRUE(frontend::parseModule(
      "int ping(int *p, int c) { if (c > 0) { int r = pong(p, c); "
      "return r; } return 0; }\n"
      "int pong(int *p, int c) { int r = ping(p, c); return r; }\n"
      "int top(int *p, int c) { int r = ping(p, c); return r; }\n"
      "int lonely(int *p) { return *p; }\n",
      M, Diags));
  Counters &C = Counters::get();
  const int64_t Before = C.value("cg.csr-bytes");
  ir::CallGraph CG(M);
  // The frozen member/adjacency rows live in a measured arena.
  EXPECT_GT(C.value("cg.csr-bytes"), Before);

  // Concatenating Members over ascending SCC id replays bottomUpOrder
  // exactly (ids are Tarjan completion order, which is topological).
  std::vector<ir::Function *> Concat;
  for (const auto &N : CG.sccs())
    for (ir::Function *F : N.Members)
      Concat.push_back(F);
  EXPECT_EQ(Concat, CG.bottomUpOrder());

  // Callee rows are sorted, deduplicated and strictly below the owner id.
  for (size_t I = 0; I < CG.sccs().size(); ++I) {
    const auto &Row = CG.sccs()[I].CalleeSCCs;
    for (size_t K = 0; K < Row.size(); ++K) {
      EXPECT_LT(Row[K], I);
      if (K) {
        EXPECT_LT(Row[K - 1], Row[K]);
      }
    }
  }
  // The recursion pair is one SCC with both members.
  bool SawPair = false;
  for (const auto &N : CG.sccs())
    if (N.Members.size() == 2)
      SawPair = true;
  EXPECT_TRUE(SawPair);
}

#if PINPOINT_CLI_TESTS

//===----------------------------------------------------------------------===
// CLI differentials: sink-intersected runs vs --demand=off
//===----------------------------------------------------------------------===
//
// Unlike DemandTest's source-only-era differentials these run *without*
// --stats: sink cones legitimately shrink the work-reflecting [checker]
// fields (events, linear-pruned) on subjects with sink-less source
// regions, while reports and the degradation log stay byte-identical —
// which is exactly what raw output comparison pins down.

TEST(DemandSinkCLI, PerCheckerDifferentialAcrossJobs) {
  TempDir T("diff");
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << mixedSubject();

  for (const char *Checker : {"df", "taint-path", "taint-data"}) {
    for (const char *Jobs : {"--jobs=1", "--jobs=4"}) {
      const std::string On = T.file("on.out"), Off = T.file("off.out");
      ASSERT_EQ(runTool({std::string("--checker=") + Checker, Jobs,
                         "--degradation-log", "--demand=on", Subject},
                        On),
                0)
          << Checker;
      ASSERT_EQ(runTool({std::string("--checker=") + Checker, Jobs,
                         "--degradation-log", "--demand=off", Subject},
                        Off),
                0)
          << Checker;
      EXPECT_EQ(readFile(On), readFile(Off))
          << "checker=" << Checker << " " << Jobs;
    }
  }
}

TEST(DemandSinkCLI, DerefNarrowingDifferentialAcrossJobs) {
  TempDir T("deref");
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << derefNarrowSubject();

  // The deref-sink checkers across both job counts: narrowed demand runs
  // emit byte-identical reports and degradation logs to the exhaustive
  // runs, on a subject where the narrowing really skips a free region.
  for (const char *Checker : {"uaf", "null-deref"}) {
    for (const char *Jobs : {"--jobs=1", "--jobs=4"}) {
      const std::string On = T.file("on.out"), Off = T.file("off.out");
      ASSERT_EQ(runTool({std::string("--checker=") + Checker, Jobs,
                         "--degradation-log", "--demand=on", Subject},
                        On),
                0)
          << Checker;
      ASSERT_EQ(runTool({std::string("--checker=") + Checker, Jobs,
                         "--degradation-log", "--demand=off", Subject},
                        Off),
                0)
          << Checker;
      EXPECT_EQ(readFile(On), readFile(Off))
          << "checker=" << Checker << " " << Jobs;
    }
  }

  // Exact narrowed counts: the source-only cone would keep four functions
  // (both free regions); the deref intersection keeps two and skips three.
  const std::string Out = T.file("stats.out");
  ASSERT_EQ(runTool({"--checker=uaf", "--stats", Subject}, Out), 0);
  const std::string Text = readFile(Out);
  EXPECT_EQ(statValue(Text, "[demand]", "relevant-fns"), 2) << Text;
  EXPECT_EQ(statValue(Text, "[demand]", "skipped-fns"), 3) << Text;
  EXPECT_EQ(statValue(Text, "[demand]", "source-fns"), 2) << Text;
  EXPECT_EQ(statValue(Text, "[demand]", "sink-fns"), 2) << Text;
}

TEST(DemandSinkCLI, UnionDifferentialAcrossJobs) {
  TempDir T("union");
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << mixedSubject();

  const std::string All = "--checker=uaf,df,taint-path,taint-data,"
                          "null-deref,leak";
  for (const char *Jobs : {"--jobs=1", "--jobs=4"}) {
    const std::string On = T.file("on.out"), Off = T.file("off.out");
    ASSERT_EQ(runTool({All, Jobs, "--degradation-log", "--demand=on",
                       Subject},
                      On),
              0);
    ASSERT_EQ(runTool({All, Jobs, "--degradation-log", "--demand=off",
                       Subject},
                      Off),
              0);
    EXPECT_EQ(readFile(On), readFile(Off)) << Jobs;
  }
}

TEST(DemandSinkCLI, SinkConesPruneExactCounts) {
  TempDir T("counts");
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << sinkSubject();

  const std::string Out = T.file("run.out");
  ASSERT_EQ(runTool({"--checker=taint-path", "--stats", Subject}, Out), 0);
  const std::string Text = readFile(Out);
  // The sink intersection keeps exactly the meeting region (bothSrc,
  // bothSnk, bothCaller) out of eight functions; the source-only cone
  // would have kept five (srcOnly and srcCaller too).
  EXPECT_EQ(statValue(Text, "[demand]", "relevant-fns"), 3) << Text;
  EXPECT_EQ(statValue(Text, "[demand]", "skipped-fns"), 5) << Text;
  EXPECT_EQ(statValue(Text, "[demand]", "source-fns"), 2) << Text;
  EXPECT_EQ(statValue(Text, "[demand]", "sink-fns"), 2) << Text;
  // The frozen condensation reports its arena footprint, and the pre-pass
  // really walked the module. (Counter fields are inherited from the test
  // process across fork(), so only >0 and cross-run deltas are asserted in
  // the CLI tests — never absolute counter values.)
  EXPECT_GT(statValue(Text, "[demand]", "cg-csr-bytes"), 0) << Text;
  EXPECT_GT(statValue(Text, "[demand]", "prepass-fns"), 0) << Text;
}

//===----------------------------------------------------------------------===
// Persisted relevance through the CLI (--cache-dir warm replay)
//===----------------------------------------------------------------------===

TEST(DemandSinkCLI, WarmRunReplaysPersistedRelevance) {
  TempDir T("warm");
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << sinkSubject();
  const std::string Dir = T.file("cache");

  // Cold: the pre-pass runs over the whole module and persists its result.
  const std::string Cold = T.file("cold.out"), Warm = T.file("warm.out");
  ASSERT_EQ(runTool({"--checker=taint-path", "--stats", "--degradation-log",
                     "--cache-dir=" + Dir, Subject},
                    Cold),
            0);
  const std::string ColdText = readFile(Cold);

  // Warm: the persisted entry replays — zero pre-pass work, same slice.
  // Both children fork from the same test-process counter state, so the
  // cross-run deltas isolate exactly what each run did: the cold run
  // stored one entry and walked all 8 functions, the warm run replayed
  // one entry and walked none.
  ASSERT_EQ(runTool({"--checker=taint-path", "--stats", "--degradation-log",
                     "--cache-dir=" + Dir, Subject},
                    Warm),
            0);
  const std::string WarmText = readFile(Warm);
  EXPECT_EQ(statValue(ColdText, "[demand]", "relevance-stored"),
            statValue(WarmText, "[demand]", "relevance-stored") + 1)
      << ColdText << WarmText;
  EXPECT_EQ(statValue(WarmText, "[demand]", "relevance-replayed"),
            statValue(ColdText, "[demand]", "relevance-replayed") + 1)
      << ColdText << WarmText;
  EXPECT_EQ(statValue(WarmText, "[demand]", "relevance-stale"),
            statValue(ColdText, "[demand]", "relevance-stale"))
      << ColdText << WarmText;
  EXPECT_EQ(statValue(ColdText, "[demand]", "prepass-fns"),
            statValue(WarmText, "[demand]", "prepass-fns") + 8)
      << ColdText << WarmText;
  EXPECT_EQ(statValue(WarmText, "[demand]", "relevant-fns"), 3) << WarmText;
  EXPECT_EQ(statValue(WarmText, "[demand]", "skipped-fns"), 5) << WarmText;
  EXPECT_EQ(statValue(WarmText, "[demand]", "sink-fns"), 2) << WarmText;
}

TEST(DemandSinkCLI, CorruptRelevanceEntryRecomputes) {
  TempDir T("corruptcli");
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << sinkSubject();
  const std::string Dir = T.file("cache");

  ASSERT_EQ(runTool({"--checker=taint-path", "--stats",
                     "--cache-dir=" + Dir, Subject},
                    T.file("cold.out")),
            0);
  const std::string ColdText = readFile(T.file("cold.out"));
  // Reference output for the differential below (no cache, demand off).
  ASSERT_EQ(runTool({"--checker=taint-path", "--demand=off", Subject},
                    T.file("ref.out")),
            0);

  // Flip one payload byte of the persisted entry.
  const std::string Entry = SummaryCache(Dir, SummaryCache::Mode::Read)
                                .entryPath(svfa::RelevanceEntryName);
  std::string Bytes = readFile(Entry);
  ASSERT_GT(Bytes.size(), 4u);
  Bytes[Bytes.size() - 2] = static_cast<char>(Bytes[Bytes.size() - 2] ^ 0x7f);
  std::ofstream(Entry, std::ios::binary | std::ios::trunc) << Bytes;

  // The corrupt entry is detected, logged, and the pre-pass recomputes —
  // reports are unaffected and a fresh entry is stored.
  const std::string Out = T.file("recompute.out");
  ASSERT_EQ(runTool({"--checker=taint-path", "--stats", "--degradation-log",
                     "--cache-dir=" + Dir, Subject},
                    Out),
            0);
  const std::string Text = readFile(Out);
  EXPECT_NE(Text.find("cache-corrupt demand"), std::string::npos) << Text;
  // Deltas vs the cold run (identical inherited counter state): neither
  // run replayed, both ran the full pre-pass and stored an entry.
  EXPECT_EQ(statValue(Text, "[demand]", "relevance-replayed"),
            statValue(ColdText, "[demand]", "relevance-replayed"))
      << Text;
  EXPECT_EQ(statValue(Text, "[demand]", "relevance-stored"),
            statValue(ColdText, "[demand]", "relevance-stored"))
      << Text;
  EXPECT_EQ(statValue(Text, "[demand]", "prepass-fns"),
            statValue(ColdText, "[demand]", "prepass-fns"))
      << Text;
  EXPECT_EQ(statValue(Text, "[demand]", "relevant-fns"), 3) << Text;

  // Report lines match the uncached exhaustive run.
  const std::string Ref = readFile(T.file("ref.out"));
  EXPECT_NE(Text.find(Ref.substr(0, Ref.find('\n'))), std::string::npos);

  // And the freshly stored entry replays on the next run.
  ASSERT_EQ(runTool({"--checker=taint-path", "--stats",
                     "--cache-dir=" + Dir, Subject},
                    T.file("rewarm.out")),
            0);
  EXPECT_EQ(statValue(readFile(T.file("rewarm.out")), "[demand]",
                      "relevance-replayed"),
            statValue(ColdText, "[demand]", "relevance-replayed") + 1);
}

TEST(DemandSinkCLI, SpecChangeStoresFreshRelevance) {
  TempDir T("spec");
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << mixedSubject();
  const std::string Dir = T.file("cache");

  ASSERT_EQ(runTool({"--checker=taint-path", "--stats",
                     "--cache-dir=" + Dir, Subject},
                    T.file("a.out")),
            0);
  const std::string A = readFile(T.file("a.out"));
  // A different checker set is a different spec key: the entry is
  // well-formed but stale, and the run recomputes and overwrites it.
  // (All deltas are against run A — same inherited counter state.)
  const std::string Out = T.file("b.out");
  ASSERT_EQ(runTool({"--checker=taint-data", "--stats",
                     "--cache-dir=" + Dir, Subject},
                    Out),
            0);
  const std::string Text = readFile(Out);
  EXPECT_EQ(statValue(Text, "[demand]", "relevance-stale"),
            statValue(A, "[demand]", "relevance-stale") + 1)
      << Text;
  EXPECT_EQ(statValue(Text, "[demand]", "relevance-replayed"),
            statValue(A, "[demand]", "relevance-replayed"))
      << Text;
  EXPECT_EQ(statValue(Text, "[demand]", "relevance-stored"),
            statValue(A, "[demand]", "relevance-stored"))
      << Text;
  // The overwritten entry now serves the new spec.
  ASSERT_EQ(runTool({"--checker=taint-data", "--stats",
                     "--cache-dir=" + Dir, Subject},
                    T.file("c.out")),
            0);
  const std::string Again = readFile(T.file("c.out"));
  EXPECT_EQ(statValue(Again, "[demand]", "relevance-replayed"),
            statValue(A, "[demand]", "relevance-replayed") + 1)
      << Again;
  EXPECT_EQ(statValue(Again, "[demand]", "relevance-stale"),
            statValue(A, "[demand]", "relevance-stale"))
      << Again;
}

//===----------------------------------------------------------------------===
// Mode-independent memory plan
//===----------------------------------------------------------------------===

/// pairSubject from LifecycleTest (a feasible use-after-free per pair) plus
/// disconnected source-less fillers the uaf pre-pass skips — the functions
/// whose existence must NOT perturb the memory plan across demand modes.
std::string memPlanSubject(int Pairs, int Fillers) {
  std::string S;
  for (int I = 0; I < Pairs; ++I) {
    std::string N = std::to_string(I);
    S += "void use" + N + "(int *p, int c) { if (c > " + N +
         ") { free(p); } if (c > " + std::to_string(I + 1) +
         ") { int x = *p; } }\n";
    S += "int caller" + N + "(int c) { int *p = malloc(4); use" + N +
         "(p, c); return 0; }\n";
  }
  for (int I = 0; I < Fillers; ++I) {
    std::string N = std::to_string(I);
    S += "int pad" + N + "(int *p) { int *q = p; return *q; }\n";
  }
  return S;
}

TEST(DemandSinkCLI, MemPlanIsIdenticalAcrossDemandModes) {
  TempDir T("memplan");
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << memPlanSubject(60, 12);

  // Same budget, both demand modes, both job counts: the deterministic
  // memory plan keys on the union-relevant set in *every* mode (the CLI
  // passes the same planning spec for on and off), so the pre-degraded
  // SCC set — and with it the whole output — is byte-identical.
  std::vector<std::string> Outs;
  for (const char *Mode : {"--demand=on", "--demand=off"}) {
    for (const char *Jobs : {"--jobs=1", "--jobs=4"}) {
      const std::string Out =
          T.file(std::string(Mode + 9) + Jobs[7] + ".out");
      ASSERT_EQ(runTool({"--checker=uaf", Jobs, Mode, "--mem-budget-mb=2",
                         "--degradation-log", Subject},
                        Out),
                0)
          << Mode << " " << Jobs;
      Outs.push_back(readFile(Out));
    }
  }
  EXPECT_NE(Outs[0].find("memory-pressure"), std::string::npos) << Outs[0];
  EXPECT_EQ(Outs[0], Outs[1]);
  EXPECT_EQ(Outs[0], Outs[2]);
  EXPECT_EQ(Outs[0], Outs[3]);

  // Non-vacuity: demand=on really skipped the fillers while producing the
  // very same plan.
  const std::string StatsOut = T.file("stats.out");
  ASSERT_EQ(runTool({"--checker=uaf", "--demand=on", "--mem-budget-mb=2",
                     "--stats", Subject},
                    StatsOut),
            0);
  const std::string Text = readFile(StatsOut);
  EXPECT_EQ(statValue(Text, "[demand]", "skipped-fns"), 12) << Text;
  EXPECT_GT(statValue(Text, "[lifecycle]", "mem-plan-degraded"), 0) << Text;
}

//===----------------------------------------------------------------------===
// Edit-localised warm refresh through the CLI
//===----------------------------------------------------------------------===

TEST(DemandSinkCLI, EditedWarmRunRefreshesLocally) {
  TempDir T("editwarm");
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << sinkSubject();
  const std::string DirA = T.file("cacheA");

  // Cold populate of the original subject.
  ASSERT_EQ(runTool({"--checker=taint-path", "--stats",
                     "--cache-dir=" + DirA, Subject},
                    T.file("coldA.out")),
            0);
  const std::string ColdA = readFile(T.file("coldA.out"));
  EXPECT_NE(ColdA.find("refresh-mode=cold"), std::string::npos) << ColdA;

  // An unedited warm run replays outright.
  ASSERT_EQ(runTool({"--checker=taint-path", "--stats",
                     "--cache-dir=" + DirA, Subject},
                    T.file("replay.out")),
            0);
  EXPECT_NE(readFile(T.file("replay.out")).find("refresh-mode=replay"),
            std::string::npos);

  // Edit one function body, then rerun warm: the stale entry seeds a
  // localized refresh instead of a full pre-pass.
  std::ofstream(Subject, std::ios::trunc) << editedSinkSubject(
      "int srcOnly(int c) { int v = read_input(); return v; }",
      "int srcOnly(int c) { int v = read_input(); int zq = 7; return v; }");
  ASSERT_EQ(runTool({"--checker=taint-path", "--stats",
                     "--cache-dir=" + DirA, Subject},
                    T.file("warm.out")),
            0);
  const std::string Warm = readFile(T.file("warm.out"));
  EXPECT_NE(Warm.find("refresh-mode=local"), std::string::npos) << Warm;
  // Deltas vs the cold run (identical inherited counter state): exactly
  // one dirty function, one re-scanned function (vs all 8 cold), one more
  // stale detection — and a refreshed entry stored.
  EXPECT_EQ(statValue(Warm, "[demand]", "dirty-fns"),
            statValue(ColdA, "[demand]", "dirty-fns") + 1)
      << Warm;
  EXPECT_EQ(statValue(Warm, "[demand]", "prepass-fns"),
            statValue(ColdA, "[demand]", "prepass-fns") - 7)
      << Warm;
  EXPECT_EQ(statValue(Warm, "[demand]", "relevance-stale"),
            statValue(ColdA, "[demand]", "relevance-stale") + 1)
      << Warm;
  EXPECT_EQ(statValue(Warm, "[demand]", "relevance-stored"),
            statValue(ColdA, "[demand]", "relevance-stored"))
      << Warm;

  // The refreshed entry replays on the next warm run.
  ASSERT_EQ(runTool({"--checker=taint-path", "--stats",
                     "--cache-dir=" + DirA, Subject},
                    T.file("rewarm.out")),
            0);
  EXPECT_NE(readFile(T.file("rewarm.out")).find("refresh-mode=replay"),
            std::string::npos);

  // An uncached run on the same edit is the reference: it scans all 8
  // functions (no fingerprints, no diff) and reports exactly what the
  // locally refreshed warm run did.
  ASSERT_EQ(runTool({"--checker=taint-path", "--stats", Subject},
                    T.file("uncached.out")),
            0);
  const std::string Uncached = readFile(T.file("uncached.out"));
  EXPECT_NE(Uncached.find("refresh-mode=cold"), std::string::npos)
      << Uncached;
  EXPECT_EQ(statValue(Uncached, "[demand]", "prepass-fns"),
            statValue(ColdA, "[demand]", "prepass-fns"))
      << Uncached;
  EXPECT_EQ(statValue(Uncached, "[demand]", "dirty-fns"),
            statValue(ColdA, "[demand]", "dirty-fns"))
      << Uncached;
  EXPECT_EQ(filterVolatile(Warm), filterVolatile(Uncached));
}

TEST(DemandSinkCLI, EditedWarmByteIdentityAcrossModes) {
  TempDir T("editmatrix");
  const std::string Subject = T.file("subject.mc");
  const std::string All = "--checker=uaf,df,taint-path,taint-data,"
                          "null-deref,leak";
  const std::string Orig = mixedSubject();
  // A seed-changing edit (a third free site in dfBoth): the warm refresh
  // has to recompute the cones, re-analyze the dirtied SCC, and still land
  // byte-identical to a cold run on the edited subject.
  std::string Edited = Orig;
  const std::string From = "int dfBoth(int *p, int c) { if (c > 0) { "
                           "free(p); } if (c > 1) { free(p); } return c; }";
  size_t Pos = Edited.find(From);
  ASSERT_NE(Pos, std::string::npos);
  Edited.replace(Pos, From.size(),
                 "int dfBoth(int *p, int c) { if (c > 0) { free(p); } "
                 "if (c > 1) { free(p); } if (c > 2) { free(p); } "
                 "return c; }");

  // Per job count: the uncached cold run on the edited subject is the
  // reference; warm cache A refreshes its relevance entry locally, warm
  // cache B was populated under another checker set, so its entry is for
  // another spec and the run rescans every function.
  for (const char *Jobs : {"--jobs=1", "--jobs=4"}) {
    const std::string Tag = Jobs + std::strlen("--jobs=");
    const std::string DirA = T.file("ca" + Tag), DirB = T.file("cb" + Tag);
    std::ofstream(Subject, std::ios::trunc) << Orig;
    ASSERT_EQ(runTool({All, Jobs, "--cache-dir=" + DirA, Subject},
                      T.file("seed.out")),
              0);
    ASSERT_EQ(runTool({"--checker=df,taint-path", Jobs, "--cache-dir=" + DirB,
                       Subject},
                      T.file("seed.out")),
              0);
    std::ofstream(Subject, std::ios::trunc) << Edited;
    const std::string C = T.file("c" + Tag + ".out"),
                      W = T.file("w" + Tag + ".out"),
                      F = T.file("f" + Tag + ".out");
    ASSERT_EQ(runTool({All, Jobs, "--degradation-log", Subject}, C), 0);
    ASSERT_EQ(runTool({All, Jobs, "--degradation-log", "--cache-dir=" + DirA,
                       Subject},
                      W),
              0);
    ASSERT_EQ(runTool({All, Jobs, "--degradation-log", "--cache-dir=" + DirB,
                       Subject},
                      F),
              0);
    EXPECT_EQ(readFile(C), readFile(W)) << Jobs;
    EXPECT_EQ(readFile(C), readFile(F)) << Jobs;
  }

  // The refresh modes behind the two warm runs.
  std::ofstream(Subject, std::ios::trunc) << Orig;
  const std::string DirA = T.file("modesA"), DirB = T.file("modesB");
  ASSERT_EQ(runTool({All, "--cache-dir=" + DirA, Subject}, T.file("s.out")),
            0);
  ASSERT_EQ(runTool({"--checker=df,taint-path", "--cache-dir=" + DirB,
                     Subject},
                    T.file("s.out")),
            0);
  std::ofstream(Subject, std::ios::trunc) << Edited;
  ASSERT_EQ(runTool({All, "--stats", "--cache-dir=" + DirA, Subject},
                    T.file("ma.out")),
            0);
  ASSERT_EQ(runTool({All, "--stats", "--cache-dir=" + DirB, Subject},
                    T.file("mb.out")),
            0);
  EXPECT_NE(readFile(T.file("ma.out")).find("refresh-mode=local"),
            std::string::npos);
  EXPECT_NE(readFile(T.file("mb.out")).find("refresh-mode=full"),
            std::string::npos);
}

TEST(DemandSinkCLI, LeftoverRelevanceAndJournalAreIgnored) {
  TempDir T("leftovercli");
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << sinkSubject();
  const std::string Dir = T.file("cache");
  std::filesystem::create_directories(Dir);
  writeLeftoverFiles(Dir);

  // Reference: no cache at all.
  ASSERT_EQ(runTool({"--checker=taint-path", "--stats", "--degradation-log",
                     Subject},
                    T.file("ref.out")),
            0);
  const std::string Ref = readFile(T.file("ref.out"));

  // An older build's relevance file and run journal are never read: the
  // run is cold — no stale entry, no corruption — and reports exactly
  // what the uncached run does.
  ASSERT_EQ(runTool({"--checker=taint-path", "--stats", "--degradation-log",
                     "--cache-dir=" + Dir, Subject},
                    T.file("cold.out")),
            0);
  const std::string Cold = readFile(T.file("cold.out"));
  EXPECT_NE(Cold.find("refresh-mode=cold"), std::string::npos) << Cold;
  EXPECT_EQ(Cold.find("cache-corrupt"), std::string::npos) << Cold;
  EXPECT_EQ(statValue(Cold, "[demand]", "relevance-stale"),
            statValue(Ref, "[demand]", "relevance-stale"))
      << Cold;
  EXPECT_EQ(filterVolatile(Cold), filterVolatile(Ref));

  // The entry that run stored replays on the next one.
  ASSERT_EQ(runTool({"--checker=taint-path", "--stats",
                     "--cache-dir=" + Dir, Subject},
                    T.file("warm.out")),
            0);
  EXPECT_NE(readFile(T.file("warm.out")).find("refresh-mode=replay"),
            std::string::npos);
}

TEST(DemandSinkCLI, OrphanTmpFilesAreSweptAtStartup) {
  TempDir T("tmpgc");
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << sinkSubject();
  const std::string Dir = T.file("cache");

  ASSERT_EQ(runTool({"--checker=taint-path", "--stats",
                     "--cache-dir=" + Dir, Subject},
                    T.file("cold.out")),
            0);
  const std::string Cold = readFile(T.file("cold.out"));

  // Count the real entries, then plant orphaned temp files as a crashed run
  // would: one per store family (entry, relevance) plus one left by an
  // older build's since-retired scheduling-profile store.
  size_t Entries = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == ".pps")
      ++Entries;
  ASSERT_GT(Entries, 0u);
  for (const char *Orphan :
       {"deadbeef00000000.pps.tmp3.7", "relevance.tmp1", "sched-profile.tmp0"})
    std::ofstream((std::filesystem::path(Dir) / Orphan).string())
        << "leftover";

  ASSERT_EQ(runTool({"--checker=taint-path", "--stats",
                     "--cache-dir=" + Dir, Subject},
                    T.file("warm.out")),
            0);
  const std::string Warm = readFile(T.file("warm.out"));
  EXPECT_EQ(statValue(Warm, "[cache]", "gc-tmp"),
            statValue(Cold, "[cache]", "gc-tmp") + 3)
      << Warm;
  // Orphans are gone, real entries and the relevance entry survived.
  size_t After = 0, Tmps = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    if (E.path().extension() == ".pps")
      ++After;
    if (E.path().filename().string().find(".tmp") != std::string::npos)
      ++Tmps;
  }
  EXPECT_EQ(After, Entries);
  EXPECT_EQ(Tmps, 0u);
  EXPECT_TRUE(std::filesystem::exists(
      SummaryCache(Dir, SummaryCache::Mode::Read)
          .entryPath(svfa::RelevanceEntryName)));
  EXPECT_EQ(statValue(Warm, "[demand]", "relevance-replayed"),
            statValue(Cold, "[demand]", "relevance-replayed") + 1)
      << Warm;
}

#endif // PINPOINT_CLI_TESTS

} // namespace
