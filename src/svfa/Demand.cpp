//===- svfa/Demand.cpp --------------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "svfa/Demand.h"
#include "ir/Fingerprint.h"
#include "support/Hasher.h"
#include "support/Serializer.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>

using namespace pinpoint::ir;

namespace pinpoint::svfa {

namespace {

bool hasMallocSite(const Function &F) {
  for (const BasicBlock *B : F.blocks())
    for (const Stmt *S : B->stmts())
      if (const auto *Call = dyn_cast<CallStmt>(S))
        if (Call->calleeName() == intrinsics::Malloc && Call->receiver())
          return true;
  return false;
}

using FnSet = std::unordered_set<const Function *>;

/// Closes \p Seeds under CG.callers (in place).
void closeUnderCallers(const CallGraph &CG, FnSet &Set) {
  std::vector<const Function *> Work(Set.begin(), Set.end());
  while (!Work.empty()) {
    const Function *F = Work.back();
    Work.pop_back();
    for (Function *C : CG.callers(const_cast<Function *>(F)))
      if (Set.insert(C).second)
        Work.push_back(C);
  }
}

/// Closes \p Set under CG.callees (in place).
void closeUnderCallees(const CallGraph &CG, FnSet &Set) {
  std::vector<const Function *> Work(Set.begin(), Set.end());
  while (!Work.empty()) {
    const Function *F = Work.back();
    Work.pop_back();
    for (Function *C : CG.callees(const_cast<Function *>(F)))
      if (Set.insert(C).second)
        Work.push_back(C);
  }
}

/// The per-checker slice from materialised seed sets. When \p Snk is
/// non-null the source cone is intersected with the sink cone *before* the
/// callee closure — candidates only materialise where both a source event
/// and a sink use can surface (caller closures), and closing the
/// intersected core under callees keeps every analyzed function's callee
/// interfaces identical to the exhaustive run's.
RelevanceSet coneFromSeeds(const CallGraph &CG, const FnSet &Src,
                           const FnSet *Snk) {
  RelevanceSet R;
  R.All = false;
  R.SourceFns = Src.size();

  FnSet SrcCone = Src;
  closeUnderCallers(CG, SrcCone);

  FnSet Core;
  if (Snk) {
    R.SinkFns = Snk->size();
    FnSet SnkCone = *Snk;
    closeUnderCallers(CG, SnkCone);
    for (const Function *F : SrcCone)
      if (SnkCone.count(F))
        Core.insert(F);
  } else {
    Core = std::move(SrcCone);
  }

  closeUnderCallees(CG, Core);
  R.Fns = std::move(Core);
  return R;
}

/// The spec's checkers sorted by name — the index space FunctionRecord's
/// seed bits live in (and the order relevanceSpecKey hashes).
std::vector<const checkers::CheckerSpec *>
sortedCheckers(const DemandSpec &Spec) {
  std::vector<const checkers::CheckerSpec *> Sorted;
  for (const checkers::CheckerSpec &CS : Spec.Checkers)
    Sorted.push_back(&CS);
  std::sort(Sorted.begin(), Sorted.end(),
            [](const checkers::CheckerSpec *A, const checkers::CheckerSpec *B) {
              return A->Name < B->Name;
            });
  return Sorted;
}

/// The checker whose sink cone seeds at deref hosts, if the spec has one.
/// hasDerefSite is spec-independent, so any such checker serves to scan the
/// per-function deref-host flag.
const checkers::CheckerSpec *
derefScanChecker(const DemandSpec &Spec,
                 const std::vector<const checkers::CheckerSpec *> &Sorted) {
  if (!Spec.UseSinkCones)
    return nullptr;
  for (const checkers::CheckerSpec *CS : Sorted)
    if (CS->DerefIsSink && !CS->hasSyntacticSinks())
      return CS;
  return nullptr;
}

/// Scans \p F's statements into one seed record (everything except the
/// fingerprint and the call-edge list).
void scanSeeds(const Function &F, const DemandSpec &Spec,
               const std::vector<const checkers::CheckerSpec *> &Sorted,
               const checkers::CheckerSpec *DerefScan, FunctionRecord &R) {
  R.Flags = 0;
  if (Spec.LeakSources && hasMallocSite(F))
    R.Flags |= FunctionRecord::LeakSrcFlag;
  if (DerefScan && DerefScan->hasDerefSite(F))
    R.Flags |= FunctionRecord::DerefHostFlag;
  R.SeedBits.assign(Sorted.size(), 0);
  for (size_t I = 0; I < Sorted.size(); ++I) {
    const checkers::CheckerSpec &CS = *Sorted[I];
    uint8_t Bits = 0;
    if (CS.hasSourceSite(F))
      Bits |= 1;
    if (Spec.UseSinkCones && CS.hasSyntacticSinks() && CS.hasSinkSite(F))
      Bits |= 2;
    R.SeedBits[I] = Bits;
  }
}

/// \p F's resolved callees by name, sorted — the persisted edge list.
std::vector<std::string> calleeNames(const CallGraph &CG, const Function *F) {
  std::vector<std::string> Names;
  for (Function *C : CG.callees(const_cast<Function *>(F)))
    Names.push_back(C->name());
  std::sort(Names.begin(), Names.end());
  return Names;
}

/// The full per-function scan: every function's seeds, fingerprint and
/// call edges. This is the expensive part of a cold pre-pass; the warm
/// refresh reuses it per function while fingerprints match.
RelevanceRecords
buildRecords(const CallGraph &CG, Module &M, const DemandSpec &Spec,
             const std::unordered_map<const Function *, uint64_t> *FnFP) {
  std::vector<const checkers::CheckerSpec *> Sorted = sortedCheckers(Spec);
  const checkers::CheckerSpec *DerefScan = derefScanChecker(Spec, Sorted);

  RelevanceRecords Recs;
  for (const checkers::CheckerSpec *CS : Sorted)
    Recs.Checkers.push_back(CS->Name);
  for (Function *F : M.functions()) {
    FunctionRecord R;
    if (FnFP) {
      auto It = FnFP->find(F);
      R.FP = It == FnFP->end() ? fingerprintFunction(*F) : It->second;
    } else {
      R.FP = fingerprintFunction(*F);
    }
    scanSeeds(*F, Spec, Sorted, DerefScan, R);
    R.Callees = calleeNames(CG, F);
    Recs.Fns.emplace(F->name(), std::move(R));
  }
  return Recs;
}

/// Rebuilds the artifact's cones from a seed table. Pure in the table and
/// the live call graph, so a cold scan and a warm refresh that merged to
/// the same table produce byte-identical artifacts.
RelevanceArtifact artifactFromRecords(const CallGraph &CG, Module &M,
                                      const DemandSpec &Spec,
                                      const RelevanceRecords &Recs) {
  RelevanceArtifact A;
  A.Union.All = false;

  std::vector<const checkers::CheckerSpec *> Sorted = sortedCheckers(Spec);

  auto record = [&Recs](const Function *F) -> const FunctionRecord * {
    auto It = Recs.Fns.find(F->name());
    return It == Recs.Fns.end() ? nullptr : &It->second;
  };

  // Union diagnostics count *functions* that seed any checker, matching the
  // pre-sink-slicing semantics of [demand] source-fns.
  FnSet UnionSrc, UnionSnk;

  for (size_t I = 0; I < Sorted.size(); ++I) {
    const checkers::CheckerSpec &CS = *Sorted[I];
    FnSet Src, Snk;
    bool UseSnk = false;
    for (Function *F : M.functions()) {
      const FunctionRecord *R = record(F);
      if (!R || I >= R->SeedBits.size())
        continue;
      if (R->SeedBits[I] & 1) {
        Src.insert(F);
        UnionSrc.insert(F);
      }
      if (Spec.UseSinkCones && CS.hasSyntacticSinks()) {
        UseSnk = true;
        if (R->SeedBits[I] & 2) {
          Snk.insert(F);
          UnionSnk.insert(F);
        }
      } else if (Spec.UseSinkCones && CS.DerefIsSink) {
        // Semantic sink narrowing: a deref-sink checker names no sink
        // function, but its sinks can only surface where something is
        // actually dereferenced — seed the sink cone at deref hosts so
        // deref-free source regions prune exactly like syntactic ones.
        UseSnk = true;
        if (R->Flags & FunctionRecord::DerefHostFlag) {
          Snk.insert(F);
          UnionSnk.insert(F);
        }
      }
    }
    RelevanceSet RC = coneFromSeeds(CG, Src, UseSnk ? &Snk : nullptr);
    A.Union.Fns.insert(RC.Fns.begin(), RC.Fns.end());
    A.PerChecker.emplace(CS.Name, std::move(RC));
  }

  if (Spec.LeakSources) {
    // The leak checker's sink (exhaustion) is non-syntactic: source-only.
    FnSet Src;
    for (Function *F : M.functions()) {
      const FunctionRecord *R = record(F);
      if (R && (R->Flags & FunctionRecord::LeakSrcFlag)) {
        Src.insert(F);
        UnionSrc.insert(F);
      }
    }
    RelevanceSet RC = coneFromSeeds(CG, Src, nullptr);
    A.Union.Fns.insert(RC.Fns.begin(), RC.Fns.end());
    A.PerChecker.emplace("leak", std::move(RC));
  }

  A.Union.SourceFns = UnionSrc.size();
  A.Union.SinkFns = UnionSnk.size();
  return A;
}

} // namespace

RelevanceArtifact computeRelevanceArtifact(
    const CallGraph &CG, Module &M, const DemandSpec &Spec,
    const std::unordered_map<const Function *, uint64_t> *FnFP) {
  RelevanceRecords Recs = buildRecords(CG, M, Spec, FnFP);
  RelevanceArtifact A = artifactFromRecords(CG, M, Spec, Recs);
  A.Records = std::move(Recs);
  return A;
}

RelevanceSet computeRelevance(const CallGraph &CG, Module &M,
                              const DemandSpec &Spec) {
  return computeRelevanceArtifact(CG, M, Spec).Union;
}

//===----------------------------------------------------------------------===
// Edit-localised refresh
//===----------------------------------------------------------------------===

namespace {

/// Resolves a stored name set against \p M. False when any name is gone —
/// the caller falls back to recomputing the cones.
bool resolveNamedSet(const StoredRelevance::NamedSet &S, const Module &M,
                     RelevanceSet &Out) {
  Out.All = false;
  Out.SourceFns = S.SourceFns;
  Out.SinkFns = S.SinkFns;
  Out.Fns.clear();
  Out.Fns.reserve(S.Names.size());
  for (const std::string &N : S.Names) {
    const Function *F = M.function(N);
    if (!F)
      return false;
    Out.Fns.insert(F);
  }
  return true;
}

bool resolveStored(const StoredRelevance &S, const Module &M,
                   RelevanceArtifact &Out) {
  if (!resolveNamedSet(S.Union, M, Out.Union))
    return false;
  for (const auto &[Name, NS] : S.PerChecker) {
    RelevanceSet RS;
    if (!resolveNamedSet(NS, M, RS))
      return false;
    Out.PerChecker.emplace(Name, std::move(RS));
  }
  return true;
}

} // namespace

RelevanceArtifact refreshRelevanceArtifact(
    const CallGraph &CG, Module &M, const DemandSpec &Spec,
    const StoredRelevance &Prev,
    const std::unordered_map<const Function *, uint64_t> &FnFP,
    RelevanceRefreshStats &Stats) {
  std::vector<const checkers::CheckerSpec *> Sorted = sortedCheckers(Spec);

  // The spec key guards reuse, so the stored checker list should always
  // match the live spec's; treat a mismatch as an unusable table.
  bool Compatible = Prev.Records.Checkers.size() == Sorted.size();
  for (size_t I = 0; Compatible && I < Sorted.size(); ++I)
    Compatible = Prev.Records.Checkers[I] == Sorted[I]->Name;

  // Dirty diff: a function is dirty when it is new or its post-SSA
  // fingerprint no longer matches its record. Fingerprints hash callee
  // *names*, so a clean function's seed bits and call-by-name edges are
  // unchanged by construction.
  for (const Function *F : M.functions()) {
    auto It = Prev.Records.Fns.find(F->name());
    if (It == Prev.Records.Fns.end() || It->second.FP != FnFP.at(F) ||
        It->second.SeedBits.size() != Sorted.size())
      Stats.Dirty.insert(F);
  }
  Stats.DirtyFns = Stats.Dirty.size();

  if (!Compatible) {
    Stats.ScannedFns = M.functions().size();
    return computeRelevanceArtifact(CG, M, Spec, &FnFP);
  }
  Stats.Local = true;
  Stats.ScannedFns = Stats.DirtyFns;

  const checkers::CheckerSpec *DerefScan = derefScanChecker(Spec, Sorted);

  // Merge: clean functions reuse their record's seed bits, dirty ones are
  // re-scanned. Edge lists always come from the live call graph — for a
  // clean function that is a copy of its record unless the *set of defined
  // function names* changed (an added definition resolves a formerly
  // external call, a deleted one un-resolves it), and both of those cases
  // surface in the diff below and force the closure recomputation.
  RelevanceRecords New;
  New.Checkers = Prev.Records.Checkers;
  bool SeedDelta = false, EdgeDelta = false;
  for (Function *F : M.functions()) {
    auto It = Prev.Records.Fns.find(F->name());
    FunctionRecord R;
    R.FP = FnFP.at(F);
    if (!Stats.Dirty.count(F)) {
      R.Flags = It->second.Flags;
      R.SeedBits = It->second.SeedBits;
      Stats.EdgesReused += It->second.Callees.size();
    } else {
      scanSeeds(*F, Spec, Sorted, DerefScan, R);
      if (It == Prev.Records.Fns.end()) {
        // A new definition can re-resolve existing call sites.
        SeedDelta = true;
        EdgeDelta = true;
      } else if (R.Flags != It->second.Flags ||
                 R.SeedBits != It->second.SeedBits) {
        SeedDelta = true;
      }
    }
    R.Callees = calleeNames(CG, F);
    if (It != Prev.Records.Fns.end() && R.Callees != It->second.Callees)
      EdgeDelta = true;
    New.Fns.emplace(F->name(), std::move(R));
  }
  for (const auto &[Name, R] : Prev.Records.Fns)
    if (!M.function(Name)) {
      // A deleted definition un-resolves surviving callers' edges to it.
      SeedDelta = true;
      EdgeDelta = true;
    }

  // No seed or edge delta: the cones are a pure function of the seed table
  // and the call graph, so the stored closure results are still exact —
  // adopt them and skip the cone recomputation entirely. (A body edit that
  // touches no source/sink/deref/call site lands here: one function
  // scanned, zero cones walked.)
  if (!SeedDelta && !EdgeDelta) {
    RelevanceArtifact A;
    if (resolveStored(Prev, M, A)) {
      A.Records = std::move(New);
      Stats.ClosureReused = true;
      return A;
    }
  }

  RelevanceArtifact A = artifactFromRecords(CG, M, Spec, New);
  A.Records = std::move(New);
  return A;
}

//===----------------------------------------------------------------------===
// Persistence
//===----------------------------------------------------------------------===

namespace {

constexpr char RelMagic[4] = {'P', 'P', 'R', 'L'};
/// v2: deref-sink checkers gained semantic sink narrowing — a v1 entry for
/// the same spec would replay the wider source-only slice, so old versions
/// must recompute (the version also feeds relevanceSpecKey).
/// v3: per-function record section (fingerprint, seed bits, call edges)
/// appended after the sets, backing the edit-localised warm refresh. Any
/// older version loads as Stale — an honest leftover, never corruption.
constexpr uint32_t RelFormatVersion = 3;

std::string relevancePath(const std::string &Dir) { return Dir + "/relevance"; }

void writeSet(ByteWriter &W, const RelevanceSet &S) {
  W.u64(S.SourceFns);
  W.u64(S.SinkFns);
  std::vector<std::string> Names;
  Names.reserve(S.Fns.size());
  for (const Function *F : S.Fns)
    Names.push_back(F->name());
  std::sort(Names.begin(), Names.end());
  W.u32(static_cast<uint32_t>(Names.size()));
  for (const std::string &N : Names)
    W.str(N);
}

StoredRelevance::NamedSet readNamedSet(ByteReader &R) {
  StoredRelevance::NamedSet S;
  S.SourceFns = R.u64();
  S.SinkFns = R.u64();
  uint32_t N = R.u32();
  S.Names.reserve(N);
  for (uint32_t I = 0; I < N; ++I)
    S.Names.push_back(R.str());
  return S;
}

void writeRecords(ByteWriter &W, const RelevanceRecords &Recs) {
  W.u32(static_cast<uint32_t>(Recs.Checkers.size()));
  for (const std::string &N : Recs.Checkers)
    W.str(N);
  W.u32(static_cast<uint32_t>(Recs.Fns.size()));
  for (const auto &[Name, R] : Recs.Fns) {
    W.str(Name);
    W.u64(R.FP);
    W.u8(R.Flags);
    for (size_t I = 0; I < Recs.Checkers.size(); ++I)
      W.u8(I < R.SeedBits.size() ? R.SeedBits[I] : 0);
    W.u32(static_cast<uint32_t>(R.Callees.size()));
    for (const std::string &C : R.Callees)
      W.str(C);
  }
}

RelevanceRecords readRecords(ByteReader &R) {
  RelevanceRecords Recs;
  uint32_t NumCheckers = R.u32();
  Recs.Checkers.reserve(NumCheckers);
  for (uint32_t I = 0; I < NumCheckers; ++I)
    Recs.Checkers.push_back(R.str());
  uint32_t NumFns = R.u32();
  for (uint32_t I = 0; I < NumFns; ++I) {
    std::string Name = R.str();
    FunctionRecord FR;
    FR.FP = R.u64();
    FR.Flags = R.u8();
    FR.SeedBits.resize(NumCheckers);
    for (uint32_t C = 0; C < NumCheckers; ++C)
      FR.SeedBits[C] = R.u8();
    uint32_t NumCallees = R.u32();
    FR.Callees.reserve(NumCallees);
    for (uint32_t C = 0; C < NumCallees; ++C)
      FR.Callees.push_back(R.str());
    Recs.Fns.emplace(std::move(Name), std::move(FR));
  }
  return Recs;
}

void hashStringSet(Hasher &H, const std::set<std::string> &S) {
  H.u32(static_cast<uint32_t>(S.size()));
  for (const std::string &E : S)
    H.str(E);
}

} // namespace

uint64_t relevanceSpecKey(const DemandSpec &Spec) {
  // Sort checkers by name so CLI flag order does not shake the key.
  std::vector<const checkers::CheckerSpec *> Sorted;
  for (const checkers::CheckerSpec &CS : Spec.Checkers)
    Sorted.push_back(&CS);
  std::sort(Sorted.begin(), Sorted.end(),
            [](const checkers::CheckerSpec *A, const checkers::CheckerSpec *B) {
              return A->Name < B->Name;
            });

  Hasher H;
  H.str("pinpoint-relevance-spec");
  H.u32(RelFormatVersion);
  H.u8(Spec.LeakSources ? 1 : 0);
  H.u8(Spec.UseSinkCones ? 1 : 0);
  H.u32(static_cast<uint32_t>(Sorted.size()));
  for (const checkers::CheckerSpec *CS : Sorted) {
    H.str(CS->Name);
    hashStringSet(H, CS->SourceArgFns);
    hashStringSet(H, CS->SourceRetFns);
    H.u8(CS->NullConstIsSource ? 1 : 0);
    H.u8(CS->DerefIsSink ? 1 : 0);
    hashStringSet(H, CS->SinkArgFns);
    H.u8(CS->TemporalOrder ? 1 : 0);
    H.u8(CS->FlowThroughOperators ? 1 : 0);
  }
  return H.digest();
}

RelevanceLoadResult loadRelevanceEx(const std::string &Dir, uint64_t SubjectFP,
                                    uint64_t SpecKey, const Module &M) {
  RelevanceLoadResult Res;
  std::ifstream In(relevancePath(Dir), std::ios::binary);
  if (!In)
    return Res;
  std::vector<uint8_t> Raw((std::istreambuf_iterator<char>(In)),
                           std::istreambuf_iterator<char>());

  Res.Status = RelevanceLoadStatus::Corrupt;
  try {
    ByteReader R(Raw);
    char Mg[4];
    for (char &C : Mg)
      C = static_cast<char>(R.u8());
    if (std::memcmp(Mg, RelMagic, sizeof(RelMagic)) != 0)
      return Res;
    // A well-formed entry from another format version is an honest
    // leftover of an older/newer build, not damage: recompute silently.
    if (R.u32() != RelFormatVersion) {
      Res.Status = RelevanceLoadStatus::Stale;
      return Res;
    }
    uint64_t FP = R.u64();
    uint64_t Key = R.u64();
    uint64_t Checksum = R.u64();
    uint32_t Size = R.u32();
    if (Size != R.remaining())
      return Res;
    std::vector<uint8_t> Payload(Size);
    for (uint32_t I = 0; I < Size; ++I)
      Payload[I] = R.u8();
    if (Hasher().bytes(Payload.data(), Payload.size()).digest() != Checksum)
      return Res;
    if (Key != SpecKey) {
      // Another checker set: the seed-bit layout is not ours, so the
      // records cannot seed a refresh either.
      Res.Status = RelevanceLoadStatus::Stale;
      return Res;
    }

    ByteReader PR(Payload);
    StoredRelevance S;
    const bool Matched = FP == SubjectFP;
    try {
      S.Union = readNamedSet(PR);
      uint32_t NumCheckers = PR.u32();
      for (uint32_t I = 0; I < NumCheckers; ++I) {
        std::string Name = PR.str();
        S.PerChecker.emplace_back(std::move(Name), readNamedSet(PR));
      }
      S.Records = readRecords(PR);
      if (!PR.atEnd())
        throw SerializationError("trailing relevance payload bytes");
    } catch (const SerializationError &) {
      // Checksummed-but-unparseable is damage for the matching subject;
      // for a stale one it is merely unusable (matching the pre-v3
      // behaviour of never parsing stale payloads).
      Res.Status = Matched ? RelevanceLoadStatus::Corrupt
                           : RelevanceLoadStatus::Stale;
      return Res;
    }

    if (!Matched) {
      Res.Status = RelevanceLoadStatus::Stale;
      Res.Stored = std::move(S);
      Res.StoredUsable = true;
      return Res;
    }
    RelevanceArtifact A;
    if (!resolveStored(S, M, A))
      return Res; // Names from another world under our fingerprint: damage.
    A.Records = std::move(S.Records);
    Res.Artifact = std::move(A);
    Res.Status = RelevanceLoadStatus::Ok;
    return Res;
  } catch (const SerializationError &) {
    Res.Status = RelevanceLoadStatus::Corrupt;
    return Res;
  }
}

RelevanceLoadStatus loadRelevance(const std::string &Dir, uint64_t SubjectFP,
                                  uint64_t SpecKey, const Module &M,
                                  RelevanceArtifact &Out) {
  RelevanceLoadResult Res = loadRelevanceEx(Dir, SubjectFP, SpecKey, M);
  if (Res.Status == RelevanceLoadStatus::Ok)
    Out = std::move(Res.Artifact);
  return Res.Status;
}

bool storeRelevance(const std::string &Dir, uint64_t SubjectFP,
                    uint64_t SpecKey, const RelevanceArtifact &A) {
  ByteWriter PW;
  writeSet(PW, A.Union);
  PW.u32(static_cast<uint32_t>(A.PerChecker.size()));
  for (const auto &[Name, S] : A.PerChecker) {
    PW.str(Name);
    writeSet(PW, S);
  }
  writeRecords(PW, A.Records);
  std::vector<uint8_t> Payload = PW.take();

  ByteWriter W;
  for (char C : RelMagic)
    W.u8(static_cast<uint8_t>(C));
  W.u32(RelFormatVersion);
  W.u64(SubjectFP);
  W.u64(SpecKey);
  W.u64(Hasher().bytes(Payload.data(), Payload.size()).digest());
  W.u32(static_cast<uint32_t>(Payload.size()));
  std::vector<uint8_t> Bytes = W.take();
  Bytes.insert(Bytes.end(), Payload.begin(), Payload.end());

  static std::atomic<uint64_t> TmpCounter{0};
  std::string Final = relevancePath(Dir);
  std::string Tmp = Final + ".tmp" + std::to_string(TmpCounter.fetch_add(1));
  {
    std::ofstream OutF(Tmp, std::ios::binary | std::ios::trunc);
    if (!OutF)
      return false;
    OutF.write(reinterpret_cast<const char *>(Bytes.data()),
               static_cast<std::streamsize>(Bytes.size()));
    if (!OutF)
      return false;
  }
  std::error_code EC;
  std::filesystem::rename(Tmp, Final, EC);
  if (EC) {
    std::filesystem::remove(Tmp, EC);
    return false;
  }
  return true;
}

} // namespace pinpoint::svfa
