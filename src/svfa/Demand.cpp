//===- svfa/Demand.cpp --------------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "svfa/Demand.h"
#include "support/Hasher.h"
#include "support/Serializer.h"

#include <algorithm>

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

/// The spec's checkers sorted by name — the order of a seed row's checker
/// bytes (and of relevanceSpecKey's hash), so CLI flag order does not
/// shake either.
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

/// A seed table of \p NumFns zeroed rows laid out for \p Spec.
SeedTable emptyTable(const DemandSpec &Spec, size_t NumFns) {
  SeedTable T;
  T.Stride = 1 + Spec.Checkers.size();
  T.Rows.assign(NumFns * T.Stride, 0);
  return T;
}

/// Fills seed rows for one spec.
class SeedScanner {
public:
  explicit SeedScanner(const DemandSpec &Spec)
      : Spec(Spec), Sorted(sortedCheckers(Spec)) {
    // The checker whose sink cone seeds at deref hosts, if any.
    // hasDerefSite is spec-independent, so any such checker serves.
    if (Spec.UseSinkCones)
      for (const checkers::CheckerSpec *CS : Sorted)
        if (CS->DerefIsSink && !CS->hasSyntacticSinks()) {
          DerefScan = CS;
          break;
        }
  }

  void scan(const Function &F, uint8_t *Row) const {
    Row[0] = 0;
    if (Spec.LeakSources && hasMallocSite(F))
      Row[0] |= SeedTable::LeakSource;
    if (DerefScan && DerefScan->hasDerefSite(F))
      Row[0] |= SeedTable::DerefHost;
    for (size_t I = 0; I < Sorted.size(); ++I) {
      const checkers::CheckerSpec &CS = *Sorted[I];
      uint8_t Bits = 0;
      if (CS.hasSourceSite(F))
        Bits |= SeedTable::Source;
      if (Spec.UseSinkCones && CS.hasSyntacticSinks() && CS.hasSinkSite(F))
        Bits |= SeedTable::Sink;
      Row[1 + I] = Bits;
    }
  }

private:
  const DemandSpec &Spec;
  std::vector<const checkers::CheckerSpec *> Sorted;
  const checkers::CheckerSpec *DerefScan = nullptr;
};

/// Where a cone's seeds sit in a row: byte \p Col, bits \p Mask.
struct SeedBit {
  size_t Col;
  uint8_t Mask;
};

/// Per-SCC marks of the sweeps.
constexpr uint8_t SrcCone = 1; ///< In callers*(Src).
constexpr uint8_t SnkCone = 2; ///< In callers*(Snk).
constexpr uint8_t InSlice = 4; ///< In callees*(core).

/// One checker's slice over the condensation. \p First[I] is SCC I's first
/// row. With \p Snk the core is the intersection of the two caller cones;
/// without, the source cone alone. \p UnionFns and \p UnionSeeds gather
/// the union's function marks and per-row seed marks across checkers.
RelevanceSet sweepCones(const CallGraph &CG, const SeedTable &Seeds,
                        const std::vector<size_t> &First, SeedBit Src,
                        const SeedBit *Snk, std::vector<uint8_t> &UnionFns,
                        std::vector<uint8_t> &UnionSeeds) {
  const std::vector<CallGraph::SCCNode> &SCCs = CG.sccs();
  RelevanceSet R;
  R.All = false;
  R.Fns.assign(CG.bottomUpOrder().size(), 0);

  // Ascending: callees have smaller ids, so an SCC is in a caller cone
  // when one of its rows seeds it or one of its callee SCCs already is.
  std::vector<uint8_t> Mark(SCCs.size(), 0);
  for (size_t I = 0; I < SCCs.size(); ++I) {
    uint8_t M = 0;
    for (size_t Row = First[I]; Row < First[I + 1]; ++Row) {
      const uint8_t *Bytes = Seeds.row(Row);
      if (Bytes[Src.Col] & Src.Mask) {
        M |= SrcCone;
        ++R.SourceFns;
        UnionSeeds[Row] |= SrcCone;
      }
      if (Snk && (Bytes[Snk->Col] & Snk->Mask)) {
        M |= SnkCone;
        ++R.SinkFns;
        UnionSeeds[Row] |= SnkCone;
      }
    }
    for (uint32_t Callee : SCCs[I].CalleeSCCs)
      M |= Mark[Callee];
    Mark[I] = M;
  }

  // Descending: every caller of an SCC has a larger id, so by the time the
  // sweep reaches it, the slice has reached it from every core above.
  const uint8_t Core = Snk ? (SrcCone | SnkCone) : SrcCone;
  for (size_t I = SCCs.size(); I-- > 0;) {
    if ((Mark[I] & Core) != Core && !(Mark[I] & InSlice))
      continue;
    Mark[I] |= InSlice;
    for (uint32_t Callee : SCCs[I].CalleeSCCs)
      Mark[Callee] |= InSlice;
    for (const Function *F : SCCs[I].Members)
      R.Fns[F->id()] = UnionFns[F->id()] = 1;
  }
  return R;
}

} // namespace

SeedTable scanSeeds(const CallGraph &CG, const DemandSpec &Spec) {
  const std::vector<Function *> &Fns = CG.bottomUpOrder();
  SeedScanner Scan(Spec);
  SeedTable T = emptyTable(Spec, Fns.size());
  for (size_t I = 0; I < Fns.size(); ++I)
    Scan.scan(*Fns[I], T.row(I));
  return T;
}

RelevanceArtifact relevanceFromSeeds(const CallGraph &CG,
                                     const DemandSpec &Spec,
                                     const SeedTable &Seeds) {
  const std::vector<CallGraph::SCCNode> &SCCs = CG.sccs();
  std::vector<size_t> First(SCCs.size() + 1, 0);
  for (size_t I = 0; I < SCCs.size(); ++I)
    First[I + 1] = First[I] + SCCs[I].Members.size();

  RelevanceArtifact A;
  A.Union.All = false;
  A.Union.Fns.assign(CG.bottomUpOrder().size(), 0);
  // Union diagnostics count *functions* that seed any checker, matching the
  // pre-sink-slicing semantics of [demand] source-fns.
  std::vector<uint8_t> UnionSeeds(First.back(), 0);

  std::vector<const checkers::CheckerSpec *> Sorted = sortedCheckers(Spec);
  for (size_t I = 0; I < Sorted.size(); ++I) {
    const checkers::CheckerSpec &CS = *Sorted[I];
    const SeedBit Src{1 + I, SeedTable::Source};
    SeedBit Snk{1 + I, SeedTable::Sink};
    bool UseSnk = false;
    if (Spec.UseSinkCones && CS.hasSyntacticSinks()) {
      UseSnk = true;
    } else if (Spec.UseSinkCones && CS.DerefIsSink) {
      // Semantic sink narrowing: a deref-sink checker names no sink
      // function, but its sinks can only surface where something is
      // actually dereferenced — seed the sink cone at deref hosts so
      // deref-free source regions prune exactly like syntactic ones.
      UseSnk = true;
      Snk = {0, SeedTable::DerefHost};
    }
    A.PerChecker.emplace(CS.Name,
                         sweepCones(CG, Seeds, First, Src,
                                    UseSnk ? &Snk : nullptr, A.Union.Fns,
                                    UnionSeeds));
  }

  if (Spec.LeakSources)
    // The leak checker's sink (exhaustion) is non-syntactic: source-only.
    A.PerChecker.emplace("leak",
                         sweepCones(CG, Seeds, First,
                                    {0, SeedTable::LeakSource}, nullptr,
                                    A.Union.Fns, UnionSeeds));

  for (uint8_t S : UnionSeeds) {
    A.Union.SourceFns += (S & SrcCone) != 0;
    A.Union.SinkFns += (S & SnkCone) != 0;
  }
  return A;
}

RelevanceArtifact computeRelevanceArtifact(const CallGraph &CG,
                                           const DemandSpec &Spec) {
  return relevanceFromSeeds(CG, Spec, scanSeeds(CG, Spec));
}

RelevanceSet computeRelevance(const CallGraph &CG, Module &,
                              const DemandSpec &Spec) {
  return computeRelevanceArtifact(CG, Spec).Union;
}

//===----------------------------------------------------------------------===
// The relevance entry
//===----------------------------------------------------------------------===

const char *const RelevanceEntryName = "<relevance>";

namespace {

/// Bump whenever the payload layout or the meaning of a stored field
/// changes: relevanceSpecKey hashes it, so an entry in another layout reads
/// as Stale and recomputes silently. Version 5: records hold pre-SSA
/// fingerprints.
constexpr uint32_t SeedPayloadVersion = 5;

void hashStringSet(Hasher &H, const std::set<std::string> &S) {
  H.u32(static_cast<uint32_t>(S.size()));
  for (const std::string &E : S)
    H.str(E);
}

} // namespace

uint64_t relevanceSpecKey(const DemandSpec &Spec) {
  Hasher H;
  H.str("pinpoint-relevance-spec");
  H.u32(SeedPayloadVersion);
  H.u8(Spec.LeakSources ? 1 : 0);
  H.u8(Spec.UseSinkCones ? 1 : 0);
  std::vector<const checkers::CheckerSpec *> Sorted = sortedCheckers(Spec);
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

SummaryCache::LoadStatus loadRelevanceSeeds(const SummaryCache &Cache,
                                            const DemandSpec &Spec,
                                            StoredSeeds &Out) {
  SummaryCache::Loaded L =
      Cache.load(RelevanceEntryName, relevanceSpecKey(Spec));
  if (L.Status != SummaryCache::LoadStatus::Ok)
    return L.Status;

  // Payload: u32 record count, then per record the function's name, its
  // pre-SSA fingerprint and its seed row.
  Out = StoredSeeds();
  Out.Seeds = emptyTable(Spec, 0);
  const size_t Stride = Out.Seeds.Stride;
  try {
    ByteReader R(L.Payload);
    uint32_t N = R.u32();
    // A checksummed payload that still does not fit its count is a bug or
    // a collision under our key; never size anything from it.
    if (N > R.remaining() / (Stride + 12))
      throw SerializationError("relevance record count");
    Out.Seeds.Rows.resize(N * Stride);
    Out.Fns.reserve(N);
    for (uint32_t I = 0; I < N; ++I) {
      std::string Name = R.str();
      uint64_t FP = R.u64();
      uint8_t *Row = Out.Seeds.row(I);
      for (size_t C = 0; C < Stride; ++C)
        Row[C] = R.u8();
      Out.Fns.emplace(std::move(Name), StoredSeeds::Record{FP, I});
    }
    if (!R.atEnd())
      throw SerializationError("trailing relevance payload bytes");
  } catch (const SerializationError &) {
    Out = StoredSeeds();
    return SummaryCache::LoadStatus::Corrupt;
  }
  return SummaryCache::LoadStatus::Ok;
}

bool storeRelevanceSeeds(const SummaryCache &Cache, const DemandSpec &Spec,
                         const CallGraph &CG, const SeedTable &Seeds,
                         const std::vector<uint64_t> &FP) {
  const std::vector<Function *> &Fns = CG.bottomUpOrder();
  ByteWriter W;
  W.u32(static_cast<uint32_t>(Fns.size()));
  for (size_t I = 0; I < Fns.size(); ++I) {
    W.str(Fns[I]->name());
    W.u64(FP.at(Fns[I]->id()));
    const uint8_t *Row = Seeds.row(I);
    for (size_t C = 0; C < Seeds.Stride; ++C)
      W.u8(Row[C]);
  }
  return Cache.store(RelevanceEntryName, relevanceSpecKey(Spec), W.take());
}

SeedRefresh refreshSeeds(const CallGraph &CG, const DemandSpec &Spec,
                         const StoredSeeds &Prev,
                         const std::vector<uint64_t> &FP) {
  const std::vector<Function *> &Fns = CG.bottomUpOrder();
  SeedScanner Scan(Spec);
  SeedRefresh R;
  R.Seeds = emptyTable(Spec, Fns.size());
  // A function whose fingerprint matches its record has the same
  // statements, so the same seeds: fingerprints hash callee *names* and
  // every operand the seed predicates read.
  size_t Matched = 0;
  for (size_t I = 0; I < Fns.size(); ++I) {
    auto It = Prev.Fns.find(Fns[I]->name());
    if (It != Prev.Fns.end())
      ++Matched;
    if (It != Prev.Fns.end() && It->second.FP == FP.at(Fns[I]->id())) {
      std::copy_n(Prev.Seeds.row(It->second.Row), R.Seeds.Stride,
                  R.Seeds.row(I));
    } else {
      Scan.scan(*Fns[I], R.Seeds.row(I));
      ++R.DirtyFns;
    }
  }
  R.Deleted = Matched != Prev.Fns.size();
  return R;
}

} // namespace pinpoint::svfa
