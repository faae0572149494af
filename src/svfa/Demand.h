//===- svfa/Demand.h - Checker-driven relevance pre-pass ------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The demand-driven relevance pre-pass (`--demand`). Before any summary is
/// built, the call graph is walked from the enabled checkers' source *and*
/// sink sites to mark the set of functions the analysis can possibly need.
/// Per checker c:
///
///   Core_c = callers*( Src_c ) ∩ callers*( Snk_c )
///   R_c    = callees*( Core_c )
///
/// where `Src_c` is every function containing a syntactic source site and
/// `Snk_c` every function containing a syntactic sink site. The caller
/// closures cover every function that can *surface* a source event or sink
/// use (VF2/VF3 summaries propagate events up the call chain, VF4 surfaces
/// sink uses): a candidate can only materialise in a function that lies in
/// both caller cones, so their intersection bounds where reports form. The
/// callee closure is applied *after* intersecting — this is a deliberate
/// strengthening of the naive `callees*(callers*(Src)) ∩
/// callers*(callees*(Snk))` formula, which is not callee-closed and would
/// let an analyzed function miss callee interfaces the exhaustive run saw.
/// Closing the intersected core under callees guarantees byte-identical
/// reports and degradation logs vs `--demand=off`.
///
/// Checkers without syntactic sinks (deref sinks: use-after-free,
/// null-deref; the leak checker's implicit exhaustion sink) conservatively
/// fall back to the source-only cone `R_c = callees*(callers*(Src_c))`.
/// The pre-pass result is the union `R = ∪_c R_c` — the pipeline analyzes
/// the union once and each engine run consumes its own checker's slice.
///
/// R is closed under SCC membership by construction (members of one SCC are
/// mutually reachable through calls), so the per-SCC pipeline schedule
/// never splits a condensation node.
///
/// With `--cache-dir`, the computed artifact is persisted into a versioned,
/// checksummed `relevance` entry keyed on the subject fingerprint and a
/// spec key, so warm runs replay the sets without re-walking the module
/// (`demand.relevance-{stored,replayed,stale}` counters).
///
/// Since v3 the entry also carries a per-function record section: each
/// function's seed membership (source/sink/deref/leak bits per checker) and
/// its outgoing call-edge list, keyed on that function's post-SSA
/// fingerprint. An edit no longer throws the whole pre-pass away — a warm
/// run diffs fingerprints, re-scans only the dirty functions, reuses every
/// clean function's seeds and edges, and recomputes the cones from the
/// merged seed table (`refreshRelevanceArtifact`, DESIGN.md section 15).
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SVFA_DEMAND_H
#define PINPOINT_SVFA_DEMAND_H

#include "checkers/Checker.h"
#include "ir/CallGraph.h"

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace pinpoint::svfa {

/// What the relevance pre-pass must consider a source. One spec covers the
/// union of every checker the run will evaluate: the pipeline analyzes the
/// union-relevant set once and each engine run consumes the subset its own
/// checker needs.
struct DemandSpec {
  std::vector<checkers::CheckerSpec> Checkers;
  /// The leak checker has no CheckerSpec: its sources are malloc calls
  /// with a receiver (see checkers/SpecialCheckers.h). Its sink (heap
  /// exhaustion) is non-syntactic, so it always uses the source-only cone.
  bool LeakSources = false;
  /// Ablation knob: when false, sink sites are ignored and every checker
  /// gets the source-only cone (the pre-PR-8 behavior). When true,
  /// syntactic-sink checkers seed their sink cones at SinkArgFns call
  /// sites and deref-sink checkers at deref hosts (hasDerefSite).
  bool UseSinkCones = true;
};

/// The computed relevant-function set.
struct RelevanceSet {
  /// True = demand off / not computed: everything is relevant.
  bool All = true;
  std::unordered_set<const ir::Function *> Fns;
  /// Functions that directly contain a source site (diagnostics only).
  size_t SourceFns = 0;
  /// Functions that directly contain a sink seed of a sink-sliced checker
  /// — a syntactic sink call site, or a deref host for DerefIsSink
  /// checkers (diagnostics only; 0 when every checker used the
  /// source-only cone).
  size_t SinkFns = 0;

  bool relevant(const ir::Function *F) const { return All || Fns.count(F); }
};

/// One function's persisted pre-pass facts, keyed on its post-SSA
/// fingerprint. A warm run reuses the seed bits and call edges verbatim
/// while the fingerprint still matches, so only edited functions pay a
/// statement scan.
struct FunctionRecord {
  uint64_t FP = 0;
  /// Bit 0: leak source (malloc with receiver). Bit 1: deref host (seed of
  /// every DerefIsSink checker's sink cone). Scanned only when the spec
  /// needs them; the spec key guards reuse, so the convention is stable.
  uint8_t Flags = 0;
  /// Parallel to RelevanceRecords::Checkers. Bit 0: contains a source site
  /// of that checker. Bit 1: contains a syntactic sink site.
  std::vector<uint8_t> SeedBits;
  /// Sorted names of resolved callees (the live call-graph edge list).
  std::vector<std::string> Callees;

  static constexpr uint8_t LeakSrcFlag = 1;
  static constexpr uint8_t DerefHostFlag = 2;
};

/// The per-function record table the v3 `relevance` entry persists beside
/// the union sets. `Checkers` is the sorted CheckerSpec name list the seed
/// bits index into (the leak pseudo-checker lives in FunctionRecord::Flags).
struct RelevanceRecords {
  std::vector<std::string> Checkers;
  std::map<std::string, FunctionRecord> Fns;
};

/// The full pre-pass result: the union set the pipeline analyzes plus the
/// per-checker slices the engines consume. This is what the `relevance`
/// cache entry round-trips.
struct RelevanceArtifact {
  RelevanceSet Union;
  /// Keyed by CheckerSpec::Name. Each entry is All=false.
  std::map<std::string, RelevanceSet> PerChecker;
  /// The per-function seed/edge table backing warm-run refresh.
  RelevanceRecords Records;
};

/// Walks \p CG from the source/sink sites described by \p Spec and returns
/// the bidirectional relevant set (All = false).
RelevanceSet computeRelevance(const ir::CallGraph &CG, ir::Module &M,
                              const DemandSpec &Spec);

/// As computeRelevance, but also returns the per-checker slices and the
/// per-function records. \p FnFP, when non-null, supplies precomputed
/// post-SSA fingerprints (the pipeline computes them once for SCC keys);
/// otherwise fingerprints are taken here.
RelevanceArtifact computeRelevanceArtifact(
    const ir::CallGraph &CG, ir::Module &M, const DemandSpec &Spec,
    const std::unordered_map<const ir::Function *, uint64_t> *FnFP = nullptr);

//===----------------------------------------------------------------------===
// Edit-localised refresh (DESIGN.md section 15)
//===----------------------------------------------------------------------===

/// What a refresh did, for the [demand] stats line.
struct RelevanceRefreshStats {
  /// Functions whose fingerprint changed or that are new in this module.
  std::unordered_set<const ir::Function *> Dirty;
  size_t DirtyFns = 0;
  /// Functions whose statements were actually re-scanned for seeds — the
  /// dirty set on the local path, the whole module on the full fallback.
  size_t ScannedFns = 0;
  /// Call edges carried over from clean functions' records.
  size_t EdgesReused = 0;
  /// True when the dirty-cone path ran (false = full fallback on an
  /// incompatible record table).
  bool Local = false;
  /// True when the diff proved the seed table and edge list unchanged and
  /// the previous closure results were adopted without recomputation.
  bool ClosureReused = false;
};

/// A persisted entry parsed but not resolved against any module: the record
/// table plus the stored result sets as sorted name lists. This is what a
/// stale-subject load surfaces for refresh — stored names may no longer
/// resolve in the edited module, so resolution is deferred.
struct StoredRelevance {
  struct NamedSet {
    uint64_t SourceFns = 0, SinkFns = 0;
    std::vector<std::string> Names;
  };
  NamedSet Union;
  std::vector<std::pair<std::string, NamedSet>> PerChecker;
  RelevanceRecords Records;
};

/// Rebuilds the artifact for the *current* module from a previous run's
/// persisted entry: functions whose fingerprint still matches reuse their
/// persisted seed bits and call edges, dirty functions are re-scanned, and
/// the callers*/callees* cones are recomputed over the live call graph from
/// the merged seed table — or adopted wholesale from the stored sets when
/// the diff shows no seed or edge delta at all. Falls back to the full
/// pre-pass only when the stored record table's checker list does not
/// match the live spec (the table is read from disk, so it is checked).
RelevanceArtifact refreshRelevanceArtifact(
    const ir::CallGraph &CG, ir::Module &M, const DemandSpec &Spec,
    const StoredRelevance &Prev,
    const std::unordered_map<const ir::Function *, uint64_t> &FnFP,
    RelevanceRefreshStats &Stats);

//===----------------------------------------------------------------------===
// Persistence (the `relevance` cache entry)
//===----------------------------------------------------------------------===

enum class RelevanceLoadStatus {
  Missing, ///< No entry on disk.
  Corrupt, ///< Unreadable: bad magic/version/checksum/payload.
  Stale,   ///< Well-formed, but for a different subject or demand spec.
  Ok,      ///< Replayed.
};

/// Deterministic key over everything that shapes the pre-pass result apart
/// from the subject itself: every checker spec field plus the leak and
/// sink-cone knobs. A persisted artifact is only replayed when both the
/// subject fingerprint and this key match.
uint64_t relevanceSpecKey(const DemandSpec &Spec);

/// Loads the `relevance` entry from cache directory \p Dir. On Ok, \p Out
/// holds the replayed artifact with function pointers resolved against
/// \p M; any name that no longer resolves makes the entry Corrupt.
RelevanceLoadStatus loadRelevance(const std::string &Dir, uint64_t SubjectFP,
                                  uint64_t SpecKey, const ir::Module &M,
                                  RelevanceArtifact &Out);

/// Extended load for the warm-refresh path.
struct RelevanceLoadResult {
  RelevanceLoadStatus Status = RelevanceLoadStatus::Missing;
  /// Resolved artifact; filled only when Status == Ok.
  RelevanceArtifact Artifact;
  /// The unresolved entry; filled when StoredUsable.
  StoredRelevance Stored;
  /// True for a Stale entry whose spec key matches and whose payload parsed
  /// (subject fingerprint differs): `Stored` can seed a localized refresh.
  /// Version- or spec-mismatched entries are never usable — their seed-bit
  /// layout belongs to another format or checker set.
  bool StoredUsable = false;
};

RelevanceLoadResult loadRelevanceEx(const std::string &Dir, uint64_t SubjectFP,
                                    uint64_t SpecKey, const ir::Module &M);

/// Atomically (tmp + rename) stores \p A as the `relevance` entry in \p Dir.
/// Returns false on I/O failure.
bool storeRelevance(const std::string &Dir, uint64_t SubjectFP,
                    uint64_t SpecKey, const RelevanceArtifact &A);

} // namespace pinpoint::svfa

#endif // PINPOINT_SVFA_DEMAND_H
