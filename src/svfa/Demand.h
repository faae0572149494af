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
/// The computation has two steps. A statement scan gives every function
/// its seed row (`SeedTable`); then the cones are reachability over the
/// call-graph condensation, the DAG the bottom-up pipeline walks. SCC ids
/// are topological (callees first), so per checker one ascending sweep
/// marks the two caller cones and one descending sweep closes their
/// intersection under callees — one byte per SCC, no worklists. R is
/// therefore closed under SCC membership by construction, and the per-SCC
/// pipeline schedule never splits a condensation node.
///
/// With `--cache-dir`, only the seeds persist: one summary-cache entry
/// under a reserved name holds every function's name, post-SSA fingerprint
/// and seed row (DESIGN.md section 15). A warm run takes the rows of
/// functions whose fingerprint still matches from it, scans the rest, and
/// always recomputes the cones.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SVFA_DEMAND_H
#define PINPOINT_SVFA_DEMAND_H

#include "checkers/Checker.h"
#include "ir/CallGraph.h"
#include "support/SummaryCache.h"

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
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
  /// One byte per function id, 1 = relevant; ids past the end are not.
  std::vector<uint8_t> Fns;
  /// Functions that directly contain a source site (diagnostics only).
  size_t SourceFns = 0;
  /// Functions that directly contain a sink seed of a sink-sliced checker
  /// — a syntactic sink call site, or a deref host for DerefIsSink
  /// checkers (diagnostics only; 0 when every checker used the
  /// source-only cone).
  size_t SinkFns = 0;

  bool relevant(const ir::Function *F) const {
    return All || (F->id() < Fns.size() && Fns[F->id()]);
  }
};

/// The full pre-pass result: the union set the pipeline analyzes plus the
/// per-checker slices the engines consume.
struct RelevanceArtifact {
  RelevanceSet Union;
  /// Keyed by CheckerSpec::Name (and "leak"). Each entry is All=false.
  std::map<std::string, RelevanceSet> PerChecker;
};

/// Every function's seeds, one row per function of `CG.bottomUpOrder()` —
/// the members of the condensation's SCCs in ascending id, so each SCC's
/// rows are contiguous. A row is a flags byte followed by one byte per
/// checker of the spec, sorted by name (the order relevanceSpecKey hashes).
/// The leak source and deref-host flags are scanned only when the spec
/// needs them; the spec key guards reuse, so the layout is stable per key.
struct SeedTable {
  /// Flags byte: a malloc call with a receiver (leak source).
  static constexpr uint8_t LeakSource = 1;
  /// Flags byte: a non-synthetic load or store (deref-sink cone seed).
  static constexpr uint8_t DerefHost = 2;
  /// Checker byte: a source site of that checker.
  static constexpr uint8_t Source = 1;
  /// Checker byte: a syntactic sink site of that checker.
  static constexpr uint8_t Sink = 2;

  size_t Stride = 1;
  std::vector<uint8_t> Rows;

  uint8_t *row(size_t I) { return Rows.data() + I * Stride; }
  const uint8_t *row(size_t I) const { return Rows.data() + I * Stride; }
};

/// Scans every function of \p CG for the seeds of \p Spec.
SeedTable scanSeeds(const ir::CallGraph &CG, const DemandSpec &Spec);

/// The cones of \p Spec from \p Seeds: per checker, an ascending sweep over
/// `CG.sccs()` marks callers*(Src) and callers*(Snk), and a descending
/// sweep closes their intersection under callees.
RelevanceArtifact relevanceFromSeeds(const ir::CallGraph &CG,
                                     const DemandSpec &Spec,
                                     const SeedTable &Seeds);

/// Scans every function and returns the union set and per-checker slices.
RelevanceArtifact computeRelevanceArtifact(const ir::CallGraph &CG,
                                           const DemandSpec &Spec);

/// Walks \p CG from the source/sink sites described by \p Spec and returns
/// the bidirectional relevant set (All = false).
RelevanceSet computeRelevance(const ir::CallGraph &CG, ir::Module &M,
                              const DemandSpec &Spec);

//===----------------------------------------------------------------------===
// The relevance entry (DESIGN.md section 15)
//===----------------------------------------------------------------------===

/// Deterministic key over everything that shapes the pre-pass result apart
/// from the subject itself: the entry's payload version, every checker spec
/// field, and the leak and sink-cone knobs. It is the relevance entry's
/// summary-cache content key, so an entry for another spec (and so another
/// seed-row layout) loads as Stale.
uint64_t relevanceSpecKey(const DemandSpec &Spec);

/// The reserved summary-cache name of the relevance entry. No MiniC
/// identifier can take it, so no function's entry shares its file.
extern const char *const RelevanceEntryName;

/// The relevance entry, decoded: the stored run's seed rows plus each
/// stored function's post-SSA fingerprint and row, by name.
struct StoredSeeds {
  struct Record {
    uint64_t FP = 0;
    size_t Row = 0;
  };
  SeedTable Seeds;
  std::unordered_map<std::string, Record> Fns;
};

/// Loads the relevance entry for \p Spec from \p Cache into \p Out:
/// Missing, Corrupt (the summary cache's integrity checks or the payload's
/// decoding failed), Stale (an entry for another spec), or Ok. Never
/// touches the cache.* counters: the entry is not a function summary.
SummaryCache::LoadStatus loadRelevanceSeeds(const SummaryCache &Cache,
                                            const DemandSpec &Spec,
                                            StoredSeeds &Out);

/// Stores \p Seeds (rows of `CG.bottomUpOrder()`) with the functions'
/// names and fingerprints \p FP (by function id) as the relevance entry.
/// Returns false when the cache is read-only or the write failed.
bool storeRelevanceSeeds(const SummaryCache &Cache, const DemandSpec &Spec,
                         const ir::CallGraph &CG, const SeedTable &Seeds,
                         const std::vector<uint64_t> &FP);

/// The live module's seeds, refreshed from a stored entry.
struct SeedRefresh {
  SeedTable Seeds;
  /// Functions that are new or whose fingerprint changed: the ones scanned.
  size_t DirtyFns = 0;
  /// Some stored record names a function the module no longer defines.
  bool Deleted = false;
};

/// Takes each function's row from \p Prev when its name and fingerprint
/// (\p FP, by function id) match a stored record, and scans the rest.
SeedRefresh refreshSeeds(const ir::CallGraph &CG, const DemandSpec &Spec,
                         const StoredSeeds &Prev,
                         const std::vector<uint64_t> &FP);

} // namespace pinpoint::svfa

#endif // PINPOINT_SVFA_DEMAND_H
