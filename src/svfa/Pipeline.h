//===- svfa/Pipeline.h - Bottom-up module analysis pipeline ---------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the per-function stages of Pinpoint's architecture (paper Fig. 6)
/// bottom-up over the call graph:
///
///   SSA → call-site rewriting (callees' connectors) → local quasi
///   path-sensitive points-to (pass 1) → Mod/Ref → interface transform
///   (Aux params / returns) → points-to pass 2 → SEG.
///
/// The result, `AnalyzedModule`, owns per-function condition maps,
/// connector interfaces and SEGs — everything the global value-flow stage
/// (GlobalSVFA) and the checkers consume. Points-to results are
/// intermediates: pass 2's load dependences are folded into the SEG and the
/// result is dropped.
///
/// With a `ThreadPool` in the options, the per-function stages run as a
/// dependency-aware schedule over the call-graph condensation: each SCC is
/// one task, ready once all its distinct callee SCCs finished, so
/// independent call-tree branches analyse concurrently while
/// `rewriteCallSites` still sees every callee interface completed. SCC
/// members run sequentially inside their task, preserving the serial
/// semantics — including the summary-cache probe and store, which run
/// inline in the SCC task exactly as on the serial path; without a pool
/// (or with one worker) the schedule degenerates to exactly the historical
/// bottom-up loop. Ready SCCs queue in the pool's shared FIFO in the order
/// they become ready. Reports, deterministic counters and degradation logs
/// are byte-identical across job counts and cache temperature.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SVFA_PIPELINE_H
#define PINPOINT_SVFA_PIPELINE_H

#include "ir/CallGraph.h"
#include "ir/Conditions.h"
#include "seg/SEG.h"
#include "support/ThreadPool.h"
#include "svfa/Demand.h"
#include "transform/Connectors.h"

#include <atomic>
#include <map>
#include <memory>

namespace pinpoint {
class ResourceGovernor;
class SummaryCache;
}

namespace pinpoint::svfa {

/// Everything the pipeline derives for one function.
struct AnalyzedFunction {
  ir::Function *F = nullptr;
  std::unique_ptr<ir::ConditionMap> Conds;
  transform::FunctionInterface Interface;
  std::unique_ptr<seg::SEG> Seg;
  /// The full per-function pipeline was not run (oversized function, budget
  /// exhaustion, or an isolated failure): the connector interface is empty
  /// — callers see no side effects — and the SEG is built without load
  /// dependences, so it carries only direct def-use flow. Seg is null only
  /// if even the conservative fallback failed; consumers must skip such
  /// functions.
  bool Degraded = false;
  /// The demand pre-pass proved this function irrelevant to every enabled
  /// checker: nothing ran at all (no points-to, no interface, no SEG) and
  /// the summary cache was neither probed nor populated. Distinct from
  /// Degraded — a skipped function is a deliberate, deterministic elision,
  /// not a failure, and emits no degradation note.
  bool Skipped = false;
};

struct PipelineOptions {
  /// Quasi path sensitivity in the local points-to stages (ablation knob).
  bool UseLinearFilter = true;
  /// Budgets, degradation log and fault injection; nullptr = ungoverned.
  ResourceGovernor *Governor = nullptr;
  /// Worker pool for the SCC-DAG schedule; nullptr (or a 1-worker pool)
  /// runs the historical serial bottom-up loop.
  ThreadPool *Pool = nullptr;
  /// Persistent function-summary cache for incremental reanalysis;
  /// nullptr = from-scratch analysis (the historical behaviour).
  SummaryCache *Cache = nullptr;
  /// Demand-driven slicing: when set, the relevance pre-pass runs over
  /// this spec (the union of every checker the run will evaluate) and
  /// irrelevant functions are skipped wholesale. nullptr = exhaustive
  /// analysis (the historical behaviour and the differential baseline).
  const DemandSpec *Demand = nullptr;
  /// Spec the memory plan is keyed on, independent of `Demand`: with a
  /// --mem-budget-mb set, planMemoryPressure models exactly the functions
  /// this spec's union-relevant set keeps, whether or not the run itself
  /// slices. The CLI passes the same spec here for --demand=on and off, so
  /// the plan (and the pre-degraded SCC set) is identical across modes.
  /// nullptr = plan on the analysis slice (Demand if set, else everything).
  const DemandSpec *PlanDemand = nullptr;
};

/// Owns the analysed state of a whole module.
class AnalyzedModule {
public:
  AnalyzedModule(ir::Module &M, smt::ExprContext &Ctx,
                 const PipelineOptions &Opts = {});

  ir::Module &module() { return M; }
  const ir::CallGraph &callGraph() const { return *CG; }
  ir::SymbolMap &symbols() { return Syms; }
  smt::ExprContext &context() { return Ctx; }

  AnalyzedFunction &info(const ir::Function *F) { return Fns.at(F); }
  const AnalyzedFunction &info(const ir::Function *F) const {
    return Fns.at(F);
  }

  /// Functions in bottom-up order (same as the call graph's).
  const std::vector<ir::Function *> &bottomUpOrder() const {
    return CG->bottomUpOrder();
  }

  /// Aggregate SEG statistics (for the scalability benchmarks).
  size_t totalSEGEdges() const;
  size_t totalSEGVertices() const;

  //===--- Run-lifecycle state (DESIGN.md section 12) ---------------------===

  /// SCCs whose members all replayed from the summary cache in this run —
  /// the `resumed-sccs` stat. A demand-skipped SCC analysed nothing, so it
  /// never counts.
  size_t resumedSCCs() const { return Resumed; }
  /// SCCs the deterministic memory plan pre-degraded for --mem-budget-mb.
  size_t memPlanDegradedSCCs() const { return MemPlanDegraded; }
  /// Measured per-SCC analysis cost in microseconds, indexed by SCC id
  /// (parallel to `callGraph().sccs()`; >= 1 for every analysed SCC).
  /// Their sum is the pipeline's busy time across workers, which set
  /// against the pipeline's wall clock gives the pool's utilisation.
  const std::vector<uint64_t> &sccCostsUs() const { return SCCCostUs; }

  //===--- Demand state (`--demand`, DESIGN.md section 13) ----------------===

  /// True when a demand spec was supplied and the relevance pre-pass ran.
  bool demandActive() const { return DemandOn; }
  /// Functions the pre-pass kept / skipped (both 0 when demand is off).
  size_t relevantFunctions() const { return RelevantFns; }
  size_t skippedFunctions() const { return SkippedFns; }
  /// Functions that directly contain a source site (seed count).
  size_t sourceFunctions() const { return Rel.SourceFns; }
  /// Functions that directly contain a syntactic sink site of a
  /// sink-sliced checker (0 when every checker fell back to source-only).
  size_t sinkFunctions() const { return Rel.SinkFns; }
  /// The per-checker relevance slice the pre-pass computed alongside the
  /// union, keyed by CheckerSpec::Name; nullptr when demand is off or the
  /// checker was not in the spec. Engine runs consume this instead of
  /// re-walking the call graph.
  const RelevanceSet *checkerRelevance(const std::string &Name) const {
    auto It = PerChecker.find(Name);
    return It == PerChecker.end() ? nullptr : &It->second;
  }
  /// Where this run's seeds came from: "off" (no demand), "cold" (no
  /// relevance entry: full scan), "replay" (every function matched the
  /// entry: no scan), "local" (only new or edited functions scanned), or
  /// "full" (entry for another spec, or unreadable: full scan) — the
  /// [demand] refresh-mode field. The cones are always recomputed.
  const std::string &relevanceRefreshMode() const { return RefreshMode; }
  /// Functions the relevance entry's diff found new or edited (0 outside
  /// the "replay"/"local" modes) — the [demand] dirty-fns field.
  size_t dirtyFunctions() const { return DirtyFns; }

  /// Wall seconds of the constructor's serial stages, for the [phase]
  /// stats line: SSA construction and the demand pre-pass (load / scan /
  /// cones / store). The remainder of the constructor is the per-SCC
  /// pipeline itself.
  struct PhaseSeconds {
    double SSA = 0, Prepass = 0;
  };
  const PhaseSeconds &phaseSeconds() const { return Phases; }

private:
  /// One-shot note guards shared by every analyzeOne call of a run, so
  /// run-level degradations (wall clock, cancellation, memory backstop)
  /// log once instead of once per remaining function.
  struct RunState {
    std::atomic<bool> RunExhaustedNoted{false};
    std::atomic<bool> CancelNoted{false};
    std::atomic<bool> MemHardNoted{false};
  };
  /// Runs the whole per-function pipeline for \p F (including every
  /// degradation path) and fills its pre-created `Fns` slot. Never throws:
  /// failures are isolated per function, which is also what makes it safe
  /// as the body of a pool task. \p SCCId is F's condensation node;
  /// \p CalleeTainted is true when any transitive callee SCC degraded
  /// nondeterministically this run, which disables both cache probe and
  /// store for F (its cached artifacts assume healthy callee interfaces).
  /// Returns true when F replayed from the summary cache.
  bool analyzeOne(ir::Function *F, size_t SCCId, bool CalleeTainted,
                  ResourceGovernor &Gov, const PipelineOptions &Opts,
                  transform::InterfaceMap &Interfaces, RunState &RS);

  /// Builds the deterministic memory-pressure plan: with a memory budget
  /// set, pre-degrades the largest not-yet-analyzed SCCs (by modelled byte
  /// estimate, ties to the smaller id) until the model fits the soft
  /// threshold. Purely a function of the subject and the budget, so the
  /// degraded-SCC set is identical across runs and job counts.
  void planMemoryPressure(const std::vector<ir::CallGraph::SCCNode> &SCCs,
                          ResourceGovernor &Gov);

  ir::Module &M;
  smt::ExprContext &Ctx;
  ir::SymbolMap Syms;
  std::unique_ptr<ir::CallGraph> CG;
  std::map<const ir::Function *, AnalyzedFunction> Fns;

  /// Incremental-reanalysis state (empty when no cache is configured).
  /// SCCKeys[I] is the transitive content key of condensation node I:
  /// config knobs + member fingerprints + callee-SCC keys. The taint
  /// vectors track *nondeterministic* degradation (failures, wall-clock
  /// budget skips) — deterministic degradations are covered by the config
  /// part of the key. Writes are ordered by the SCC-DAG schedule (a
  /// dependent reads them only after the acquire/release dependency
  /// decrement), so plain bytes suffice.
  SummaryCache *Cache = nullptr;
  std::vector<uint64_t> SCCKeys;
  std::vector<uint8_t> SCCOwnTaint; ///< This SCC degraded nondeterministically.
  std::vector<uint8_t> SCCTaint;    ///< Own taint OR any callee-SCC taint.
  /// Measured wall microseconds per SCC task (≥1 once it ran). Each slot is
  /// written by exactly the task that analysed the SCC and read only after
  /// the group wait.
  std::vector<uint64_t> SCCCostUs;

  /// Run-lifecycle state (DESIGN.md section 12).
  std::vector<uint8_t> MemPlanDegrade; ///< Plan-degraded SCCs (empty = none).
  size_t MemPlanDegraded = 0;
  size_t Resumed = 0;
  /// Demand state: the relevance set and its summary counts (all inert
  /// when no DemandSpec was supplied).
  RelevanceSet Rel;
  std::map<std::string, RelevanceSet> PerChecker;
  bool DemandOn = false;
  size_t RelevantFns = 0, SkippedFns = 0;
  std::string RefreshMode = "off";
  size_t DirtyFns = 0;
  PhaseSeconds Phases;
  /// The set the memory plan is keyed on (All = true models everything;
  /// see PipelineOptions::PlanDemand).
  RelevanceSet PlanRel;
};

} // namespace pinpoint::svfa

#endif // PINPOINT_SVFA_PIPELINE_H
