//===- svfa/Pipeline.cpp -----------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "svfa/Pipeline.h"
#include "ir/Fingerprint.h"
#include "ir/SSA.h"
#include "support/Hasher.h"
#include "support/ResourceGovernor.h"
#include "support/Statistics.h"
#include "support/SummaryCache.h"
#include "support/ThreadPool.h"
#include "svfa/SummaryIO.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>

namespace pinpoint::svfa {

namespace {

size_t countStmts(const ir::Function &F) {
  size_t N = 0;
  for (const ir::BasicBlock *B : F.blocks())
    N += B->stmts().size();
  return N;
}

} // namespace

bool AnalyzedModule::analyzeOne(ir::Function *F, size_t SCCId,
                                bool CalleeTainted, ResourceGovernor &Gov,
                                const PipelineOptions &Opts,
                                transform::InterfaceMap &Interfaces,
                                RunState &RS) {
  // Fault-injected pacing: slows every function down so lifecycle tests can
  // interrupt a run mid-flight reproducibly.
  if (uint64_t Pace = Gov.faults().paceFunctionMs())
    std::this_thread::sleep_for(std::chrono::milliseconds(Pace));

  AnalyzedFunction Info;
  Info.F = F;

  // Budget gates: oversized functions and post-deadline stragglers get
  // the conservative fallback instead of the full per-function pipeline.
  // Oversized is a deterministic function of the (key-hashed) budget, so
  // it does not taint; a wall-clock skip is not reproducible and does.
  // Cancellation and the reactive memory backstop are likewise run-local
  // accidents and taint; the pre-computed memory plan is deterministic but
  // still taints — the issue's rule is that memory-degraded chains neither
  // probe nor populate the summary cache, and taint is that mechanism.
  bool SkipFull = false;
  size_t NumStmts = countStmts(*F);
  if (Gov.budget().MaxFunctionStmts > 0 &&
      NumStmts > Gov.budget().MaxFunctionStmts) {
    Gov.note(DegradationKind::FunctionOversized, "pipeline", F->name(),
             std::to_string(NumStmts) + " stmts > cap " +
                 std::to_string(Gov.budget().MaxFunctionStmts));
    SkipFull = true;
  } else if (Gov.cancelled()) {
    if (!RS.CancelNoted.exchange(true))
      Gov.note(DegradationKind::Cancelled, "pipeline", "",
               "cancellation requested; remaining functions degraded");
    SkipFull = true;
    SCCOwnTaint[SCCId] = 1;
  } else if (Gov.runExpired()) {
    if (!RS.RunExhaustedNoted.exchange(true))
      Gov.note(DegradationKind::RunBudgetExhausted, "pipeline", "",
               "wall clock expired; remaining functions degraded");
    SkipFull = true;
    SCCOwnTaint[SCCId] = 1;
  } else if (!MemPlanDegrade.empty() && MemPlanDegrade[SCCId]) {
    Gov.note(DegradationKind::MemoryPressure, "pipeline", F->name(),
             "memory plan: projected footprint over --mem-budget-mb");
    SkipFull = true;
    SCCOwnTaint[SCCId] = 1;
  } else if (Gov.memHardExceeded()) {
    if (!RS.MemHardNoted.exchange(true))
      Gov.note(DegradationKind::MemoryPressure, "pipeline", "",
               "governed bytes over --mem-budget-mb; remaining functions "
               "degraded");
    SkipFull = true;
    SCCOwnTaint[SCCId] = 1;
  }

  if (!SkipFull) {
    try {
      if (Gov.faults().injectPipelineThrow(F->name())) {
        Gov.note(DegradationKind::InjectedFault, "pipeline", F->name(),
                 "forced pipeline throw");
        throw std::runtime_error("injected pipeline fault");
      }

      // Mirror the already-transformed callees' connectors at call sites,
      // so side effects compose transitively up the call chain. Under the
      // SCC-DAG schedule every callee task has completed (the dependency
      // decrement is the happens-before edge), so the reads are safe.
      transform::rewriteCallSites(*F, *CG, Interfaces);

      Info.Conds = std::make_unique<ir::ConditionMap>(*F, Syms);

      // The SEG's points-to input: replayed from the summary cache on a
      // hit, moved out of pass 2's result on a miss.
      pta::LoadDepMap LoadDeps;
      bool Hit = false;

      // Cache probe: on a key match, replay the stored interface + load
      // dependences instead of running both points-to passes. Any
      // integrity failure falls back to the full rebuild below — the cache
      // can cost a rebuild, never a wrong result.
      if (Cache && !CalleeTainted) {
        bool Probe = true;
        if (Gov.faults().injectCacheReadFault(F->name())) {
          Gov.note(DegradationKind::InjectedFault, "cache", F->name(),
                   "forced cache read fault");
          Counters::get().add("cache.corrupt", 1);
          Counters::get().add("cache.misses", 1);
          Probe = false;
        }
        if (Probe) {
          SummaryCache::Loaded L = Cache->load(F->name(), SCCKeys[SCCId]);
          if (L.Status == SummaryCache::LoadStatus::Ok) {
            FunctionSummaryEntry E;
            std::string Err;
            if (decodeFunctionSummary(L.Payload, E, Err) &&
                validateSummary(E, *F, Err)) {
              replayFunctionSummary(*F, E, Syms, Info.Interface, LoadDeps);
              Interfaces[F->id()] = Info.Interface;
              if (E.NoteTruncated)
                Gov.note(DegradationKind::PTATruncated, "pipeline", F->name(),
                         "points-to step budget hit");
              Counters::get().add("cache.hits", 1);
              Hit = true;
            } else {
              Gov.note(DegradationKind::CacheCorrupt, "cache", F->name(),
                       Err);
              Counters::get().add("cache.corrupt", 1);
              Counters::get().add("cache.misses", 1);
            }
          } else if (L.Status == SummaryCache::LoadStatus::Corrupt) {
            Gov.note(DegradationKind::CacheCorrupt, "cache", F->name(),
                     L.Detail);
            Counters::get().add("cache.corrupt", 1);
            Counters::get().add("cache.misses", 1);
          } else if (L.Status == SummaryCache::LoadStatus::Stale) {
            Counters::get().add("cache.invalidated", 1);
            Counters::get().add("cache.misses", 1);
          } else {
            Counters::get().add("cache.misses", 1);
          }
        }
      }

      if (!Hit) {
        // Pass 1: discover this function's own side effects.
        pta::PTAConfig Cfg1;
        Cfg1.UseLinearFilter = Opts.UseLinearFilter;
        Cfg1.MaxSteps = Gov.budget().MaxPTASteps;
        pta::PointsToResult Pass1 =
            pta::runPointsTo(*F, Syms, *Info.Conds, Cfg1);

        // Materialise the connector interface (Fig. 3(a)).
        Info.Interface = transform::applyInterfaceTransform(*F, Pass1);
        Interfaces[F->id()] = Info.Interface;

        // Pass 2: final points-to with the Aux bindings in place.
        pta::PTAConfig Cfg2;
        Cfg2.UseLinearFilter = Opts.UseLinearFilter;
        Cfg2.MaxSteps = Gov.budget().MaxPTASteps;
        Cfg2.AuxParams = Info.Interface.auxBindings();
        pta::PointsToResult Final =
            pta::runPointsTo(*F, Syms, *Info.Conds, Cfg2);

        const bool Truncated = Pass1.truncated() || Final.truncated();
        if (Truncated)
          Gov.note(DegradationKind::PTATruncated, "pipeline", F->name(),
                   "points-to step budget hit");

        // Persist the freshly-built artifacts. Tainted chains are never
        // stored: their interfaces reflect this run's nondeterministic
        // degradation, not the keyed source content. Unrepresentable
        // summaries are silently skipped (the function just stays
        // uncached).
        if (Cache && Cache->writable() && !CalleeTainted &&
            !SCCOwnTaint[SCCId]) {
          std::vector<uint8_t> Payload;
          if (encodeFunctionSummary(*F, Info.Interface, Final, Syms,
                                    Truncated, Payload) &&
              Cache->store(F->name(), SCCKeys[SCCId], Payload))
            Counters::get().add("cache.stored", 1);
        }
        LoadDeps = std::move(Final).takeLoadDeps();
      }

      Info.Seg = std::make_unique<seg::SEG>(*F, Syms, *Info.Conds, LoadDeps);
      Fns[F->id()] = std::move(Info);
      return Hit;
    } catch (const std::exception &Ex) {
      Gov.note(DegradationKind::FunctionFailed, "pipeline", F->name(),
               Ex.what());
      SCCOwnTaint[SCCId] = 1;
      Info = AnalyzedFunction();
      Info.F = F;
    }
  }

  // Conservative fallback: no connectors (callers see no side effects),
  // no load dependences (the SEG keeps only direct def-use flow). Best effort —
  // a degraded function can still surface its local value-flow bugs.
  Info.Degraded = true;
  try {
    Info.Conds = std::make_unique<ir::ConditionMap>(*F, Syms);
    Info.Interface = transform::FunctionInterface();
    Info.Seg = std::make_unique<seg::SEG>(*F, Syms, *Info.Conds,
                                          pta::LoadDepMap());
  } catch (const std::exception &Ex) {
    Gov.note(DegradationKind::FunctionSkipped, "pipeline", F->name(),
             std::string("fallback failed: ") + Ex.what());
    SCCOwnTaint[SCCId] = 1;
    Info.Conds = nullptr;
    Info.Seg = nullptr;
  }
  Interfaces[F->id()] = Info.Interface;
  Fns[F->id()] = std::move(Info);
  return false;
}

void AnalyzedModule::planMemoryPressure(
    const std::vector<ir::CallGraph::SCCNode> &SCCs, ResourceGovernor &Gov) {
  int64_t BudgetMB = Gov.budget().MemBudgetMB;
  if (BudgetMB <= 0 || SCCs.empty())
    return;

  // Byte model: a fully analysed function keeps its SEG and builds its
  // conditional points-to sets on the way there, both roughly linear in
  // statement count; the fallback keeps only the SSA'd IR and a def-use
  // SEG. The estimate only has to *rank* SCCs consistently — it is a pure
  // function of the subject and the budget, never of measured usage, so
  // the plan (and with it the degraded-SCC set) is identical across runs
  // and job counts.
  constexpr int64_t FnBaseBytes = 16384;
  constexpr int64_t FullBytesPerStmt = 4096;
  constexpr int64_t FallbackBytesPerStmt = 256;

  std::vector<int64_t> Est(SCCs.size()), Fallback(SCCs.size());
  int64_t Total = 0;
  for (size_t I = 0; I < SCCs.size(); ++I) {
    int64_t Full = 0, Fb = 0;
    for (const ir::Function *F : SCCs[I].Members) {
      // The plan is keyed on PlanRel, not on this run's analysis slice:
      // functions outside the planning set contribute nothing (relevance
      // is SCC-uniform: one member relevant means all are). With the CLI's
      // mode-independent planning spec, PlanRel is the same union-relevant
      // set under --demand=on and off, so the plan — and the pre-degraded
      // SCC set — is identical across modes, runs and job counts.
      if (!PlanRel.relevant(F))
        continue;
      int64_t Stmts = static_cast<int64_t>(countStmts(*F));
      Full += FnBaseBytes + Stmts * FullBytesPerStmt;
      Fb += FnBaseBytes / 4 + Stmts * FallbackBytesPerStmt;
    }
    Est[I] = Full;
    Fallback[I] = Fb;
    Total += Full;
  }

  // Soft threshold at 80% of the budget leaves headroom for everything the
  // model does not see (expression arena, checker state). Degrade the
  // largest projected SCC first — one big SCC displaced buys the most
  // relief — with ties broken towards the smaller id for determinism.
  const int64_t Soft = BudgetMB * 1024 * 1024 * 8 / 10;
  MemPlanDegrade.assign(SCCs.size(), 0);
  while (Total > Soft) {
    size_t Best = SCCs.size();
    // Est == 0 marks plan-irrelevant SCCs: degrading one frees nothing, so
    // they are never selected (and could otherwise spin this loop).
    for (size_t I = 0; I < SCCs.size(); ++I)
      if (!MemPlanDegrade[I] && Est[I] > 0 &&
          (Best == SCCs.size() || Est[I] > Est[Best]))
        Best = I;
    if (Best == SCCs.size())
      break; // Everything degraded; the plan can do no more.
    MemPlanDegrade[Best] = 1;
    ++MemPlanDegraded;
    Total -= Est[Best] - Fallback[Best];
  }
  if (MemPlanDegraded == 0)
    MemPlanDegrade.clear();
}

AnalyzedModule::AnalyzedModule(ir::Module &M, smt::ExprContext &Ctx,
                               const PipelineOptions &Opts)
    : M(M), Ctx(Ctx), Syms(M, Ctx) {
  ResourceGovernor &Gov =
      Opts.Governor ? *Opts.Governor : ResourceGovernor::ungoverned();

  // SSA first for every function — the call graph and rewriting do not
  // change CFG shape, and rewriting emits SSA-compatible fresh variables.
  auto SSAStart = std::chrono::steady_clock::now();
  for (ir::Function *F : M.functions()) {
    F->recomputeCFGEdges();
    ir::constructSSA(*F);
  }
  Phases.SSA = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             SSAStart)
                   .count();

  CG = std::make_unique<ir::CallGraph>(M);
  const std::vector<ir::CallGraph::SCCNode> &SCCs = CG->sccs();

  // Pre-create every function's result slot and interface slot so the
  // parallel schedule mutates fixed storage, never a growing map.
  transform::InterfaceMap Interfaces(M.functions().size());
  Fns.resize(M.functions().size());

  SCCOwnTaint.assign(SCCs.size(), 0);
  SCCTaint.assign(SCCs.size(), 0);
  Cache = Opts.Cache;
  std::vector<uint64_t> FnFP;
  if (Cache) {
    // Transitive content keys over the condensation. SCC ids are
    // topological (callee < caller), so one ascending pass sees every
    // callee key before it is consumed. The key covers everything a cached
    // artifact can depend on: analysis knobs, the post-SSA fingerprints of
    // every member, and the callee SCCs' transitive keys (a change
    // anywhere below invalidates the whole caller chain).
    Hasher ConfigH;
    ConfigH.u8(Opts.UseLinearFilter ? 1 : 0);
    ConfigH.u64(static_cast<uint64_t>(Gov.budget().MaxPTASteps));
    ConfigH.u64(static_cast<uint64_t>(Gov.budget().MaxFunctionStmts));
    uint64_t ConfigKey = ConfigH.digest();

    // One fingerprint sweep feeds the SCC keys and the relevance entry's
    // per-function records.
    FnFP = ir::fingerprintModule(M);

    SCCKeys.resize(SCCs.size());
    for (size_t I = 0; I < SCCs.size(); ++I) {
      Hasher H;
      H.u64(ConfigKey);
      for (const ir::Function *F : SCCs[I].Members)
        H.u64(FnFP[F->id()]);
      for (size_t Callee : SCCs[I].CalleeSCCs)
        H.u64(SCCKeys[Callee]);
      SCCKeys[I] = H.digest();
    }
  }

  // Demand relevance pre-pass: runs on the post-SSA call graph, before any
  // summary work, so skipped functions pay only their part of the graph
  // walk. The set is a pure function of the subject and the checker union,
  // independent of job count and cache state. With a cache directory, the
  // per-function seeds persist in the relevance entry: a warm run scans
  // only the functions the entry does not match (DESIGN.md section 15).
  if (Opts.Demand) {
    DemandOn = true;
    auto PrepassStart = std::chrono::steady_clock::now();
    const DemandSpec &Spec = *Opts.Demand;
    Counters &C = Counters::get();
    RefreshMode = "cold";
    std::optional<SeedTable> Seeds;
    bool Store = Cache != nullptr;
    StoredSeeds Prev;
    switch (Cache ? loadRelevanceSeeds(*Cache, Spec, Prev)
                  : SummaryCache::LoadStatus::Missing) {
    case SummaryCache::LoadStatus::Ok: {
      // Diff by (name, fingerprint): only new and edited functions are
      // scanned. Nothing dirty and nothing deleted replays the entry as is.
      SeedRefresh R = refreshSeeds(*CG, Spec, Prev, FnFP);
      DirtyFns = R.DirtyFns;
      if (R.DirtyFns == 0 && !R.Deleted) {
        RefreshMode = "replay";
        C.add("demand.relevance-replayed", 1);
        Store = false;
      } else {
        RefreshMode = "local";
        C.add("demand.relevance-stale", 1);
      }
      C.add("demand.prepass-fns", static_cast<int64_t>(R.DirtyFns));
      C.add("demand.dirty-fns", static_cast<int64_t>(R.DirtyFns));
      Seeds = std::move(R.Seeds);
      break;
    }
    case SummaryCache::LoadStatus::Stale:
      // Another checker set: its seed rows are not ours.
      C.add("demand.relevance-stale", 1);
      RefreshMode = "full";
      break;
    case SummaryCache::LoadStatus::Corrupt:
      Gov.note(DegradationKind::CacheCorrupt, "demand", "",
               "relevance entry unreadable; recomputing pre-pass");
      C.add("cache.corrupt", 1);
      RefreshMode = "full";
      break;
    case SummaryCache::LoadStatus::Missing:
      break;
    }
    if (!Seeds) {
      Seeds = scanSeeds(*CG, Spec);
      // Pre-pass cost proxy: functions scanned for seeds. Zero on a warm
      // replay — the CI smoke greps exactly that.
      C.add("demand.prepass-fns", static_cast<int64_t>(M.functions().size()));
    }
    if (Store && storeRelevanceSeeds(*Cache, Spec, *CG, *Seeds, FnFP))
      C.add("demand.relevance-stored", 1);
    RelevanceArtifact A = relevanceFromSeeds(*CG, Spec, *Seeds);
    Rel = std::move(A.Union);
    PerChecker = std::move(A.PerChecker);
    for (const ir::Function *F : CG->bottomUpOrder())
      Rel.relevant(F) ? ++RelevantFns : ++SkippedFns;
    Phases.Prepass = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - PrepassStart)
                         .count();
  }

  // Resolve the set the memory plan is keyed on (only consulted when a
  // budget is set). An explicit PlanDemand decouples the plan from the
  // analysis mode; without one the plan follows the analysis slice, which
  // is the historical library behaviour.
  if (Gov.budget().MemBudgetMB > 0) {
    if (Opts.PlanDemand) {
      if (DemandOn && Opts.PlanDemand == Opts.Demand)
        PlanRel = Rel;
      else
        PlanRel = computeRelevance(*CG, M, *Opts.PlanDemand);
    } else if (DemandOn) {
      PlanRel = Rel;
    }
  }

  planMemoryPressure(SCCs, Gov);

  // Demand skip: the relevance pre-pass proved no enabled checker can need
  // these SCCs (relevance is SCC-uniform). They run no task at all — no
  // pacing, no budget gates, no cache probe or store, no degradation note;
  // their slots are filled here, serially. Their interface slots stay
  // empty, which is safe because relevance is callee-closed: no relevant
  // SCC calls, waits on or reads the interface of a skipped one.
  std::vector<uint8_t> Live(SCCs.size(), 1);
  for (size_t I = 0; I < SCCs.size(); ++I) {
    if (!DemandOn || Rel.relevant(SCCs[I].Members[0]))
      continue;
    Live[I] = 0;
    for (ir::Function *F : SCCs[I].Members) {
      Fns[F->id()].F = F;
      Fns[F->id()].Skipped = true;
    }
  }

  RunState RS;
  SCCCostUs.assign(SCCs.size(), 0);
  std::atomic<size_t> ResumedSCCs{0};

  // Analyses SCC I's members in order, then records its cost and taint.
  // Callee taints were finalised by callee SCCs, which all completed
  // before I started (in parallel, the dependency decrement below is the
  // acquire/release edge), so the plain reads are ordered.
  auto AnalyzeSCC = [&](size_t I) {
    bool CalleeTainted = false;
    for (size_t Callee : SCCs[I].CalleeSCCs)
      CalleeTainted |= SCCTaint[Callee] != 0;
    auto T0 = std::chrono::steady_clock::now();
    bool AllReplayed = true;
    for (ir::Function *F : SCCs[I].Members)
      AllReplayed &= analyzeOne(F, I, CalleeTainted, Gov, Opts, Interfaces, RS);
    SCCCostUs[I] = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - T0)
                   .count()));
    SCCTaint[I] = (SCCOwnTaint[I] || CalleeTainted) ? 1 : 0;
    if (AllReplayed)
      ResumedSCCs.fetch_add(1, std::memory_order_relaxed);
  };

  if (!Opts.Pool || Opts.Pool->workers() <= 1) {
    // Serial: ascending SCC ids with members in order is exactly the
    // historical `bottomUpOrder()` loop (ids are Tarjan completion order),
    // plus the per-SCC taint bookkeeping the cache needs.
    for (size_t I = 0; I < SCCs.size(); ++I)
      if (Live[I])
        AnalyzeSCC(I);
    Resumed = ResumedSCCs.load();
    return;
  }

  // Parallel: walk the live part of the call-graph condensation as a DAG.
  // Each live SCC is one task; finishing a task decrements its dependents'
  // counts and spawns the newly-ready ones, so independent call-tree
  // branches overlap while every caller still starts after all its callees.
  std::vector<std::atomic<size_t>> DepsLeft(SCCs.size());
  std::vector<std::vector<size_t>> Dependents(SCCs.size());
  for (size_t I = 0; I < SCCs.size(); ++I) {
    if (!Live[I])
      continue;
    DepsLeft[I].store(SCCs[I].CalleeSCCs.size(), std::memory_order_relaxed);
    for (size_t Callee : SCCs[I].CalleeSCCs) {
      assert(Live[Callee] && "relevance is callee-closed");
      Dependents[Callee].push_back(I);
    }
  }

  ThreadPool::TaskGroup G(*Opts.Pool);
  std::function<void(size_t)> RunSCC = [&](size_t I) {
    AnalyzeSCC(I);
    for (size_t Dep : Dependents[I])
      // acq_rel: publishes this SCC's interfaces/results to whichever task
      // performs the final decrement and runs the dependent.
      if (DepsLeft[Dep].fetch_sub(1, std::memory_order_acq_rel) == 1)
        G.spawn([&RunSCC, Dep] { RunSCC(Dep); });
  };
  // Roots are identified structurally (no cross-SCC callees), never by
  // reading DepsLeft: a fast leaf task finishing mid-loop drops a
  // dependent's counter to zero and spawns it via fetch_sub, and a
  // counter-based root scan racing with that would spawn the same SCC a
  // second time (two pipelines mutating one function's IR).
  for (size_t I = 0; I < SCCs.size(); ++I)
    if (Live[I] && SCCs[I].CalleeSCCs.empty())
      G.spawn([&RunSCC, I] { RunSCC(I); });

  G.wait();
  Resumed = ResumedSCCs.load();
}

size_t AnalyzedModule::totalSEGEdges() const {
  size_t N = 0;
  for (const AnalyzedFunction &Info : Fns)
    if (Info.Seg)
      N += Info.Seg->numEdges();
  return N;
}

size_t AnalyzedModule::totalSEGVertices() const {
  size_t N = 0;
  for (const AnalyzedFunction &Info : Fns)
    if (Info.Seg)
      N += Info.Seg->numVertices();
  return N;
}

} // namespace pinpoint::svfa
