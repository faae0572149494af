//===- svfa/GlobalSVFA.h - Demand-driven global value-flow analysis -------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compositional bug-detection stage of paper Section 3.3. Functions
/// are swept bottom-up; at each function's turn the engine
///
///  * collects *source events* — checker sources created locally (e.g. the
///    argument of free()) or surfaced from callees via VF2/VF3 summaries;
///  * computes the conditional *value closure* of each event (all SSA
///    values holding the source value, connected through SEG flow edges and
///    callee VF1 summaries), pruning contradictory conditions with the
///    linear-time solver;
///  * matches closure values against sink uses (locally or via callee VF4
///    summaries), producing candidates whose full path condition —
///    Equation (1) locally, Equations (2)/(3) across calls via
///    context-cloned instantiation — is finally discharged by the staged
///    SMT solver;
///  * records this function's VF2 summary (source values escaping through
///    its return bundle) for its callers; RV summaries are read straight
///    from the SEG when a constraint is assembled.
///
/// The parameter summaries VF1, VF3 and VF4 are built on first use: the
/// first closure, VF4 composition or event collection that reads them for
/// a callee builds that callee's not-yet-built callee cone, iteratively,
/// over the call-graph condensation in ascending SCC id (callees first).
/// A callee's VF3 is read only if its cone calls a source-argument
/// function (free()), so checkers without such sources never force it. A
/// summary no event reaches is never built; one that is built is the
/// summary an eager bottom-up build would have produced.
///
/// Temporal checkers (use-after-free) additionally require the sink to be
/// CFG-reachable from the source event.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SVFA_GLOBALSVFA_H
#define PINPOINT_SVFA_GLOBALSVFA_H

#include "checkers/Checker.h"
#include "smt/Solver.h"
#include "svfa/Context.h"
#include "svfa/Pipeline.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pinpoint {
class ResourceGovernor;
class ThreadPool;
}

namespace pinpoint::svfa {

/// A bug report.
struct Report {
  std::string Checker;
  std::string SourceFn;          ///< Function containing the source event.
  SourceLoc Source;              ///< The source statement (e.g. free site).
  SourceLoc Sink;                ///< The sink statement (e.g. deref site).
  std::string SinkFn;
  std::vector<std::string> Path; ///< Human-readable value-flow steps.
  /// Sat: the SMT stage confirmed the path condition (or path sensitivity
  /// is off). Unknown: the solver gave up — the report is kept soundily but
  /// tagged so consumers can rank it below confirmed findings.
  smt::SatResult Verdict = smt::SatResult::Sat;
};

struct GlobalOptions {
  int MaxContextDepth = 6; ///< Nested calling contexts (paper Section 5.1).
  /// Path-sensitive mode: discharge candidates with the SMT stage. When
  /// false the engine reports every candidate (the SVF-like ablation).
  bool PathSensitive = true;
  /// Linear pre-filter in the staged solver (ablation knob).
  bool UseLinearFilter = true;
  /// Demand-driven mode: skip the sweep turn of functions the relevance
  /// pre-pass (svfa/Demand.h) proves irrelevant to this checker. The
  /// engine computes its own per-checker relevance set (a subset of the
  /// pipeline's union set); relevance is callee-closed and parameter
  /// summaries are built on first use in both modes, so results are
  /// byte-identical to the exhaustive run either way. Off by default for
  /// library users; the CLI defaults it on.
  bool Demand = false;
  /// Budgets, degradation log and fault injection (see
  /// support/ResourceGovernor.h); nullptr = ungoverned.
  ResourceGovernor *Governor = nullptr;
  /// Worker pool for the per-SCC pipeline that `checkModule()` builds. The
  /// engine itself does not read it: it generates candidates serially
  /// (summaries are order-dependent) and decides each one inline with its
  /// single staged solver.
  ThreadPool *Pool = nullptr;
};

class GlobalSVFA {
public:
  GlobalSVFA(AnalyzedModule &AM, const checkers::CheckerSpec &Spec,
             GlobalOptions Opts = {});
  ~GlobalSVFA();

  /// Runs the analysis and returns the surviving reports.
  std::vector<Report> run();

  /// Counters of one run. Read them after `run()` returns.
  struct Stats {
    uint64_t Events = 0;
    uint64_t Candidates = 0;
    uint64_t SolverSat = 0;
    uint64_t SolverUnsat = 0;
    /// Candidates whose verdict came back Unknown (kept, tagged).
    uint64_t SolverUnknown = 0;
    uint64_t VF1 = 0, VF2 = 0, VF3 = 0, VF4 = 0;
    uint64_t ClosureSteps = 0;
    /// Flows/candidates killed inline by the linear-time filter.
    uint64_t LinearPruned = 0;
    /// Functions whose analysis threw and was isolated (skipped).
    uint64_t IsolatedFailures = 0;
  };
  const Stats &stats() const { return S; }
  const smt::StagedSolver::Stats &solverStats() const;

private:
  class Impl;
  std::unique_ptr<Impl> P;
  Stats S;
};

/// Convenience: runs one checker over parsed source text. Used by the
/// examples and tests.
std::vector<Report> checkModule(ir::Module &M, smt::ExprContext &Ctx,
                                const checkers::CheckerSpec &Spec,
                                GlobalOptions Opts = {});

} // namespace pinpoint::svfa

#endif // PINPOINT_SVFA_GLOBALSVFA_H
