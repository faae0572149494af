//===- svfa/GlobalSVFA.h - Demand-driven global value-flow analysis -------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compositional bug-detection stage of paper Section 3.3. Functions
/// are visited bottom-up; for each, the engine
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
///  * records this function's own VF1-VF4 and RV summaries for its callers.
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

#include <atomic>
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
  /// Demand-driven mode: skip summary construction for functions the
  /// relevance pre-pass (svfa/Demand.h) proves irrelevant to this
  /// checker. The engine computes its own per-checker relevance set (a
  /// subset of the pipeline's union set), so results are byte-identical
  /// to the exhaustive run either way. Off by default for library users;
  /// the CLI defaults it on.
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

  /// Live counters. The fields are atomics so an observer thread can poll
  /// `stats()` while `run()` is in flight (progress reporting) without a
  /// data race; copying takes a relaxed per-field snapshot.
  struct Stats {
    std::atomic<uint64_t> Events{0};
    std::atomic<uint64_t> Candidates{0};
    std::atomic<uint64_t> SolverSat{0};
    std::atomic<uint64_t> SolverUnsat{0};
    /// Candidates whose verdict came back Unknown (kept, tagged).
    std::atomic<uint64_t> SolverUnknown{0};
    std::atomic<uint64_t> VF1{0}, VF2{0}, VF3{0}, VF4{0};
    std::atomic<uint64_t> ClosureSteps{0};
    /// Flows/candidates killed inline by the linear-time filter.
    std::atomic<uint64_t> LinearPruned{0};
    /// Functions whose analysis threw and was isolated (skipped).
    std::atomic<uint64_t> IsolatedFailures{0};

    Stats() = default;
    Stats(const Stats &O) { *this = O; }
    Stats &operator=(const Stats &O) {
      if (this != &O) {
        auto Snap = [](const std::atomic<uint64_t> &A) {
          return A.load(std::memory_order_relaxed);
        };
        Events = Snap(O.Events);
        Candidates = Snap(O.Candidates);
        SolverSat = Snap(O.SolverSat);
        SolverUnsat = Snap(O.SolverUnsat);
        SolverUnknown = Snap(O.SolverUnknown);
        VF1 = Snap(O.VF1);
        VF2 = Snap(O.VF2);
        VF3 = Snap(O.VF3);
        VF4 = Snap(O.VF4);
        ClosureSteps = Snap(O.ClosureSteps);
        LinearPruned = Snap(O.LinearPruned);
        IsolatedFailures = Snap(O.IsolatedFailures);
      }
      return *this;
    }
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
