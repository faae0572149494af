//===- smt/Solver.cpp ------------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "smt/Solver.h"
#include "support/ResourceGovernor.h"

#include <exception>
#include <string>

namespace pinpoint::smt {

SatResult StagedSolver::checkSat(const Expr *E) {
  ++S.Queries;
  if (E->isTrue())
    return SatResult::Sat;
  if (UseLinearFilter && Linear.isObviouslyUnsat(E)) {
    ++S.LinearUnsat;
    return SatResult::Unsat;
  }
  ++S.BackendQueries;
  SatResult R = discharge(E);
  if (R == SatResult::Unsat)
    ++S.BackendUnsat;
  if (R == SatResult::Unknown)
    ++S.BackendUnknown;
  return R;
}

SatResult StagedSolver::discharge(const Expr *E) {
  ++S.BackendCalls;
  if (Gov && Gov->faults().injectSolverUnknown()) {
    ++S.InjectedUnknown;
    Gov->note(DegradationKind::InjectedFault, "smt", Origin,
              "forced solver unknown");
    return SatResult::Unknown;
  }

  // A backend that throws gives up on this one query, as a timeout does:
  // the answer is Unknown, so the report is kept (DESIGN.md section 8).
  SatResult R = SatResult::Unknown;
  try {
    R = Backend->checkSat(E);
  } catch (const std::exception &Ex) {
    if (Gov)
      Gov->note(DegradationKind::SolverUnknown, "smt", Origin,
                std::string(Backend->name()) + " threw: " + Ex.what());
    return SatResult::Unknown;
  }
  if (R == SatResult::Unknown && Gov)
    Gov->note(DegradationKind::SolverUnknown, "smt", Origin,
              std::string(Backend->name()) + " gave up (timeout/steps)");
  return R;
}

std::unique_ptr<Solver> createDefaultSolver(ExprContext &Ctx,
                                            const SolverConfig &Cfg) {
  if (auto Z3 = createZ3Solver(Ctx, Cfg))
    return Z3;
  return createMiniSolver(Ctx, Cfg);
}

} // namespace pinpoint::smt
