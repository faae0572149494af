//===- smt/Solver.cpp ------------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "smt/Solver.h"
#include "support/ResourceGovernor.h"

#include <algorithm>
#include <chrono>
#include <thread>

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

  // Bounded transient retry (DESIGN.md section 12): a backend exception or
  // an injected transient is retried up to the governed budget with capped
  // backoff, so one flaky call no longer downgrades a verdict to Unknown.
  // Definite answers and ordinary Unknowns (timeout/step cap — the backend
  // *answered*) are never retried.
  const int MaxRetries = Gov ? Gov->budget().RetryTransient : 0;
  for (int Attempt = 0;; ++Attempt) {
    bool Transient = false;
    SatResult R = SatResult::Unknown;
    if (Gov && Gov->faults().injectSolverTransient(Attempt)) {
      Transient = true;
    } else {
      try {
        R = Backend->checkSat(E);
      } catch (const std::exception &) {
        Transient = true;
      }
    }
    if (!Transient) {
      if (R == SatResult::Unknown && Gov)
        Gov->note(DegradationKind::SolverUnknown, "smt", Origin,
                  std::string(Backend->name()) + " gave up (timeout/steps)");
      return R;
    }
    if (Attempt >= MaxRetries || (Gov && Gov->cancelled())) {
      ++S.TransientFailures;
      if (Gov)
        Gov->note(DegradationKind::SolverTransient, "smt", Origin,
                  "transient backend failure persisted after " +
                      std::to_string(Attempt + 1) + " attempt(s)");
      return SatResult::Unknown;
    }
    ++S.Retries;
    // Capped exponential backoff: 1, 2, 4, 8, then 16 ms per further retry.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min<long>(1L << std::min(Attempt, 4),
                                                 16L)));
  }
}

std::unique_ptr<Solver> createDefaultSolver(ExprContext &Ctx,
                                            const SolverConfig &Cfg) {
  if (auto Z3 = createZ3Solver(Ctx, Cfg))
    return Z3;
  return createMiniSolver(Ctx, Cfg);
}

} // namespace pinpoint::smt
