//===- smt/Solver.h - SMT backend interface & staged solving --------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Satisfiability backends. The paper implements Pinpoint on Z3; this repo
/// provides the same (when libz3 is present) plus a self-contained
/// DPLL+theory "MiniSolver" so the system runs everywhere and the linear
/// filter can be ablated independently of the backend.
///
/// `StagedSolver` is the paper's two-stage pipeline: the linear-time filter
/// of Section 3.1.1 first, the full SMT solver only for conditions the
/// filter cannot refute. It keeps the counters the ablation benchmark
/// (bench/ablation_linear_solver) reports.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SMT_SOLVER_H
#define PINPOINT_SMT_SOLVER_H

#include "smt/Expr.h"
#include "smt/LinearSolver.h"

#include <cstdint>
#include <memory>
#include <string>

namespace pinpoint {
class ResourceGovernor;
}

namespace pinpoint::smt {

enum class SatResult { Sat, Unsat, Unknown };

inline const char *toString(SatResult R) {
  switch (R) {
  case SatResult::Sat:
    return "sat";
  case SatResult::Unsat:
    return "unsat";
  default:
    return "unknown";
  }
}

/// Abstract satisfiability backend for boolean Exprs.
class Solver {
public:
  virtual ~Solver() = default;
  /// Decides satisfiability of the boolean formula \p E. Unknown means the
  /// backend gave up (timeout / step budget); callers treat it soundily.
  virtual SatResult checkSat(const Expr *E) = 0;
  virtual const char *name() const = 0;
};

/// Per-query resource limits for a backend.
struct SolverConfig {
  int TimeoutMs = 10000;         ///< Wall-clock timeout (Z3).
  uint64_t MaxSteps = 2'000'000; ///< DPLL step budget (MiniSolver).
};

/// Creates a Z3-backed solver, or nullptr when built without Z3.
std::unique_ptr<Solver> createZ3Solver(ExprContext &Ctx,
                                       const SolverConfig &Cfg = {});

/// Creates the built-in DPLL + (equality/difference-bounds) theory solver.
/// Sound for UNSAT; may answer Sat for theory fragments it cannot refute
/// (the soundy choice for a bug finder) and Unknown past its step budget.
std::unique_ptr<Solver> createMiniSolver(ExprContext &Ctx,
                                         const SolverConfig &Cfg = {});

/// Z3 if available, MiniSolver otherwise.
std::unique_ptr<Solver> createDefaultSolver(ExprContext &Ctx,
                                            const SolverConfig &Cfg = {});

/// The paper's two-stage solving discipline: linear-time filter, then a full
/// backend for whatever survives.
class StagedSolver : public Solver {
public:
  /// \p Gov, when given, receives a degradation event for every Unknown
  /// answer and drives fault injection of forced-Unknown queries.
  StagedSolver(ExprContext &Ctx, std::unique_ptr<Solver> Backend,
               bool UseLinearFilter = true, ResourceGovernor *Gov = nullptr)
      : Linear(Ctx), Backend(std::move(Backend)),
        UseLinearFilter(UseLinearFilter), Gov(Gov) {}

  SatResult checkSat(const Expr *E) override;
  const char *name() const override { return "staged"; }

  /// Tags subsequent queries with the function they originate from, so
  /// degradation events carry the function name. One StagedSolver instance
  /// is single-thread-owned (each checker's engine owns one and decides its
  /// candidates inline), so a plain member suffices.
  void setQueryOrigin(std::string Fn) { Origin = std::move(Fn); }

  /// Statistics for the ablation study, counted per query. Each engine
  /// asks its queries in generation order on one solver, so the counts do
  /// not depend on the job count (short of partial-rate fault injection,
  /// whose draws concurrently running checkers share).
  struct Stats {
    uint64_t Queries = 0;        ///< Total checkSat calls.
    uint64_t LinearUnsat = 0;    ///< Refuted by the linear filter alone.
    uint64_t BackendQueries = 0; ///< Fell through to the backend stage.
    uint64_t BackendUnsat = 0;   ///< Backend-stage queries found unsat.
    uint64_t BackendUnknown = 0; ///< Backend-stage unknowns (incl. injected).
    uint64_t InjectedUnknown = 0; ///< Unknowns forced by fault injection.
    /// Backend-stage discharges; always equal to BackendQueries. Kept only
    /// for the end-to-end benchmark's `smt.backend_calls` field.
    uint64_t BackendCalls = 0;
    /// Always 0 (there is no verdict cache). Kept only for the end-to-end
    /// benchmark's `smt.cache_hits` field.
    uint64_t CacheHits = 0;
    // Resilience layer (DESIGN.md section 12).
    uint64_t Retries = 0; ///< Backend attempts repeated after a transient.
    uint64_t TransientFailures = 0; ///< Calls degraded: retries exhausted.
  };
  const Stats &stats() const { return S; }

private:
  /// Backend stage for one fall-through query (fault injection, transient
  /// retry, degradation notes).
  SatResult discharge(const Expr *E);

  LinearSolver Linear;
  std::unique_ptr<Solver> Backend;
  bool UseLinearFilter;
  ResourceGovernor *Gov;
  std::string Origin; ///< Function the current query is discharged for.
  Stats S;
};

} // namespace pinpoint::smt

#endif // PINPOINT_SMT_SOLVER_H
