//===- support/ResourceGovernor.h - Budgets & graceful degradation --------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resource-governance layer the paper relies on to survive million-LoC
/// inputs (Section 5: SMT timeouts treated soundily, a global wall clock,
/// bounded context depth). A `ResourceGovernor` carries
///
///  * a `Budget` — wall clock for the whole run and per function, step
///    budgets for the value-closure walk and the local points-to pass, the
///    per-query SMT timeout, and a size cap on analysed functions;
///  * a `DegradationLog` — every budget hit, solver Unknown, isolated
///    failure or injected fault is recorded as a structured event with a
///    per-kind count (the `[governor]` stats line), so a degraded run says
///    exactly *what* was given up;
///  * a `FaultInjector` — deterministic forcing of the degradation paths.
///
/// The contract across the pipeline: exceeding a budget never aborts the
/// analysis. Stages truncate or skip the offending unit, log the event, and
/// keep producing best-effort results; SMT Unknown degrades to the soundy
/// "keep the report, tagged Unknown" verdict.
///
/// Stages take a `ResourceGovernor *`; passing nullptr means "ungoverned"
/// and stages then fall back to a process-wide unlimited instance.
///
/// One governor is shared by every task of a `--jobs N` run: `note` and the
/// fault injector are internally locked, the degradation counters are
/// atomic, and the per-function/per-closure budget clocks live in
/// thread-local slots (each worker analyses one unit at a time).
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SUPPORT_RESOURCEGOVERNOR_H
#define PINPOINT_SUPPORT_RESOURCEGOVERNOR_H

#include "support/FaultInjector.h"
#include "support/Interrupt.h"
#include "support/Timer.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pinpoint {

/// Resource limits for one analysis run. Negative wall-clock values and
/// zero step values mean "unlimited".
struct Budget {
  int64_t RunWallMs = -1;      ///< Whole-run wall clock (paper: 12 hours).
  int64_t FunctionWallMs = -1; ///< Per-function wall clock (global SVFA).
  uint64_t MaxClosureSteps = 0; ///< Per value-closure walk.
  uint64_t MaxPTASteps = 0;     ///< Per local points-to pass (statements).
  int SolverTimeoutMs = 10000;  ///< Per Z3 query, in ms (<= 0: no limit).
  size_t MaxFunctionStmts = 0;  ///< Oversized-function pipeline skip.
  /// Governed-memory budget in MB (0 = unlimited). Crossing the modelled
  /// soft threshold pre-degrades the largest SCCs deterministically
  /// (svfa/Pipeline.cpp); crossing the hard threshold at run time degrades
  /// remaining work reactively (DESIGN.md section 12).
  int64_t MemBudgetMB = 0;
  /// Max retries per transient SMT-backend failure (smt/Solver.cpp).
  int RetryTransient = 2;
};

enum class DegradationKind : uint8_t {
  SolverUnknown = 0,    ///< SMT backend answered Unknown (timeout/step cap).
  ClosureTruncated,     ///< Value-closure walk hit its step budget.
  PTATruncated,         ///< Local points-to pass hit its step budget.
  FunctionOversized,    ///< Function skipped: exceeds MaxFunctionStmts.
  FunctionBudgetExceeded, ///< Per-function wall clock expired.
  FunctionFailed,       ///< Exception isolated to one function's analysis.
  FunctionSkipped,      ///< Function skipped for a non-size reason.
  CheckerFailed,        ///< Exception isolated to one checker's run.
  RunBudgetExhausted,   ///< Whole-run wall clock expired.
  InjectedFault,        ///< A FaultInjector-forced event fired.
  CacheCorrupt,         ///< Summary-cache entry failed integrity checks.
  MemoryPressure,       ///< SCC degraded to fit the governed-memory budget.
  Cancelled,            ///< Remaining work dropped: cancellation requested.
  SolverTransient,      ///< Transient backend failure persisted past retries.
  NumKinds
};

const char *toString(DegradationKind K);

/// One structured degradation event. Events carry the function they
/// degraded in explicitly — under `--jobs N` the emission order is a race,
/// so attribution can never rely on "the function currently being analysed".
struct DegradationEvent {
  DegradationKind Kind;
  std::string Stage;    ///< "pipeline", "svfa", "closure", "smt", "checker:uaf".
  std::string Function; ///< Function the event degraded in; "" if run-level.
  std::string Detail;   ///< Step counts, exception text, query origin, ...
};

/// Append-only record of everything a run gave up. Event storage is capped;
/// per-kind counters are exact past the cap. Thread-safe: `note` may be
/// called concurrently from pool tasks; counters are atomic and the event
/// vector is mutex-guarded, so `events()` returns a snapshot copy.
class DegradationLog {
public:
  void note(DegradationKind K, std::string Stage, std::string Function,
            std::string Detail);

  std::vector<DegradationEvent> events() const {
    std::lock_guard<std::mutex> L(Mu);
    return Events;
  }
  uint64_t count(DegradationKind K) const {
    return Counts[static_cast<size_t>(K)].load(std::memory_order_relaxed);
  }
  uint64_t total() const;
  /// One-line "kind=count ..." summary of the nonzero counters.
  std::string summary() const;

private:
  static constexpr size_t MaxStoredEvents = 4096;
  mutable std::mutex Mu; ///< Guards Events.
  std::vector<DegradationEvent> Events;
  std::array<std::atomic<uint64_t>,
             static_cast<size_t>(DegradationKind::NumKinds)>
      Counts{};
};

class ResourceGovernor {
public:
  explicit ResourceGovernor(Budget B = {}, FaultInjector FI = {})
      : B(B), FI(std::move(FI)) {}

  const Budget &budget() const { return B; }
  FaultInjector &faults() { return FI; }
  DegradationLog &log() { return Log; }
  const DegradationLog &log() const { return Log; }

  /// Records a degradation event in the log.
  /// \p Function names the function the event degraded in ("" = run-level).
  void note(DegradationKind K, std::string Stage, std::string Function,
            std::string Detail);

  bool degraded() const { return Log.total() > 0; }

  //===--- Run-level wall clock -------------------------------------------===

  /// Restarts the run clock. The constructor starts it too, so callers that
  /// build the governor right before analysing need not call this.
  void beginRun() { RunTimer.restart(); }
  bool runExpired() const {
    return B.RunWallMs >= 0 && RunTimer.millis() > (double)B.RunWallMs;
  }

  //===--- Cooperative cancellation ---------------------------------------===

  /// Attaches the cancellation token stages poll (nullptr detaches). The
  /// driver wires the process-wide signal token here; library callers may
  /// use their own. Not owned; must outlive the governed run.
  void setCancelToken(CancelToken *T) { Cancel = T; }
  CancelToken *cancelToken() const { return Cancel; }
  /// True once cancellation was requested; remaining work should degrade
  /// and unwind so partial results can be flushed.
  bool cancelled() const { return Cancel && Cancel->cancelled(); }

  //===--- Governed-memory budget -----------------------------------------===

  /// True when the live arena bytes (the MemStats ledger) exceed the hard
  /// memory budget. The reactive backstop behind the deterministic
  /// pre-degradation plan: actual usage is interleaving-dependent, so this
  /// fires only when the model under-estimated.
  bool memHardExceeded() const;

  //===--- Function-level wall clock --------------------------------------===
  //
  // The function clock and the closure step budget are *per task*: each
  // pool worker analyses one function (or runs one query) at a time, so
  // this state lives in a thread-local slot keyed by governor.
  // beginFunction/beginClosure re-arm it at the start of every unit, which
  // is what makes the single slot sufficient.

  void beginFunction() { threadState().FnTimer.restart(); }
  bool functionExpired() const {
    return B.FunctionWallMs >= 0 &&
           threadState().FnTimer.millis() > (double)B.FunctionWallMs;
  }

  //===--- Value-closure step budget --------------------------------------===

  /// Arms the per-walk step budget (fault-injected override wins).
  void beginClosure() {
    uint64_t Limit = FI.closureStepOverride() ? FI.closureStepOverride()
                                              : B.MaxClosureSteps;
    ThreadState &TS = threadState();
    TS.ClosureBounded = Limit > 0;
    TS.ClosureStepsLeft = Limit;
  }
  /// Charges one step of the current walk; false when exhausted.
  bool chargeClosureStep() {
    ThreadState &TS = threadState();
    if (!TS.ClosureBounded)
      return true;
    if (TS.ClosureStepsLeft == 0)
      return false;
    --TS.ClosureStepsLeft;
    return true;
  }

  int solverTimeoutMs() const { return B.SolverTimeoutMs; }

  /// The shared unlimited instance stages fall back to when no governor is
  /// supplied. Its log still accumulates (useful for ungoverned CLI runs).
  static ResourceGovernor &ungoverned();

private:
  /// Per-thread budget state. One slot per thread is enough because a
  /// thread works under one governor at a time and every unit of work
  /// re-arms its budgets on entry; a governor switch just resets the slot.
  struct ThreadState {
    const ResourceGovernor *Owner = nullptr;
    Timer FnTimer;
    uint64_t ClosureStepsLeft = 0;
    bool ClosureBounded = false;
  };
  ThreadState &threadState() const {
    static thread_local ThreadState TS;
    if (TS.Owner != this) {
      TS.Owner = this;
      TS.FnTimer.restart();
      TS.ClosureStepsLeft = 0;
      TS.ClosureBounded = false;
    }
    return TS;
  }

  Budget B;
  FaultInjector FI;
  DegradationLog Log;
  Timer RunTimer;
  CancelToken *Cancel = nullptr;
};

} // namespace pinpoint

#endif // PINPOINT_SUPPORT_RESOURCEGOVERNOR_H
