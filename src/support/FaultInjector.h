//===- support/FaultInjector.h - Deterministic fault injection ------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic fault-injection harness for exercising the pipeline's
/// degradation paths (`--fault-inject=spec`). Faults are seeded through the
/// repo's SplitMix64 RNG so a given spec reproduces the exact same failure
/// pattern on every run and platform — degradation behaviour is testable,
/// not just observable in production.
///
/// Spec grammar: comma-separated `key=value` items.
///
///   seed=N                RNG seed for probabilistic faults (default 1)
///   solver-unknown=P      degrade each SMT backend query to Unknown with
///                         probability P percent (0-100)
///   throw-fn=NAME         throw while the global SVFA analyses NAME
///   pipeline-throw-fn=NAME  throw in NAME's per-function pipeline stage
///   throw-checker=NAME    throw at the start of checker NAME's run
///   closure-steps=N       override the value-closure step budget to N
///                         (forces walk truncation)
///   cache-read=NAME       treat NAME's summary-cache entry as corrupt on
///                         read (exercises the fallback-to-rebuild path)
///   transient=P           fail each SMT backend *attempt* transiently with
///                         probability P percent (0-100); the staged solver
///                         retries with capped backoff (--retry-transient)
///   transient-fails=K     deterministic variant: every backend call fails
///                         its first K attempts, then succeeds (takes
///                         precedence over transient=P when both are set)
///   pace-fn-ms=N          sleep N ms at each function's pipeline entry — a
///                         deterministic throttle so interrupt tests can
///                         reliably catch a run mid-flight
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SUPPORT_FAULTINJECTOR_H
#define PINPOINT_SUPPORT_FAULTINJECTOR_H

#include "support/RNG.h"

#include <cstdint>
#include <mutex>
#include <string>

namespace pinpoint {

class FaultInjector {
public:
  FaultInjector() : Rng(1) {}

  // The RNG mutex would otherwise delete the implicit copies; governor
  // construction takes the injector by value, so restore them by copying
  // every field except the (stateless-by-value) lock.
  FaultInjector(const FaultInjector &O)
      : Enabled(O.Enabled), Rng(O.Rng), SolverUnknownPct(O.SolverUnknownPct),
        TransientPct(O.TransientPct), TransientFails(O.TransientFails),
        PaceFnMs(O.PaceFnMs), ClosureSteps(O.ClosureSteps), ThrowFn(O.ThrowFn),
        PipelineThrowFn(O.PipelineThrowFn), ThrowChecker(O.ThrowChecker),
        CacheReadFn(O.CacheReadFn) {}
  FaultInjector &operator=(const FaultInjector &O) {
    Enabled = O.Enabled;
    Rng = O.Rng;
    SolverUnknownPct = O.SolverUnknownPct;
    TransientPct = O.TransientPct;
    TransientFails = O.TransientFails;
    PaceFnMs = O.PaceFnMs;
    ClosureSteps = O.ClosureSteps;
    ThrowFn = O.ThrowFn;
    PipelineThrowFn = O.PipelineThrowFn;
    ThrowChecker = O.ThrowChecker;
    CacheReadFn = O.CacheReadFn;
    return *this;
  }

  /// Parses \p Spec (see file comment). Returns false and fills \p Err on
  /// malformed input; the injector is left disabled in that case.
  bool parse(const std::string &Spec, std::string &Err);

  bool enabled() const { return Enabled; }

  /// True when the next SMT backend query should be degraded to Unknown.
  /// Advances the (internally locked) RNG stream. Each engine decides its
  /// candidates inline, so within one engine the draws follow candidate
  /// generation order at any `--jobs`. Only checkers that run concurrently
  /// (several checkers at `--jobs>1`) interleave their draws on the shared
  /// stream; there, only the rates 0 and 100 are deterministic.
  bool injectSolverUnknown() {
    if (!Enabled || SolverUnknownPct == 0)
      return false;
    std::lock_guard<std::mutex> L(Mu);
    return Rng.chance(SolverUnknownPct, 100);
  }

  /// True when backend attempt number \p Attempt (0-based, per call) of the
  /// current SMT discharge should fail transiently. `transient-fails=K`
  /// fails attempts 0..K-1 of every call deterministically; otherwise
  /// `transient=P` draws per attempt from the same stream, in the same
  /// order as injectSolverUnknown: generation order within one engine,
  /// interleaved only across concurrently running checkers.
  bool injectSolverTransient(int Attempt) {
    if (!Enabled)
      return false;
    if (TransientFails > 0)
      return static_cast<uint64_t>(Attempt) < TransientFails;
    if (TransientPct == 0)
      return false;
    std::lock_guard<std::mutex> L(Mu);
    return Rng.chance(TransientPct, 100);
  }

  /// Per-function pipeline pacing in ms (0 = none; interrupt-test throttle).
  uint64_t paceFunctionMs() const { return Enabled ? PaceFnMs : 0; }

  /// True when the global SVFA stage should throw while analysing \p Fn.
  bool injectFunctionThrow(const std::string &Fn) const {
    return Enabled && !ThrowFn.empty() && Fn == ThrowFn;
  }

  /// True when \p Fn's per-function pipeline stage should throw.
  bool injectPipelineThrow(const std::string &Fn) const {
    return Enabled && !PipelineThrowFn.empty() && Fn == PipelineThrowFn;
  }

  /// True when checker \p Name should throw at the start of its run.
  bool injectCheckerThrow(const std::string &Name) const {
    return Enabled && !ThrowChecker.empty() && Name == ThrowChecker;
  }

  /// True when \p Fn's summary-cache entry should read back as corrupt.
  bool injectCacheReadFault(const std::string &Fn) const {
    return Enabled && !CacheReadFn.empty() && Fn == CacheReadFn;
  }

  /// Value-closure step-budget override (0 = none).
  uint64_t closureStepOverride() const { return ClosureSteps; }

private:
  bool Enabled = false;
  std::mutex Mu; ///< Guards Rng; the other fields are immutable after parse().
  RNG Rng;
  uint64_t SolverUnknownPct = 0;
  uint64_t TransientPct = 0;
  uint64_t TransientFails = 0;
  uint64_t PaceFnMs = 0;
  uint64_t ClosureSteps = 0;
  std::string ThrowFn;
  std::string PipelineThrowFn;
  std::string ThrowChecker;
  std::string CacheReadFn;
};

} // namespace pinpoint

#endif // PINPOINT_SUPPORT_FAULTINJECTOR_H
