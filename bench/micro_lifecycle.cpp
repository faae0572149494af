//===- bench/micro_lifecycle.cpp - Run-lifecycle resilience overhead ------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cost model of the resilience layer (DESIGN.md section 12) on one medium
/// synthesized subject:
///
///  * governance overhead — end-to-end analysis time with no governor
///    features vs. with a (generous) `--mem-budget-mb`, i.e. the price of
///    the memory plan and the hard-threshold polls when nothing actually
///    degrades. One run takes a few tens of milliseconds, so each side is
///    repeated, alternating with the other, and the overhead compares the
///    medians;
///  * cancellation drain latency — wall time from `cancel()` on a paced
///    mid-flight parallel run until the pipeline unwinds and returns,
///    which bounds how stale a flushed partial report can be. The clock
///    stops when the `AnalyzedModule` constructor returns, before the
///    checker pass and the teardown; `cancel_landed` records that the
///    pipeline logged exactly one `cancelled` event, i.e. that the cancel
///    reached it mid-flight.
///
/// Phases over shared state (a single subject, a mid-run cancel), which
/// google-benchmark's repetition model would invalidate — a plain
/// standalone bench like micro_cache. Emits BENCH_lifecycle.json.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Interrupt.h"
#include "support/ResourceGovernor.h"
#include "support/ThreadPool.h"
#include "svfa/Pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

using namespace pinpoint;
using namespace pinpoint::bench;

namespace {

workload::WorkloadConfig subjectConfig(double Scale) {
  workload::WorkloadConfig Cfg;
  Cfg.Seed = 42;
  Cfg.TargetLoC = static_cast<size_t>(6000 * Scale);
  Cfg.FeasibleUAF = 6;
  Cfg.InfeasibleUAF = 4;
  Cfg.FeasibleTaint = 3;
  Cfg.AliasNoise = 4;
  Cfg.CallDepth = 4;
  return Cfg;
}

using Clock = std::chrono::steady_clock;

/// Full pipeline + UAF checker pass; returns wall seconds. \p PipelineDone,
/// when set, receives the moment the pipeline returned.
double analyzeOnce(const workload::Workload &W, ResourceGovernor &Gov,
                   ThreadPool *Pool, size_t *ReportsOut = nullptr,
                   Clock::time_point *PipelineDone = nullptr) {
  auto M = parseWorkload(W);
  smt::ExprContext Ctx;
  Timer T;
  svfa::PipelineOptions PO;
  PO.Governor = &Gov;
  PO.Pool = Pool;
  svfa::AnalyzedModule AM(*M, Ctx, PO);
  if (PipelineDone)
    *PipelineDone = Clock::now();
  svfa::GlobalOptions GO;
  GO.Governor = &Gov;
  GO.Pool = Pool;
  svfa::GlobalSVFA Engine(AM, checkers::useAfterFreeChecker(), GO);
  size_t N = Engine.run().size();
  if (ReportsOut)
    *ReportsOut = N;
  return T.seconds();
}

/// Lower quartile, median and upper quartile of \p Xs, interpolating
/// between ranks.
struct Quartiles {
  double Q1, Median, Q3;
};
Quartiles quartiles(std::vector<double> Xs) {
  std::sort(Xs.begin(), Xs.end());
  auto At = [&](double Q) {
    const double Pos = Q * static_cast<double>(Xs.size() - 1);
    const size_t Lo = static_cast<size_t>(Pos);
    const size_t Hi = std::min(Lo + 1, Xs.size() - 1);
    return Xs[Lo] + (Xs[Hi] - Xs[Lo]) * (Pos - static_cast<double>(Lo));
  };
  return {At(0.25), At(0.5), At(0.75)};
}

/// Alternating repetitions per side of the governance-overhead comparison.
constexpr int OverheadReps = 21;

} // namespace

int main() {
  double Scale = 1.0;
  if (const char *S = std::getenv("PINPOINT_BENCH_SCALE"))
    Scale = std::atof(S);

  header("micro_lifecycle: resilience-layer overhead",
         "DESIGN.md section 12 cost model");
  workload::Workload W = workload::generate(subjectConfig(Scale));
  std::printf("subject: %zu LoC\n\n", W.LoC);

  // -- Governance overhead (nothing degrades: generous budget) ------------
  // The sides alternate, so a drift in the host's speed reaches both.
  Budget GovBud;
  GovBud.MemBudgetMB = 1 << 20; // 1 TB: plan runs, nothing degrades.
  std::vector<double> BaseSecs, GovSecs;
  size_t BaseReports = 0;
  bool ReportsMatch = true;
  for (int Rep = 0; Rep < OverheadReps; ++Rep) {
    size_t Base = 0, Gov = 0;
    ResourceGovernor Plain;
    BaseSecs.push_back(analyzeOnce(W, Plain, nullptr, &Base));
    ResourceGovernor Governed(GovBud);
    GovSecs.push_back(analyzeOnce(W, Governed, nullptr, &Gov));
    if (Rep == 0)
      BaseReports = Base;
    ReportsMatch = ReportsMatch && Base == BaseReports && Gov == BaseReports;
  }
  const Quartiles BaseQ = quartiles(BaseSecs), GovQ = quartiles(GovSecs);
  const double OverheadPct = (GovQ.Median / BaseQ.Median - 1.0) * 100.0;

  std::printf("%d alternating runs per side; median [q1, q3]\n",
              OverheadReps);
  std::printf("%-34s %8.4f s [%.4f, %.4f]  (%zu reports)\n", "ungoverned",
              BaseQ.Median, BaseQ.Q1, BaseQ.Q3, BaseReports);
  std::printf("%-34s %8.4f s [%.4f, %.4f]  (overhead %+.1f%%)\n",
              "governed, generous budget", GovQ.Median, GovQ.Q1, GovQ.Q3,
              OverheadPct);
  if (!ReportsMatch)
    std::printf("WARNING: a run's report count differs\n");

  // -- Cancellation drain latency ----------------------------------------
  // A paced parallel run (5 ms per function) is cancelled mid-flight; the
  // drain latency is cancel() -> pipeline return, i.e. how long in-flight
  // tasks take to observe the token and unwind. The checker pass and the
  // teardown that follow in the runner are not part of it.
  FaultInjector Pace;
  std::string Err;
  Pace.parse("pace-fn-ms=5", Err);
  ResourceGovernor Paced(Budget{}, std::move(Pace));
  CancelToken Tok;
  Paced.setCancelToken(&Tok);

  double DrainMs = 0;
  {
    ThreadPool Pool(4);
    Clock::time_point PipelineDone;
    std::thread Runner(
        [&] { analyzeOnce(W, Paced, &Pool, nullptr, &PipelineDone); });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const Clock::time_point CancelAt = Clock::now();
    Tok.cancel();
    Runner.join();
    DrainMs = std::chrono::duration<double, std::milli>(PipelineDone -
                                                        CancelAt)
                  .count();
  }
  size_t PipelineCancels = 0;
  for (const DegradationEvent &E : Paced.log().events())
    if (E.Kind == DegradationKind::Cancelled && E.Stage == "pipeline")
      ++PipelineCancels;
  const bool CancelLanded = PipelineCancels == 1;
  std::printf("%-34s %8.1f ms  (pace 5 ms/fn, 4 workers; cancel %s)\n",
              "cancellation drain latency", DrainMs,
              CancelLanded ? "landed mid-pipeline" : "did NOT land");

  BenchJson J("lifecycle");
  J.field("loc", W.LoC);
  J.field("overhead_reps", static_cast<long long>(OverheadReps));
  J.field("ungoverned_sec", BaseQ.Median);
  J.field("ungoverned_q1_sec", BaseQ.Q1);
  J.field("ungoverned_q3_sec", BaseQ.Q3);
  J.field("governed_sec", GovQ.Median);
  J.field("governed_q1_sec", GovQ.Q1);
  J.field("governed_q3_sec", GovQ.Q3);
  J.field("governance_overhead_pct", OverheadPct, 2);
  J.field("reports_match", ReportsMatch);
  J.field("cancel_drain_ms", DrainMs, 1);
  J.field("cancel_landed", CancelLanded);
  J.write("BENCH_lifecycle.json");
  return 0;
}
