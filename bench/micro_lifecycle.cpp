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
///    degrades;
///  * cancellation drain latency — wall time from `cancel()` on a paced
///    mid-flight parallel run until the pipeline unwinds and returns,
///    which bounds how stale a flushed partial report can be.
///
/// One-shot phases over shared state (a single subject, a mid-run cancel),
/// which google-benchmark's repetition model would invalidate — a plain
/// standalone bench like micro_cache. Emits BENCH_lifecycle.json.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Interrupt.h"
#include "support/ResourceGovernor.h"
#include "support/ThreadPool.h"
#include "svfa/Pipeline.h"

#include <cstdio>
#include <thread>

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

/// Full pipeline + UAF checker pass; returns wall seconds.
double analyzeOnce(const workload::Workload &W, ResourceGovernor &Gov,
                   ThreadPool *Pool, size_t *ReportsOut = nullptr) {
  auto M = parseWorkload(W);
  smt::ExprContext Ctx;
  Timer T;
  svfa::PipelineOptions PO;
  PO.Governor = &Gov;
  PO.Pool = Pool;
  svfa::AnalyzedModule AM(*M, Ctx, PO);
  svfa::GlobalOptions GO;
  GO.Governor = &Gov;
  GO.Pool = Pool;
  svfa::GlobalSVFA Engine(AM, checkers::useAfterFreeChecker(), GO);
  size_t N = Engine.run().size();
  if (ReportsOut)
    *ReportsOut = N;
  return T.seconds();
}

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
  size_t BaseReports = 0, GovReports = 0;
  ResourceGovernor Plain;
  double BaseSec = analyzeOnce(W, Plain, nullptr, &BaseReports);

  Budget GovBud;
  GovBud.MemBudgetMB = 1 << 20; // 1 TB: plan runs, nothing degrades.
  ResourceGovernor Governed(GovBud);
  double GovSec = analyzeOnce(W, Governed, nullptr, &GovReports);

  std::printf("%-34s %8.3f s   (%zu reports)\n", "ungoverned", BaseSec,
              BaseReports);
  std::printf("%-34s %8.3f s   (%zu reports, overhead %+.1f%%)\n",
              "governed, generous budget", GovSec, GovReports,
              (GovSec / BaseSec - 1.0) * 100.0);
  if (BaseReports != GovReports)
    std::printf("WARNING: governed run changed the report count\n");

  // -- Cancellation drain latency ----------------------------------------
  // A paced parallel run (5 ms per function) is cancelled mid-flight; the
  // drain latency is cancel() -> pipeline return, i.e. how long in-flight
  // tasks take to observe the token and unwind.
  FaultInjector Pace;
  std::string Err;
  Pace.parse("pace-fn-ms=5", Err);
  ResourceGovernor Paced(Budget{}, std::move(Pace));
  CancelToken Tok;
  Paced.setCancelToken(&Tok);

  double DrainMs = 0;
  {
    ThreadPool Pool(4);
    Timer Drain;
    std::thread Runner([&] { analyzeOnce(W, Paced, &Pool); });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Drain.restart();
    Tok.cancel();
    Runner.join();
    DrainMs = Drain.millis();
  }
  std::printf("%-34s %8.1f ms  (pace 5 ms/fn, 4 workers)\n",
              "cancellation drain latency", DrainMs);

  BenchJson J("lifecycle");
  J.field("loc", W.LoC);
  J.field("ungoverned_sec", BaseSec);
  J.field("governed_sec", GovSec);
  J.field("governance_overhead_pct", (GovSec / BaseSec - 1.0) * 100.0, 2);
  J.field("reports_match", BaseReports == GovReports);
  J.field("cancel_drain_ms", DrainMs, 1);
  J.write("BENCH_lifecycle.json");
  return 0;
}
