//===- bench/micro_smt.cpp - SMT query-acceleration speedup ---------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end effect of the staged solver's query-acceleration layer
/// (DESIGN.md section 11) — the shared verdict cache plus conjunct slicing —
/// on a pointer-heavy subject: the same use-after-free analysis runs once
/// with the layer disabled (the no-cache ablation) and once enabled, and
/// the bench reports backend-call reduction, cache hit-rate, the linear
/// filter's kill-rate and the per-call backend latency, then emits
/// machine-readable `BENCH_smt.json`.
///
/// The invariants the CI perf-smoke step relies on are *counts*, not wall
/// clock: warm cache hit-rate > 0, sliced queries > 0, and backend calls
/// reduced at least 2x versus the ablation. The binary self-checks them
/// (plus report equality across configurations) and exits non-zero on any
/// violation, so regressions fail loudly without flaky timing thresholds.
///
/// Like micro_cache this is a plain main, not a google-benchmark suite:
/// the two phases must run the identical subject exactly once each for the
/// counter comparison to be meaningful.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "svfa/Pipeline.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

using namespace pinpoint;
using namespace pinpoint::bench;

namespace {

struct RunResult {
  double Sec = 0;
  size_t NumReports = 0;
  smt::StagedSolver::Stats SS;
  uint64_t EnginePruned = 0;
  /// (checker, source line, sink line), sorted — the correctness gate.
  std::vector<std::tuple<std::string, int, int>> ReportKeys;
};

/// Pointer-heavy subject tuned for the acceleration layer's sweet spot:
/// each function frees a pointer loaded back from a chain of heap cells
/// (so the source-side condition carries the points-to stage's alias
/// constraints over the s* guards) and then dereferences it several times
/// under a cycle of two branch guards (g0/g1). Within one function the
/// derefs repeat only two distinct full conditions — verbatim cache hits —
/// and every condition splits into the alias component and the
/// branch-guard component, which recur across the guard cycle.
workload::Workload synthesizeSubject(int NumFns, int Derefs) {
  std::string S;
  for (int F = 0; F < NumFns; ++F) {
    std::string Id = std::to_string(F);
    S += "int worker_" + Id + "(int *p, int *q, bool g0, bool g1, "
         "bool s0, bool s1) {\n";
    S += "  int **c" + Id + " = malloc();\n";
    S += "  int **d" + Id + " = malloc();\n";
    S += "  *c" + Id + " = p;\n";
    S += "  if (s0) {\n    *c" + Id + " = q;\n  }\n";
    S += "  *d" + Id + " = *c" + Id + ";\n";
    S += "  if (s1) {\n    *d" + Id + " = q;\n  }\n";
    S += "  int *r" + Id + " = *d" + Id + ";\n";
    // Even functions free the parameter: every candidate's condition is
    // alias-constraints ∧ branch-guard, variable-disjoint — the slicing
    // case. Odd functions free the loaded pointer itself: the condition
    // degenerates to the branch guard and repeats verbatim — the
    // full-query replay case.
    S += F % 2 == 0 ? "  free(p);\n" : "  free(r" + Id + ");\n";
    S += "  int acc = 0;\n";
    for (int J = 0; J < Derefs; ++J) {
      S += "  if (g" + std::to_string(J % 2) + ") {\n";
      S += "    acc = acc + *r" + Id + ";\n";
      S += "  }\n";
    }
    S += "  return acc;\n}\n";
  }
  S += "int main() {\n  int *a = malloc();\n  int *b = malloc();\n"
       "  int t = 0;\n";
  for (int F = 0; F < NumFns; ++F)
    S += "  t = t + worker_" + std::to_string(F) +
         "(a, b, true, false, false, true);\n";
  S += "  return t;\n}\n";
  workload::Workload W;
  W.LoC = static_cast<size_t>(std::count(S.begin(), S.end(), '\n'));
  W.Source = std::move(S);
  return W;
}

RunResult runOnce(const workload::Workload &W, bool Accel) {
  RunResult R;
  auto M = parseWorkload(W); // Fresh parse: the pipeline mutates the module.
  smt::ExprContext Ctx;
  svfa::AnalyzedModule AM(*M, Ctx);
  svfa::GlobalOptions O;
  O.SolverCache = Accel;
  O.SolverSlicing = Accel;
  Timer T;
  svfa::GlobalSVFA Engine(AM, checkers::useAfterFreeChecker(), O);
  auto Reports = Engine.run();
  R.Sec = T.seconds();
  R.NumReports = Reports.size();
  R.SS = Engine.solverStats();
  R.EnginePruned = Engine.stats().LinearPruned;
  for (const svfa::Report &Rep : Reports)
    R.ReportKeys.emplace_back(Rep.Checker, Rep.Source.Line, Rep.Sink.Line);
  std::sort(R.ReportKeys.begin(), R.ReportKeys.end());
  return R;
}

} // namespace

int main() {
  double Scale = workload::benchScaleFromEnv(0.25);
  header("Micro: SMT query acceleration — verdict cache + conjunct slicing",
         "the staged-solver acceleration layer (DESIGN.md section 11)");

  workload::Workload W =
      synthesizeSubject(std::max(4, static_cast<int>(120 * Scale)), 8);
  std::printf("subject: %zu generated LoC\n\n", W.LoC);

  RunResult Off = runOnce(W, /*Accel=*/false);
  RunResult On = runOnce(W, /*Accel=*/true);

  const uint64_t LookupsOn = On.SS.CacheHits + On.SS.BackendCalls;
  const double HitRate =
      LookupsOn ? static_cast<double>(On.SS.CacheHits) / LookupsOn : 0.0;
  // Share of all filter-visible conditions (engine-inline plus solver
  // queries) the linear stage killed before any backend work.
  const uint64_t FilterSeen = On.EnginePruned + On.SS.Queries;
  const double KillRate =
      FilterSeen ? static_cast<double>(On.EnginePruned + On.SS.LinearUnsat) /
                       FilterSeen
                 : 0.0;
  const double Reduction =
      On.SS.BackendCalls
          ? static_cast<double>(Off.SS.BackendCalls) / On.SS.BackendCalls
          : 0.0;
  const double QueriesPerSec = On.Sec > 0 ? On.SS.Queries / On.Sec : 0.0;
  // Per-call backend latency, bounded from above: the ablation's whole
  // checker time (search and filter included) over its backend calls.
  const double BackendMsPerCall =
      Off.SS.BackendCalls ? 1000.0 * Off.Sec / Off.SS.BackendCalls : 0.0;

  std::printf("%-26s %10s %10s\n", "metric", "accel OFF", "accel ON");
  hr();
  std::printf("%-26s %10.3f %10.3f\n", "checker time (s)", Off.Sec, On.Sec);
  std::printf("%-26s %10llu %10llu\n", "solver queries",
              (unsigned long long)Off.SS.Queries,
              (unsigned long long)On.SS.Queries);
  std::printf("%-26s %10llu %10llu\n", "backend calls",
              (unsigned long long)Off.SS.BackendCalls,
              (unsigned long long)On.SS.BackendCalls);
  std::printf("%-26s %10s %10llu\n", "cache hits", "-",
              (unsigned long long)On.SS.CacheHits);
  std::printf("%-26s %10s %10llu\n", "sliced queries", "-",
              (unsigned long long)On.SS.SlicedQueries);
  std::printf("%-26s %10s %10llu\n", "components refuted", "-",
              (unsigned long long)On.SS.ComponentsRefuted);
  std::printf("%-26s %10zu %10zu\n", "reports", Off.NumReports,
              On.NumReports);
  std::printf("%-26s %10.3f %10s\n", "backend ms/call (<=)", BackendMsPerCall,
              "-");
  hr();
  std::printf("backend-call reduction: %.2fx  cache hit-rate: %.1f%%  "
              "linear kill-rate: %.1f%%  (%.0f queries/s)\n",
              Reduction, 100.0 * HitRate, 100.0 * KillRate, QueriesPerSec);

  const bool SameReports = Off.ReportKeys == On.ReportKeys;
  bool Ok = true;
  auto check = [&](bool Cond, const char *What) {
    if (!Cond) {
      std::fprintf(stderr, "INVARIANT VIOLATED: %s\n", What);
      Ok = false;
    }
  };
  check(SameReports, "reports differ between accel on/off");
  check(On.SS.CacheHits > 0, "no cache hits on the warm phase");
  check(On.SS.SlicedQueries > 0, "no queries were sliced");
  check(Reduction >= 2.0, "backend calls not reduced >= 2x vs no-cache");

  BenchJson J("smt_query_acceleration");
  J.field("subject_loc", W.LoC);
  J.field("time_off_s", Off.Sec);
  J.field("time_on_s", On.Sec);
  J.field("queries", (unsigned long long)On.SS.Queries);
  J.field("queries_per_sec", QueriesPerSec, 1);
  J.field("backend_calls_off", (unsigned long long)Off.SS.BackendCalls);
  J.field("backend_calls_on", (unsigned long long)On.SS.BackendCalls);
  J.field("backend_call_reduction", Reduction, 2);
  J.field("backend_ms_per_call", BackendMsPerCall);
  J.field("cache_hits", (unsigned long long)On.SS.CacheHits);
  J.field("cache_hit_rate", HitRate);
  J.field("sliced_queries", (unsigned long long)On.SS.SlicedQueries);
  J.field("components_refuted", (unsigned long long)On.SS.ComponentsRefuted);
  J.field("linear_kill_rate", KillRate);
  J.field("reports_equivalent", SameReports);
  J.write("BENCH_smt.json");

  return Ok ? 0 : 1;
}
