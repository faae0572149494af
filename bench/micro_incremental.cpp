//===- bench/micro_incremental.cpp - Edit-localised warm reanalysis -------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The edit-localised incremental-reanalysis exhibit (DESIGN.md section
/// 15): a ~60-function subject is analysed cold into a summary cache, one
/// function body is edited, and the warm rerun is timed against that cold
/// run. The warm run must (a) refresh the persisted relevance entry
/// locally — re-scanning exactly the one dirty function, never more than
/// its caller cone — (b) rebuild summaries for just the dirtied SCC chain,
/// and (c) report byte-identically to a from-scratch run on the edited
/// source. Emits `BENCH_incremental.json`; the exit gate enforces the
/// identity, the dirty-cone bound and a >= 3x warm-edit speedup.
///
/// Plain main (not google-benchmark): each phase must run exactly once per
/// cache directory for the cold/warm distinction to exist at all.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "checkers/Checker.h"
#include "support/SummaryCache.h"
#include "svfa/Demand.h"
#include "svfa/Pipeline.h"

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

using namespace pinpoint;
using namespace pinpoint::bench;

namespace {

/// \p Regions disconnected use-after-free regions, each a pointer-heavy
/// callee (`use_R`, with heap-cell store/load clusters plus a guarded
/// free/deref pair) under a malloc-ing caller (`caller_R`). Every region is
/// uaf-relevant, so the cold run analyses and caches all of them — the
/// shape where an edit to one region should cost two summaries, not sixty.
/// When \p EditRegion >= 0 that region's callee gains one pad statement.
workload::Workload synthesizeSubject(int Regions, int Clusters,
                                     int EditRegion) {
  std::string S;
  S += "int **new_cell() {\n  int **c = malloc();\n  return c;\n}\n";
  for (int R = 0; R < Regions; ++R) {
    std::string Id = std::to_string(R);
    S += "int use_" + Id + "(int *p, int *y, bool s0, bool s1, int c) {\n";
    S += "  int acc = 0;\n";
    for (int J = 0; J < Clusters; ++J) {
      std::string M = "m" + std::to_string(J);
      S += "  int **" + M + " = new_cell();\n";
      S += "  *" + M + " = p;\n";
      S += "  if (s" + std::to_string(J % 2) + ") {\n";
      S += "    *" + M + " = y;\n";
      S += "  }\n";
      if (J > 0) {
        std::string P = "m" + std::to_string(J - 1);
        S += "  *" + P + " = *" + M + ";\n";
      }
      S += "  int *r" + std::to_string(J) + " = *" + M + ";\n";
      S += "  acc = acc + *r" + std::to_string(J) + ";\n";
    }
    S += "  if (c > 0) {\n    free(p);\n  }\n";
    S += "  if (c > 1) {\n    int v = *p;\n    acc = acc + v;\n  }\n";
    if (R == EditRegion)
      S += "  int zqedit = 9;\n";
    S += "  return acc;\n}\n";
    S += "int caller_" + Id + "(int *y, bool s0, bool s1, int c) {\n"
         "  int *p = malloc();\n"
         "  int r = use_" + Id + "(p, y, s0, s1, c);\n"
         "  return r;\n}\n";
  }
  workload::Workload W;
  W.LoC = static_cast<size_t>(std::count(S.begin(), S.end(), '\n'));
  W.Source = std::move(S);
  return W;
}

struct RunResult {
  double Sec = 0;
  size_t Fns = 0;
  std::vector<std::string> Reports;
  std::string RefreshMode;
  int64_t DirtyDelta = 0, PrepassDelta = 0;
  int64_t HitsDelta = 0, MissesDelta = 0;
};

RunResult run(const workload::Workload &W, SummaryCache *Cache) {
  RunResult R;
  auto M = parseWorkload(W); // Fresh parse: the pipeline mutates the module.
  smt::ExprContext Ctx;

  svfa::DemandSpec DS;
  DS.Checkers.push_back(checkers::useAfterFreeChecker());
  svfa::PipelineOptions PO;
  PO.Demand = &DS;
  PO.Cache = Cache;
  svfa::GlobalOptions GO;
  GO.Demand = true;

  Counters &C = Counters::get();
  const int64_t Dirty = C.value("demand.dirty-fns");
  const int64_t Prepass = C.value("demand.prepass-fns");
  const int64_t Hits = C.value("cache.hits");
  const int64_t Misses = C.value("cache.misses");

  // Time the pipeline build only — the phase edit-localised reanalysis
  // accelerates (as in micro_cache). The engine run below is the report-
  // equality gate, identical work in every mode.
  Timer T;
  svfa::AnalyzedModule AM(*M, Ctx, PO);
  R.Sec = T.seconds();
  svfa::GlobalSVFA Engine(AM, checkers::useAfterFreeChecker(), GO);
  for (const svfa::Report &Rep : Engine.run()) {
    std::string K = Rep.SourceFn + ":" + Rep.Source.str() + "->" +
                    Rep.SinkFn + ":" + Rep.Sink.str();
    for (const std::string &Step : Rep.Path)
      K += "|" + Step;
    R.Reports.push_back(K);
  }
  R.Fns = M->functions().size();
  R.RefreshMode = AM.relevanceRefreshMode();
  R.DirtyDelta = C.value("demand.dirty-fns") - Dirty;
  R.PrepassDelta = C.value("demand.prepass-fns") - Prepass;
  R.HitsDelta = C.value("cache.hits") - Hits;
  R.MissesDelta = C.value("cache.misses") - Misses;
  std::sort(R.Reports.begin(), R.Reports.end());
  return R;
}

} // namespace

int main() {
  double Scale = workload::benchScaleFromEnv(1.0);
  header("Micro: edit-localised incremental reanalysis — warm edit vs cold",
         "per-function relevance refresh + dirty-cone rebuild "
         "(DESIGN.md section 15)");

  const int Regions = std::max(30, static_cast<int>(30 * Scale));
  const int Clusters = 128;
  const int EditRegion = Regions / 2;
  workload::Workload Orig = synthesizeSubject(Regions, Clusters, -1);
  workload::Workload Edited = synthesizeSubject(Regions, Clusters, EditRegion);
  // The edited function's caller cone: use_E plus caller_E. The refresh
  // must never scan more than this, and in fact scans only use_E.
  const int64_t DirtyConeFns = 2;

  // Best-of-N over fresh cache directories: each rep is one cold populate
  // of the original subject followed by one warm run on the edited one.
  constexpr int Reps = 3;
  RunResult Cold, Warm;
  for (int I = 0; I < Reps; ++I) {
    const std::string Dir = "bench_incr_cache_" + std::to_string(I);
    std::filesystem::remove_all(Dir);
    SummaryCache Cache(Dir, SummaryCache::Mode::ReadWrite);
    std::string Err;
    if (!Cache.prepare(Err)) {
      std::fprintf(stderr, "FATAL: %s\n", Err.c_str());
      return 1;
    }
    RunResult C = run(Orig, &Cache);
    RunResult E = run(Edited, &Cache);
    if (I == 0 || C.Sec < Cold.Sec)
      Cold = C;
    if (I == 0 || E.Sec < Warm.Sec)
      Warm = std::move(E);
    std::filesystem::remove_all(Dir);
  }
  // Reference: a from-scratch, uncached run on the edited subject.
  RunResult Ref = run(Edited, nullptr);

  const bool Identical = Warm.Reports == Ref.Reports && !Ref.Reports.empty();
  const double Speedup = Warm.Sec > 0 ? Cold.Sec / Warm.Sec : 0;
  const bool ConeBound = Warm.PrepassDelta <= DirtyConeFns;
  const bool OneDirty = Warm.DirtyDelta == 1;
  const bool LocalMode = Warm.RefreshMode == "local";

  std::printf("subject: %zu LoC, %zu functions; edit: one statement in "
              "use_%d\n",
              Orig.LoC, Cold.Fns, EditRegion);
  std::printf("%-26s %12s %10s %10s %10s\n", "run", "total (s)", "prepass",
              "hits", "misses");
  hr();
  std::printf("%-26s %12.3f %10lld %10lld %10lld\n", "cold populate",
              Cold.Sec, (long long)Cold.PrepassDelta,
              (long long)Cold.HitsDelta, (long long)Cold.MissesDelta);
  std::printf("%-26s %12.3f %10lld %10lld %10lld\n", "warm after edit",
              Warm.Sec, (long long)Warm.PrepassDelta,
              (long long)Warm.HitsDelta, (long long)Warm.MissesDelta);
  std::printf("%-26s %12.3f %10lld %10s %10s\n", "cold reference (edited)",
              Ref.Sec, (long long)Ref.PrepassDelta, "-", "-");
  hr();
  std::printf("warm_edit_speedup: %.2fx   refresh-mode=%s dirty-fns=%lld "
              "(cone=%lld)\n",
              Speedup, Warm.RefreshMode.c_str(), (long long)Warm.DirtyDelta,
              (long long)DirtyConeFns);
  std::printf("reports identical warm-edit vs cold-on-edited: %s\n",
              Identical ? "yes" : "NO (incremental determinism violation!)");

  BenchJson J("incremental_reanalysis");
  J.field("subject_loc", Orig.LoC);
  J.field("functions", Cold.Fns);
  J.field("edited_fns", 1LL);
  J.field("dirty_cone_fns", (long long)DirtyConeFns);
  J.field("cold_s", Cold.Sec);
  J.field("warm_edit_s", Warm.Sec);
  J.field("cold_ref_edited_s", Ref.Sec);
  J.field("warm_edit_speedup", Speedup, 2);
  J.field("refresh_mode", Warm.RefreshMode.c_str());
  J.field("dirty_fns", (long long)Warm.DirtyDelta);
  J.field("prepass_fns_warm", (long long)Warm.PrepassDelta);
  J.field("cache_hits_warm", (long long)Warm.HitsDelta);
  J.field("cache_misses_warm", (long long)Warm.MissesDelta);
  J.field("reports", Warm.Reports.size());
  J.field("reports_identical", Identical);
  J.write("BENCH_incremental.json");

  // Exit gate: determinism, the dirty-cone bound on re-scanned functions,
  // exactly one dirty function on the local path, and the warm speedup.
  return Identical && ConeBound && OneDirty && LocalMode && Speedup >= 3.0
             ? 0
             : 1;
}
