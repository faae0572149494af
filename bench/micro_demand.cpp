//===- bench/micro_demand.cpp - Demand-driven slicing speedup -------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end (pipeline + use-after-free engine) cost of `--demand=on` vs
/// `--demand=off` on a checker-sparse subject: one source-bearing function
/// among dozens of pointer-heavy fillers whose call trees never touch it.
/// The relevance pre-pass keeps exactly the source function, so the sliced
/// run skips the expensive points-to/SEG/summary work everywhere else —
/// the shape Pinpoint's compositional analysis meets on real code, where
/// most of a million-line subject is irrelevant to any one checker.
///
/// Verifies byte-identical reports across modes (the determinism contract
/// of DESIGN.md section 13), then emits `BENCH_demand.json` with the two
/// times, the speedup, the peak-memory figures and the skip counters.
///
/// Plain main (not google-benchmark): the two phases must run the same
/// subject exactly once each for the report-equality gate and the
/// peak-memory comparison to be meaningful.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "checkers/Checker.h"
#include "svfa/Demand.h"
#include "svfa/Pipeline.h"

#include <algorithm>
#include <string>
#include <vector>

using namespace pinpoint;
using namespace pinpoint::bench;

namespace {

/// \p NumFillers pointer-heavy functions (heap-cell store/load clusters,
/// chained into call trees disconnected from the source region) plus one
/// use-after-free victim nobody calls: the sparse-checker shape.
workload::Workload synthesizeSparseSubject(int NumFillers, int Clusters) {
  std::string S;
  S += "int **new_cell() {\n  int **c = malloc();\n  return c;\n}\n";
  for (int F = 0; F < NumFillers; ++F) {
    std::string Id = "fill_" + std::to_string(F);
    S += "int " + Id + "(int *x, int *y, bool s0, bool s1) {\n";
    S += "  int acc = 0;\n";
    for (int J = 0; J < Clusters; ++J) {
      std::string M = "m" + std::to_string(J);
      S += "  int **" + M + " = new_cell();\n";
      S += "  *" + M + " = x;\n";
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
    // Chain into call trees of eight, each rooted at a fill_8k function;
    // no chain ever reaches the victim.
    if (F % 8 != 0)
      S += "  acc = acc + fill_" + std::to_string(F - 1) + "(x, y, s1, s0);\n";
    S += "  return acc;\n}\n";
  }
  // The one function any of this run's checkers cares about.
  S += "int victim(int *p, bool g) {\n"
       "  free(p);\n"
       "  int v = 0;\n"
       "  if (g) {\n    v = *p;\n  }\n"
       "  return v;\n}\n";
  workload::Workload W;
  W.LoC = static_cast<size_t>(std::count(S.begin(), S.end(), '\n'));
  W.Source = std::move(S);
  return W;
}

/// A sink-sparse taint subject: many pointer-heavy *source* regions whose
/// call cones never meet a sink — the source-only cone keeps every one of
/// them, the bidirectional (sink-intersected) cone prunes all but the one
/// region where a source cone and a sink cone actually meet. That meeting
/// region carries the subject's single taint finding.
workload::Workload synthesizeSinkSparseSubject(int NumRegions, int Clusters) {
  std::string S;
  S += "int **new_cell() {\n  int **c = malloc();\n  return c;\n}\n";
  for (int R = 0; R < NumRegions; ++R) {
    std::string Id = std::to_string(R);
    // A tainted source inside a pointer-heavy body, plus a caller chain —
    // all expensive to analyse, none able to reach a sink.
    S += "int coldsrc_" + Id + "(int *x, int *y, bool s0, bool s1) {\n";
    S += "  int acc = read_input();\n";
    for (int J = 0; J < Clusters; ++J) {
      std::string M = "m" + std::to_string(J);
      S += "  int **" + M + " = new_cell();\n";
      S += "  *" + M + " = x;\n";
      S += "  if (s" + std::to_string(J % 2) + ") {\n";
      S += "    *" + M + " = y;\n";
      S += "  }\n";
      S += "  int *r" + std::to_string(J) + " = *" + M + ";\n";
      S += "  acc = acc + *r" + std::to_string(J) + ";\n";
    }
    S += "  return acc;\n}\n";
    S += "int coldmid_" + Id + "(int *x, int *y, bool s0, bool s1) {\n"
         "  int r = coldsrc_" + Id + "(x, y, s0, s1);\n  return r;\n}\n";
    S += "int coldtop_" + Id + "(int *x, int *y, bool s0, bool s1) {\n"
         "  int r = coldmid_" + Id + "(x, y, s1, s0);\n  return r;\n}\n";
  }
  // The one region where source and sink cones meet: the only functions
  // the bidirectional pre-pass must keep.
  S += "int hot_src(int c) {\n  int v = read_input();\n  return v;\n}\n"
       "int hot_snk(int v) {\n  open(v);\n  return 0;\n}\n"
       "int hot_caller(int c) {\n  int v = hot_src(c);\n"
       "  int r = hot_snk(v);\n  return r + v;\n}\n";
  workload::Workload W;
  W.LoC = static_cast<size_t>(std::count(S.begin(), S.end(), '\n'));
  W.Source = std::move(S);
  return W;
}

struct ModeResult {
  double Sec = 0;
  double PeakMB = 0;
  size_t Relevant = 0, Skipped = 0;
  std::vector<std::string> Reports; ///< Full report keys incl. paths.
};

enum class SliceMode { Exhaustive, SourceOnly, Bidirectional };

ModeResult runSliced(const workload::Workload &W,
                     const checkers::CheckerSpec &Spec, SliceMode Mode) {
  ModeResult R;
  auto M = parseWorkload(W); // Fresh parse: the pipeline mutates the module.
  smt::ExprContext Ctx;

  svfa::DemandSpec DS;
  DS.Checkers.push_back(Spec);
  DS.UseSinkCones = Mode == SliceMode::Bidirectional;
  svfa::PipelineOptions PO;
  PO.Demand = Mode == SliceMode::Exhaustive ? nullptr : &DS;
  svfa::GlobalOptions GO;
  GO.Demand = Mode != SliceMode::Exhaustive;

  MemStats::get().resetPeak();
  const int64_t Base = MemStats::get().liveBytes();
  Timer T;
  svfa::AnalyzedModule AM(*M, Ctx, PO);
  svfa::GlobalSVFA Engine(AM, Spec, GO);
  for (const svfa::Report &Rep : Engine.run()) {
    std::string K = Rep.Checker + " " + Rep.SourceFn + ":" +
                    Rep.Source.str() + "->" + Rep.SinkFn + ":" +
                    Rep.Sink.str();
    for (const std::string &Step : Rep.Path)
      K += "|" + Step;
    R.Reports.push_back(K);
  }
  R.Sec = T.seconds();
  R.PeakMB =
      static_cast<double>(MemStats::get().peakBytes() - Base) / 1e6;
  R.Relevant = AM.relevantFunctions();
  R.Skipped = AM.skippedFunctions();
  std::sort(R.Reports.begin(), R.Reports.end());
  return R;
}

ModeResult runMode(const workload::Workload &W, bool Demand) {
  return runSliced(W, checkers::useAfterFreeChecker(),
                   Demand ? SliceMode::SourceOnly : SliceMode::Exhaustive);
}

/// Best-of-N wrapper (shaves scheduler noise without changing results).
template <typename Fn> ModeResult bestOf(int Reps, Fn Run) {
  ModeResult Best;
  for (int I = 0; I < Reps; ++I) {
    ModeResult R = Run();
    if (I == 0 || R.Sec < Best.Sec)
      Best = std::move(R);
  }
  return Best;
}

} // namespace

int main() {
  double Scale = workload::benchScaleFromEnv(1.0);
  header("Micro: demand-driven value-flow slicing — sliced vs exhaustive",
         "the --demand subsystem (DESIGN.md section 13)");

  // One source function among >= 50 fillers (the issue's sparse shape).
  workload::Workload W = synthesizeSparseSubject(
      std::max(50, static_cast<int>(56 * Scale)), 24);

  constexpr int Reps = 3; // Best-of-N to shave scheduler noise.
  ModeResult On = bestOf(Reps, [&] { return runMode(W, true); });
  ModeResult Off = bestOf(Reps, [&] { return runMode(W, false); });

  const bool Identical = On.Reports == Off.Reports && !On.Reports.empty();
  const double Speedup = On.Sec > 0 ? Off.Sec / On.Sec : 0;
  const double MemReduction =
      Off.PeakMB > 0 ? 100.0 * (1.0 - On.PeakMB / Off.PeakMB) : 0;

  std::printf("subject: %zu LoC, %zu functions, 1 source function\n", W.LoC,
              On.Relevant + On.Skipped);
  std::printf("%-24s %12s %12s %12s\n", "mode", "total (s)", "peak MB",
              "reports");
  hr();
  std::printf("%-24s %12.3f %12.2f %12zu\n", "exhaustive (--demand=off)",
              Off.Sec, Off.PeakMB, Off.Reports.size());
  std::printf("%-24s %12.3f %12.2f %12zu\n", "sliced (--demand=on)", On.Sec,
              On.PeakMB, On.Reports.size());
  hr();
  std::printf("speedup: %.2fx   peak-memory reduction: %.1f%%   "
              "relevant=%zu skipped=%zu\n",
              Speedup, MemReduction, On.Relevant, On.Skipped);
  std::printf("reports identical across modes: %s\n",
              Identical ? "yes" : "NO (demand determinism violation!)");

  // Second scenario: the sink-sparse shape, where the bidirectional
  // (sink-intersected) cone skips strictly more than the source-only cone
  // while reporting the same findings.
  header("Micro: sink-intersected slicing — bidirectional vs source-only",
         "sink cones on a sink-sparse taint subject");
  workload::Workload WS = synthesizeSinkSparseSubject(
      std::max(16, static_cast<int>(18 * Scale)), 16);
  const checkers::CheckerSpec Taint = checkers::pathTraversalChecker();
  ModeResult Ex = bestOf(
      Reps, [&] { return runSliced(WS, Taint, SliceMode::Exhaustive); });
  ModeResult So = bestOf(
      Reps, [&] { return runSliced(WS, Taint, SliceMode::SourceOnly); });
  ModeResult Bi = bestOf(
      Reps, [&] { return runSliced(WS, Taint, SliceMode::Bidirectional); });

  const bool BiIdentical = Bi.Reports == Ex.Reports &&
                           So.Reports == Ex.Reports && !Ex.Reports.empty();
  const bool BiPrunesMore = Bi.Skipped > So.Skipped;
  const double BiSpeedup = Bi.Sec > 0 ? So.Sec / Bi.Sec : 0;
  const double BiMemReduction =
      So.PeakMB > 0 ? 100.0 * (1.0 - Bi.PeakMB / So.PeakMB) : 0;

  // Exhaustive runs leave the demand counters at 0; the sliced runs see
  // every function as relevant or skipped.
  std::printf("subject: %zu LoC, %zu functions, 1 source/sink meeting "
              "region\n",
              WS.LoC, So.Relevant + So.Skipped);
  std::printf("%-26s %12s %12s %10s %10s\n", "mode", "total (s)", "peak MB",
              "relevant", "skipped");
  hr();
  std::printf("%-26s %12.3f %12.2f %10zu %10zu\n", "exhaustive", Ex.Sec,
              Ex.PeakMB, Ex.Relevant, Ex.Skipped);
  std::printf("%-26s %12.3f %12.2f %10zu %10zu\n", "source-only cone",
              So.Sec, So.PeakMB, So.Relevant, So.Skipped);
  std::printf("%-26s %12.3f %12.2f %10zu %10zu\n", "bidirectional cone",
              Bi.Sec, Bi.PeakMB, Bi.Relevant, Bi.Skipped);
  hr();
  std::printf("bidirectional vs source-only: %.2fx, extra-skipped=%zu, "
              "peak-memory reduction %.1f%%\n",
              BiSpeedup, Bi.Skipped - So.Skipped, BiMemReduction);
  std::printf("reports identical across all three modes: %s\n",
              BiIdentical ? "yes" : "NO (demand determinism violation!)");

  BenchJson J("demand_slicing");
  J.field("subject_loc", W.LoC);
  J.field("functions", On.Relevant + On.Skipped);
  J.field("relevant_fns", On.Relevant);
  J.field("skipped_fns", On.Skipped);
  J.field("sliced_s", On.Sec);
  J.field("exhaustive_s", Off.Sec);
  J.field("speedup", Speedup, 2);
  J.field("sliced_peak_mb", On.PeakMB, 2);
  J.field("exhaustive_peak_mb", Off.PeakMB, 2);
  J.field("mem_reduction_pct", MemReduction, 1);
  J.field("reports", On.Reports.size());
  J.field("reports_identical", Identical);
  // Bidirectional section: the sink-sparse scenario's deltas vs the
  // source-only cone (flat fields, `bidirectional_` prefix).
  J.field("bidirectional_subject_loc", WS.LoC);
  J.field("bidirectional_functions", So.Relevant + So.Skipped);
  J.field("bidirectional_relevant_fns", Bi.Relevant);
  J.field("bidirectional_skipped_fns", Bi.Skipped);
  J.field("bidirectional_sourceonly_relevant_fns", So.Relevant);
  J.field("bidirectional_sourceonly_skipped_fns", So.Skipped);
  J.field("bidirectional_extra_skipped_fns", Bi.Skipped - So.Skipped);
  J.field("bidirectional_s", Bi.Sec);
  J.field("bidirectional_sourceonly_s", So.Sec);
  J.field("bidirectional_exhaustive_s", Ex.Sec);
  J.field("bidirectional_speedup_vs_sourceonly", BiSpeedup, 2);
  J.field("bidirectional_peak_mb", Bi.PeakMB, 2);
  J.field("bidirectional_sourceonly_peak_mb", So.PeakMB, 2);
  J.field("bidirectional_mem_reduction_pct", BiMemReduction, 1);
  J.field("bidirectional_reports", Bi.Reports.size());
  J.field("bidirectional_prunes_more", BiPrunesMore);
  J.field("bidirectional_reports_identical", BiIdentical);
  J.write("BENCH_demand.json");

  const bool SparseGate = Identical && On.Skipped > 0;
  const bool SinkGate = BiIdentical && BiPrunesMore;
  return SparseGate && SinkGate ? 0 : 1;
}
