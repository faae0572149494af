//===- bench/micro_cache.cpp - Incremental-reanalysis cache speedup -------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Warm-vs-cold pipeline build time with the persistent function-summary
/// cache (`--cache-dir`, DESIGN.md section 10) on one medium synthesized
/// subject: a cold from-scratch build, a populating build (cold work plus
/// entry stores), and a warm build that replays every summary from disk.
/// Verifies on the side that the warm module is byte-equivalent to the
/// cold one (SEG sizes and checker reports), then emits machine-readable
/// `BENCH_cache.json` with the three times, the warm/cold ratio and the
/// cache counters.
///
/// Unlike the other micro suites this is a plain main (the three phases
/// share one on-disk cache directory, which google-benchmark's repetition
/// model would invalidate), registered as a standalone bench binary.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/SummaryCache.h"
#include "svfa/Pipeline.h"

#include <algorithm>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

using namespace pinpoint;
using namespace pinpoint::bench;

namespace {

struct BuildResult {
  double Sec = 0;
  size_t SEGEdges = 0;
  size_t SEGVertices = 0;
  /// (checker, source line, sink line) keys, sorted — the correctness gate.
  std::vector<std::tuple<std::string, int, int>> ReportKeys;
};

/// The generator's functions are ~10 lines each, so per-function fixed
/// costs (SSA, condition map, file probe) would swamp the points-to work
/// the cache replays. Real subjects have 100+-line pointer-heavy
/// functions; synthesize those directly: \p NumFns functions of
/// \p Clusters store/load-through-heap-cell clusters each, chained into a
/// call tree, plus one planted use-after-free so the checker phase has
/// something to find.
workload::Workload synthesizeSubject(int NumFns, int Clusters) {
  std::string S;
  S += "int **new_cell() {\n  int **c = malloc();\n  return c;\n}\n";
  for (int F = 0; F < NumFns; ++F) {
    std::string Id = "big_" + std::to_string(F);
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
    if (F > 0)
      S += "  acc = acc + big_" + std::to_string(F - 1) + "(x, y, s1, s0);\n";
    S += "  return acc;\n}\n";
  }
  // One feasible use-after-free so the report-equality gate is non-trivial.
  S += "int uaf_victim(int *p, bool g) {\n"
       "  free(p);\n"
       "  int v = 0;\n"
       "  if (g) {\n    v = *p;\n  }\n"
       "  return v;\n}\n";
  S += "int main() {\n"
       "  int *a = malloc();\n  int *b = malloc();\n"
       "  int t = big_" +
       std::to_string(NumFns - 1) +
       "(a, b, true, false);\n"
       "  int u = uaf_victim(a, true);\n"
       "  return t + u;\n}\n";
  workload::Workload W;
  W.LoC = static_cast<size_t>(std::count(S.begin(), S.end(), '\n'));
  W.Source = std::move(S);
  return W;
}

BuildResult buildOnce(const workload::Workload &W, SummaryCache *Cache) {
  BuildResult R;
  auto M = parseWorkload(W); // Fresh parse: the pipeline mutates the module.
  smt::ExprContext Ctx;
  svfa::PipelineOptions PO;
  PO.Cache = Cache;
  Timer T;
  svfa::AnalyzedModule AM(*M, Ctx, PO);
  R.Sec = T.seconds();
  R.SEGEdges = AM.totalSEGEdges();
  R.SEGVertices = AM.totalSEGVertices();
  for (const checkers::CheckerSpec &Spec :
       {checkers::useAfterFreeChecker(), checkers::doubleFreeChecker()}) {
    svfa::GlobalSVFA Engine(AM, Spec);
    for (const svfa::Report &Rep : Engine.run())
      R.ReportKeys.emplace_back(Rep.Checker, Rep.Source.Line, Rep.Sink.Line);
  }
  std::sort(R.ReportKeys.begin(), R.ReportKeys.end());
  return R;
}

int64_t counter(const char *Name) { return Counters::get().value(Name); }

} // namespace

int main() {
  double Scale = workload::benchScaleFromEnv(0.25);
  header("Micro: incremental reanalysis — warm vs cold pipeline build",
         "the summary-cache subsystem (DESIGN.md section 10)");

  workload::Workload W = synthesizeSubject(
      std::max(4, static_cast<int>(40 * Scale)), 56);

  namespace fs = std::filesystem;
  const std::string Dir = "bench_cache_dir";
  std::error_code EC;
  fs::remove_all(Dir, EC);

  constexpr int Reps = 3; // Best-of-N to shave scheduler noise.

  // Phase 1: cold, no cache configured at all (the historical behaviour).
  BuildResult Cold;
  for (int I = 0; I < Reps; ++I) {
    BuildResult R = buildOnce(W, nullptr);
    if (I == 0 || R.Sec < Cold.Sec)
      Cold = std::move(R);
  }

  // Phase 2: one populating build — cold work plus encoding and storing
  // every function's entry into the (empty) cache directory.
  SummaryCache RW(Dir, SummaryCache::Mode::ReadWrite);
  std::string Err;
  if (!RW.prepare(Err)) {
    std::fprintf(stderr, "FATAL: cannot create %s: %s\n", Dir.c_str(),
                 Err.c_str());
    return 1;
  }
  int64_t Stored0 = counter("cache.stored");
  BuildResult Store = buildOnce(W, &RW);
  int64_t StoredN = counter("cache.stored") - Stored0;

  // Phase 3: warm — every function replays from disk.
  BuildResult Warm;
  int64_t Hits = 0, Misses = 0;
  for (int I = 0; I < Reps; ++I) {
    int64_t Hits0 = counter("cache.hits"), Misses0 = counter("cache.misses");
    BuildResult R = buildOnce(W, &RW);
    if (I == 0 || R.Sec < Warm.Sec) {
      Warm = std::move(R);
      Hits = counter("cache.hits") - Hits0;
      Misses = counter("cache.misses") - Misses0;
    }
  }

  bool Correct = Warm.SEGEdges == Cold.SEGEdges &&
                 Warm.SEGVertices == Cold.SEGVertices &&
                 Warm.ReportKeys == Cold.ReportKeys &&
                 Store.ReportKeys == Cold.ReportKeys;
  double Ratio = Cold.Sec > 0 ? Warm.Sec / Cold.Sec : 0;

  std::printf("subject: %zu LoC, %lld cached functions\n", W.LoC,
              (long long)StoredN);
  std::printf("%-22s %12s %12s %12s\n", "phase", "build (s)", "seg edges",
              "reports");
  hr();
  std::printf("%-22s %12.3f %12zu %12zu\n", "cold (no cache)", Cold.Sec,
              Cold.SEGEdges, Cold.ReportKeys.size());
  std::printf("%-22s %12.3f %12zu %12zu\n", "cold + store", Store.Sec,
              Store.SEGEdges, Store.ReportKeys.size());
  std::printf("%-22s %12.3f %12zu %12zu\n", "warm (replay)", Warm.Sec,
              Warm.SEGEdges, Warm.ReportKeys.size());
  hr();
  std::printf("warm/cold build ratio: %.3f  (hits=%lld misses=%lld)\n", Ratio,
              (long long)Hits, (long long)Misses);
  std::printf("warm run equivalent to cold: %s\n",
              Correct ? "yes" : "NO (cache correctness violation!)");

  if (std::FILE *J = std::fopen("BENCH_cache.json", "w")) {
    std::fprintf(J,
                 "{\n  \"bench\": \"cache_warm_vs_cold\",\n"
                 "  \"subject_loc\": %zu,\n  \"functions_stored\": %lld,\n"
                 "  \"cold_build_s\": %.4f,\n  \"store_build_s\": %.4f,\n"
                 "  \"warm_build_s\": %.4f,\n  \"warm_cold_ratio\": %.4f,\n"
                 "  \"warm_hits\": %lld,\n  \"warm_misses\": %lld,\n"
                 "  \"warm_equivalent\": %s\n}\n",
                 W.LoC, (long long)StoredN, Cold.Sec, Store.Sec, Warm.Sec,
                 Ratio, (long long)Hits, (long long)Misses,
                 Correct ? "true" : "false");
    std::fclose(J);
    std::printf("wrote BENCH_cache.json\n");
  }

  fs::remove_all(Dir, EC);
  return Correct ? 0 : 1;
}
