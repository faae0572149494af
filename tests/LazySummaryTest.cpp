//===- tests/LazySummaryTest.cpp - Parameter summaries built on first use -===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The global engine builds a function's VF1/VF3/VF4 summaries only when a
/// value closure, a VF4 composition or an event collection first reads
/// them, over the reader's callee cone, iteratively (svfa/GlobalSVFA.h).
/// These tests pin that a run without sources builds nothing, that bugs
/// visible only through summaries several calls deep are still found, that
/// a shared callee is summarised once, and that a call chain far deeper
/// than the stack is built without recursion.
///
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "svfa/GlobalSVFA.h"

#include <gtest/gtest.h>

#include <string>

using namespace pinpoint::ir;

namespace pinpoint::svfa {
namespace {

class LazySummaryTest : public ::testing::Test {
protected:
  /// Runs the use-after-free checker exhaustively (no demand slicing, the
  /// CLI's `--demand=off`) and keeps the engine counters.
  std::vector<Report> runUAF(const std::string &Src) {
    M = std::make_unique<Module>();
    std::vector<frontend::Diag> Diags;
    bool OK = frontend::parseModule(Src, *M, Diags);
    for (auto &D : Diags)
      ADD_FAILURE() << D.str();
    EXPECT_TRUE(OK);
    Ctx = std::make_unique<smt::ExprContext>();
    AnalyzedModule AM(*M, *Ctx, PipelineOptions{});
    GlobalOptions GO;
    GO.Demand = false;
    GlobalSVFA Engine(AM, checkers::useAfterFreeChecker(), GO);
    std::vector<Report> Reports = Engine.run();
    Stats = Engine.stats();
    return Reports;
  }

  uint64_t paramEntries() const { return Stats.VF1 + Stats.VF3 + Stats.VF4; }

  std::unique_ptr<Module> M;
  std::unique_ptr<smt::ExprContext> Ctx;
  GlobalSVFA::Stats Stats;
};

TEST_F(LazySummaryTest, NoSourcesBuildNoSummaries) {
  // Pointer code with calls, copies and an infeasible guarded flow, but no
  // free(): no event ever reads a summary, so none is built.
  auto Reports = runUAF(R"(
    int peek(int *p, int c) {
      int *q = p;
      int v = c;
      if (c > 5) {
        if (c < 3) {
          int *r = q;
          v = *r;
        }
      }
      return v + *q;
    }
    int mid(int *p, int c) { return peek(p, c); }
    int top(int *p, int c) { return mid(p, c) + peek(p, c); })");
  EXPECT_TRUE(Reports.empty());
  EXPECT_EQ(Stats.Events, 0u);
  EXPECT_EQ(Stats.ClosureSteps, 0u);
  EXPECT_EQ(Stats.LinearPruned, 0u);
  EXPECT_EQ(Stats.VF1 + Stats.VF2 + Stats.VF3 + Stats.VF4, 0u);
}

TEST_F(LazySummaryTest, BugThreeCallsDeepIsReported) {
  // The free is three calls below top (drop -> release -> free): top's
  // event surfaces through drop's VF3, itself composed from release's. The
  // dereference sits in a callee (peek's VF4). Both are built on first use.
  auto Reports = runUAF(R"(
    void release(int *p) { free(p); }
    void drop(int *p) { release(p); }
    int peek(int *p) { return *p; }
    int top(int *p) {
      drop(p);
      return peek(p);
    })");
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].SourceFn, "release");
  EXPECT_EQ(Reports[0].SinkFn, "peek");
  EXPECT_EQ(Reports[0].Source.Line, 2u);
  EXPECT_EQ(Reports[0].Sink.Line, 4u);
  EXPECT_EQ(Stats.VF3, 2u); // release's own, and drop's composition.
  EXPECT_EQ(Stats.VF4, 1u); // peek's dereference.
}

TEST_F(LazySummaryTest, SharedCalleeIsSummarisedOnce) {
  const std::string Peek = "int peek(int *p) { int *q = p; return *q; }\n";
  const std::string CallerA = "int a(int *p) { free(p); return peek(p); }\n";
  const std::string CallerB = "int b(int *p) { free(p); return peek(p); }\n";

  auto Single = runUAF(Peek + CallerA);
  ASSERT_EQ(Single.size(), 1u);
  const uint64_t SingleEntries = paramEntries();
  const uint64_t SingleVF4 = Stats.VF4;
  EXPECT_EQ(SingleVF4, 1u);

  // Two callers read peek's VF4; the second read finds it built.
  auto Shared = runUAF(Peek + CallerA + CallerB);
  EXPECT_EQ(Shared.size(), 2u);
  EXPECT_EQ(paramEntries(), SingleEntries);
  EXPECT_EQ(Stats.VF4, SingleVF4);
}

TEST_F(LazySummaryTest, TenThousandDeepChainIsBuiltIteratively) {
  // top reads f9999's VF4, which forces the whole 10,000-function cone
  // below it. A build that recursed along the chain would overflow the
  // stack here; the report is top's own use-after-free.
  constexpr int N = 10000;
  std::string Src = "int f0(int *p) { return *p; }\n";
  for (int I = 1; I < N; ++I)
    Src += "int f" + std::to_string(I) + "(int *p) { int r = f" +
           std::to_string(I - 1) + "(p); return r; }\n";
  Src += "int top(int *p) { free(p); int r = f" + std::to_string(N - 1) +
         "(p); return r + *p; }\n";

  auto Reports = runUAF(Src);
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].SourceFn, "top");
  EXPECT_EQ(Reports[0].SinkFn, "top");
  EXPECT_EQ(Reports[0].Source.Line, static_cast<uint32_t>(N + 1));
  EXPECT_EQ(Reports[0].Sink.Line, static_cast<uint32_t>(N + 1));
  // Every chain member's parameter closure ran: the cone was built whole.
  EXPECT_GE(Stats.ClosureSteps, static_cast<uint64_t>(N));
  EXPECT_GT(Stats.VF4, 0u);
}

} // namespace
} // namespace pinpoint::svfa
