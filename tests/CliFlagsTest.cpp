//===- tests/CliFlagsTest.cpp - The IR dump and the ablation flags --------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives three CLI flags end to end:
///
///  * `--dump-ir` prints the transformed IR, pinned here as text: phi
///    placement and the `x.N` version numbering of SSA, the loop unrolled
///    once, and the connector transform's Aux parameters and returns;
///  * `--no-path-sensitivity` and `--no-linear-filter`, the paper's
///    ablation knobs (Section 3.1.1), each checked against what it turns
///    off.
///
//===----------------------------------------------------------------------===//

#include "CliHarness.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace pinpoint;
using namespace pinpoint::clitest;

namespace {

#if PINPOINT_CLI_TESTS

/// An if/else join around a nested `if`, a `while`, an early return, and a
/// callee that loads, frees and stores through a pointer parameter (one
/// Aux parameter and one Aux return) with its caller.
const char *const DumpSubject = R"(int swap_free(int **pp, int *q) {
  int *old = *pp;
  free(old);
  *pp = q;
  return 0;
}
int use(int *a, int *b, int c, int d) {
  int **cell = malloc();
  *cell = a;
  int r = swap_free(cell, b);
  int x = 0;
  if (c > 0) {
    x = 1;
    if (d > 0) { x = 2; }
  } else {
    x = 3;
  }
  while (x < 10) { x = x + 1; }
  if (d < 0) { return *a; }
  return x + r;
}
)";

const char *const DumpExpected =
    R"(int swap_free(int** pp, int* q, int* F$pp$1 /*aux*/) {
entry.0:
  *pp = F$pp$1
  t0.1 = *pp
  old.1 = t0.1
  call free(old.1)
  *pp = q
  retval.1 = 0
  jmp exit.1
exit.1:  ; preds: entry.0
  R$pp$1 = *pp
  return retval.1 R$pp$1
}

int use(int* a, int* b, int c, int d, int F$a$1 /*aux*/) {
entry.0:
  *a = F$a$1
  t0.1 = call malloc()
  cell.1 = t0.1
  *cell.1 = a
  A$0 = *cell.1
  t1.1, C$0 = call swap_free(cell.1, b, A$0)
  *cell.1 = C$0
  r.1 = t1.1
  x.1 = 0
  t2.1 = c > 0
  br t2.1, then.2, else.6
exit.1:  ; preds: then.9 join.10
  retval.3 = phi([join.10: retval.1], [then.9: retval.2])
  t7.2 = phi([join.10: t7], [then.9: t7.1])
  t8.2 = phi([join.10: t8.1], [then.9: t8])
  return retval.3
then.2:  ; preds: entry.0
  x.3 = 1
  t3.1 = d > 0
  br t3.1, then.4, join.5
join.3:  ; preds: join.5 else.6
  x.6 = phi([else.6: x.2], [join.5: x.5])
  t3.2 = phi([else.6: t3], [join.5: t3.1])
  t4.1 = x.6 < 10
  br t4.1, loopbody.7, loopexit.8
then.4:  ; preds: then.2
  x.4 = 2
  jmp join.5
join.5:  ; preds: then.2 then.4
  x.5 = phi([then.2: x.3], [then.4: x.4])
  jmp join.3
else.6:  ; preds: entry.0
  x.2 = 3
  jmp join.3
loopbody.7:  ; preds: join.3
  t5.1 = x.6 + 1
  x.7 = t5.1
  jmp loopexit.8
loopexit.8:  ; preds: join.3 loopbody.7
  x.8 = phi([join.3: x.6], [loopbody.7: x.7])
  t5.2 = phi([join.3: t5], [loopbody.7: t5.1])
  t6.1 = d < 0
  br t6.1, then.9, join.10
then.9:  ; preds: loopexit.8
  t7.1 = *a
  retval.2 = t7.1
  jmp exit.1
join.10:  ; preds: loopexit.8
  t8.1 = x.8 + r.1
  retval.1 = t8.1
  jmp exit.1
}

use-after-free: source swap_free:3:3 -> sink use:19:23
    via swap_free::F$pp$1
    via swap_free::t0.1
    via swap_free::old.1
    via use::a
1 report(s)
)";

TEST(CliFlags, DumpIRPrintsTheTransformedIR) {
  TempDir T("dumpir");
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << DumpSubject;
  const std::string Out = T.file("out");
  ASSERT_EQ(runTool({"--dump-ir", "--demand=off", "--checker=uaf", Subject},
                    Out),
            0);
  EXPECT_EQ(readFile(Out), DumpExpected);
}

/// Use-after-free candidates of every kind the two knobs act on: feasible
/// ones, ones only the SMT stage refutes, and a flow through memory under
/// contradictory guards, which the linear filter prunes during the value
/// closure.
const char *const AblationSubject = R"(int feasible(int *p, int c) {
  if (c > 5) { free(p); }
  if (c > 7) { return *p; }
  return 0;
}
int refuted(int *p, int c) {
  if (c > 5) { free(p); }
  if (c < 2) { return *p; }
  return 0;
}
int split(int *p, int c) {
  if (c > 5 || c < 0) { free(p); }
  if (c == 3) { return *p; }
  return 0;
}
void release(int *p, int c) { if (c > 9) { free(p); } }
int through(int *p, int c) {
  release(p, c);
  if (c < 4) { return *p; }
  if (c > 12) { return *p; }
  return 0;
}
int memflow(int *p, int c) {
  int **cell = malloc();
  free(p);
  if (c > 5) { *cell = p; }
  if (c < 2) {
    int *q = *cell;
    return *q;
  }
  return 0;
}
)";

const char *const AblationCheckers[] = {"[uaf]", "[df]"};

/// The report lines of a run (the "source ... -> sink ..." headers).
std::vector<std::string> reportLines(const std::string &Out) {
  std::vector<std::string> Lines;
  std::stringstream SS(Out);
  std::string L;
  while (std::getline(SS, L))
    if (L.find(": source ") != std::string::npos &&
        L.find(" -> sink ") != std::string::npos)
      Lines.push_back(L);
  return Lines;
}

/// Runs the ablation subject with `--checker=uaf,df --stats` plus \p Flag
/// (none when empty) and returns its stdout.
std::string runAblation(TempDir &T, const std::string &Flag) {
  const std::string Subject = T.file("subject.mc");
  std::ofstream(Subject) << AblationSubject;
  std::vector<std::string> Args = {"--checker=uaf,df", "--stats"};
  if (!Flag.empty())
    Args.push_back(Flag);
  Args.push_back(Subject);
  const std::string Out = T.file("out");
  EXPECT_EQ(runTool(Args, Out), 0) << Flag;
  return readFile(Out);
}

TEST(CliFlags, NoPathSensitivityReportsWithoutTheSMTStage) {
  TempDir T("nops");
  const std::string Default = runAblation(T, "");
  const std::string Ablated = runAblation(T, "--no-path-sensitivity");
  // Non-vacuity: the default run does query the SMT stage.
  EXPECT_GT(statValue(Default, "[uaf]", "smt-queries"), 0) << Default;

  // Every candidate is reported, so each default report is among them.
  const std::vector<std::string> All = reportLines(Ablated);
  for (const std::string &R : reportLines(Default))
    EXPECT_NE(std::find(All.begin(), All.end(), R), All.end()) << R;
  EXPECT_GT(All.size(), reportLines(Default).size()) << Ablated;
  for (const char *Line : AblationCheckers) {
    EXPECT_EQ(statValue(Ablated, Line, "sat"), 0) << Line;
    EXPECT_EQ(statValue(Ablated, Line, "unsat"), 0) << Line;
    EXPECT_EQ(statValue(Ablated, Line, "smt-queries"), 0) << Line;
  }
}

TEST(CliFlags, NoLinearFilterPrunesNothing) {
  TempDir T("nolf");
  const std::string Default = runAblation(T, "");
  const std::string Ablated = runAblation(T, "--no-linear-filter");
  // Non-vacuity: the default run's filter prunes on this subject.
  for (const char *Line : AblationCheckers)
    EXPECT_GT(statValue(Default, Line, "linear-pruned"), 0) << Line;
  // The reports are not compared: without the filter the value closure
  // can lose feasible reports (ROADMAP, the order-independent closure).
  for (const char *Line : AblationCheckers)
    EXPECT_EQ(statValue(Ablated, Line, "linear-pruned"), 0) << Line;
}

TEST(CliFlags, StderrSurvivesTheFastExit) {
  // A release CLI ends the process after its last line without running
  // destructors; it must flush every stdio stream first, stderr included
  // (the harness reopens it as a buffered file).
  pinpoint::clitest::TempDir D("fastexit");
  const std::string Src = D.file("t.mc");
  {
    std::ofstream Out(Src);
    Out << "int twice(int *q) { free(q); free(q); return 0; }\n";
  }
  const std::string Out = D.file("out.txt"), Err = D.file("err.txt");
  ASSERT_EQ(pinpoint::clitest::runTool(
                {"--checker=uaf,df", "--fault-inject=throw-checker=uaf", Src},
                Out, Err),
            0);
  const std::string Stdout = pinpoint::clitest::readFile(Out);
  const std::string Tail = "1 report(s)\n";
  ASSERT_GE(Stdout.size(), Tail.size()) << Stdout;
  EXPECT_EQ(Stdout.substr(Stdout.size() - Tail.size()), Tail) << Stdout;
  EXPECT_NE(pinpoint::clitest::readFile(Err).find(
                "warning: checker uaf failed (injected checker fault); "
                "continuing"),
            std::string::npos);
}

TEST(CliFlags, DumpIRShowsDemandSkippedFunctionsInSSAForm) {
  // `join` has no free, so the df pre-pass skips it and the pipeline never
  // puts it into SSA; --dump-ir must still print its phi exactly as a run
  // without slicing does.
  pinpoint::clitest::TempDir D("dumpskip");
  const std::string Src = D.file("t.mc");
  {
    std::ofstream Out(Src);
    Out << "int twice(int *q) { free(q); free(q); return 0; }\n"
           "int join(int c) { int x = 0; if (c > 0) { x = 1; } return x; }\n";
  }
  const std::string On = D.file("on.txt"), Off = D.file("off.txt"),
                    Stats = D.file("stats.txt");
  ASSERT_EQ(pinpoint::clitest::runTool(
                {"--checker=df", "--stats", "--demand=on", Src}, Stats),
            0);
  EXPECT_EQ(pinpoint::clitest::statValue(pinpoint::clitest::readFile(Stats),
                                         "[demand]", "skipped-fns"),
            1);
  ASSERT_EQ(pinpoint::clitest::runTool(
                {"--checker=df", "--dump-ir", "--demand=on", Src}, On),
            0);
  ASSERT_EQ(pinpoint::clitest::runTool(
                {"--checker=df", "--dump-ir", "--demand=off", Src}, Off),
            0);
  const std::string DumpOn = pinpoint::clitest::readFile(On);
  EXPECT_EQ(DumpOn, pinpoint::clitest::readFile(Off));
  EXPECT_NE(DumpOn.find("x.1"), std::string::npos) << DumpOn;
}

#endif // PINPOINT_CLI_TESTS

} // namespace
