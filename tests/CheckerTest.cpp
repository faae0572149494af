//===- tests/CheckerTest.cpp - End-to-end checker tests --------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-pipeline tests: parse → SSA → connectors → SEG → global SVFA →
/// SMT. Includes the paper's own motivating examples (Figures 1/2 and 5).
///
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "svfa/GlobalSVFA.h"

#include <gtest/gtest.h>

#include <set>

using namespace pinpoint::ir;

namespace pinpoint::svfa {
namespace {

class CheckerTest : public ::testing::Test {
protected:
  std::vector<Report> check(std::string_view Src,
                            const checkers::CheckerSpec &Spec,
                            GlobalOptions Opts = {}) {
    M = std::make_unique<Module>();
    std::vector<frontend::Diag> Diags;
    bool OK = frontend::parseModule(Src, *M, Diags);
    for (auto &D : Diags)
      ADD_FAILURE() << D.str();
    EXPECT_TRUE(OK);
    Ctx = std::make_unique<smt::ExprContext>();
    return checkModule(*M, *Ctx, Spec, Opts);
  }

  std::vector<Report> checkUAF(std::string_view Src, GlobalOptions O = {}) {
    return check(Src, checkers::useAfterFreeChecker(), O);
  }

  std::unique_ptr<Module> M;
  std::unique_ptr<smt::ExprContext> Ctx;
};

//===----------------------------------------------------------------------===
// Intra-procedural use-after-free
//===----------------------------------------------------------------------===

TEST_F(CheckerTest, DirectUseAfterFree) {
  auto Reports = checkUAF(R"(
    int f(int *p) {
      free(p);
      return *p;
    })");
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].Checker, "use-after-free");
  EXPECT_LT(Reports[0].Source.Line, Reports[0].Sink.Line);
}

TEST_F(CheckerTest, UseBeforeFreeIsNotABug) {
  auto Reports = checkUAF(R"(
    int f(int *p) {
      int v = *p;
      free(p);
      return v;
    })");
  EXPECT_TRUE(Reports.empty());
}

TEST_F(CheckerTest, UseAfterFreeThroughAlias) {
  // Paper Figure 5 pattern: b = a; free(b); use *a.
  auto Reports = checkUAF(R"(
    int f(int *a) {
      int *b = a;
      free(b);
      return *a;
    })");
  ASSERT_EQ(Reports.size(), 1u);
}

TEST_F(CheckerTest, UseAfterFreeThroughHeapMemory) {
  auto Reports = checkUAF(R"(
    int f(int *a) {
      int **h = malloc();
      *h = a;
      free(a);
      int *v = *h;
      return *v;
    })");
  ASSERT_EQ(Reports.size(), 1u);
}

TEST_F(CheckerTest, InfeasiblePathIsPruned) {
  // free under t, deref under !t: the conjunction t ∧ ¬t is UNSAT.
  auto Reports = checkUAF(R"(
    int f(int *p, bool t) {
      if (t) { free(p); }
      int v = 0;
      if (!t) { v = *p; }
      return v;
    })");
  EXPECT_TRUE(Reports.empty());
}

TEST_F(CheckerTest, FeasibleBranchCombinationIsReported) {
  // Same shape but both under t: feasible.
  auto Reports = checkUAF(R"(
    int f(int *p, bool t) {
      if (t) { free(p); }
      int v = 0;
      if (t) { v = *p; }
      return v;
    })");
  ASSERT_EQ(Reports.size(), 1u);
}

TEST_F(CheckerTest, ArithmeticCorrelationNeedsSMT) {
  // Conditions x > 5 and x > 3 are not syntactic complements; feasibility
  // (x=6 satisfies both) needs the SMT stage to confirm.
  auto Reports = checkUAF(R"(
    int f(int *p, int x) {
      if (x > 5) { free(p); }
      int v = 0;
      if (x > 3) { v = *p; }
      return v;
    })");
  ASSERT_EQ(Reports.size(), 1u);
}

TEST_F(CheckerTest, ArithmeticContradictionIsPruned) {
  // x > 5 ∧ x < 2 is UNSAT — only the SMT solver can see it.
  auto Reports = checkUAF(R"(
    int f(int *p, int x) {
      if (x > 5) { free(p); }
      int v = 0;
      if (x < 2) { v = *p; }
      return v;
    })");
  EXPECT_TRUE(Reports.empty());
}

TEST_F(CheckerTest, PathInsensitiveModeKeepsInfeasibleCandidates) {
  GlobalOptions O;
  O.PathSensitive = false;
  auto Reports = checkUAF(R"(
    int f(int *p, bool t) {
      if (t) { free(p); }
      int v = 0;
      if (!t) { v = *p; }
      return v;
    })",
                          O);
  // The SVF-like ablation reports the false positive.
  EXPECT_EQ(Reports.size(), 1u);
}

//===----------------------------------------------------------------------===
// Inter-procedural use-after-free
//===----------------------------------------------------------------------===

TEST_F(CheckerTest, FreeInCalleeVF3) {
  // Paper Figure 5: foo frees its parameter; the caller then uses it.
  auto Reports = checkUAF(R"(
    void release(int *a) {
      int *b = a;
      free(b);
    }
    int caller(int *p) {
      release(p);
      return *p;
    })");
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].SourceFn, "release");
  EXPECT_EQ(Reports[0].SinkFn, "caller");
}

TEST_F(CheckerTest, SinkInCalleeVF4) {
  auto Reports = checkUAF(R"(
    int deref(int *q) { return *q; }
    int caller(int *p) {
      free(p);
      return deref(p);
    })");
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].SourceFn, "caller");
  EXPECT_EQ(Reports[0].SinkFn, "deref");
}

TEST_F(CheckerTest, FreedValueReturnedVF2) {
  auto Reports = checkUAF(R"(
    int *make_dangling() {
      int *p = malloc();
      free(p);
      return p;
    }
    int caller() {
      int *q = make_dangling();
      return *q;
    })");
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].SourceFn, "make_dangling");
  EXPECT_EQ(Reports[0].SinkFn, "caller");
}

TEST_F(CheckerTest, FunctionNamesDoNotRunTogetherInTheReportKey) {
  // Source `a` with sink `bc` and source `ab` with sink `c`, each pair on
  // the same two lines: two different bugs, so neither may shadow the
  // other when surviving reports are deduplicated.
  auto Reports = checkUAF(
      "void a(int *p) { free(p); } void ab(int *p) { free(p); }\n"
      "int bc(int *p) { return *p; } int c(int *p) { return *p; }\n"
      "int main1(int *x) { a(x); return bc(x); }\n"
      "int main2(int *y) { ab(y); return c(y); }\n");
  ASSERT_EQ(Reports.size(), 2u);
  std::set<std::pair<std::string, std::string>> Pairs;
  for (const Report &R : Reports)
    Pairs.insert({R.SourceFn, R.SinkFn});
  EXPECT_EQ(Pairs, (std::set<std::pair<std::string, std::string>>{
                       {"a", "bc"}, {"ab", "c"}}));
}

TEST_F(CheckerTest, FlowThroughCalleeVF1) {
  auto Reports = checkUAF(R"(
    int *identity(int *x) { return x; }
    int caller(int *p) {
      int *q = identity(p);
      free(p);
      return *q;
    })");
  ASSERT_EQ(Reports.size(), 1u);
}

TEST_F(CheckerTest, PaperFigure1UseAfterFree) {
  // The paper's motivating example: the freed pointer c escapes bar through
  // *q (a MOD side effect), reaches foo's *ptr, and is dereferenced at
  // print(*f) — but only on the θ1 ∧ θ3 ∧ θ2 path.
  auto Reports = checkUAF(R"(
    void foo(int *a, bool t1, bool t2, bool t4, int *b, int *d, int *e) {
      int **ptr = malloc();
      *ptr = a;
      if (t1) { bar(ptr, t4, b); }
      else    { qux(ptr, d, e); }
      int *f = *ptr;
      if (t2) { print(*f); }
    }
    void bar(int **q, bool t4, int *b) {
      int *c = malloc();
      if (*q != 0) {
        *q = c;
        free(c);
      } else {
        if (t4) { *q = b; }
      }
    }
    void qux(int **r, int *d, int *e) {
      bool t5 = *r != 0;
      if (t5) { *r = d; }
      else    { *r = e; }
    })");
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].SourceFn, "bar");
  EXPECT_EQ(Reports[0].SinkFn, "foo");
}

TEST_F(CheckerTest, PaperFigure1InfeasibleVariantIsPruned) {
  // Same shape, but the deref happens only when the value came through
  // qux (the ¬θ1 arm stores d/e, never the freed c): feasibility must
  // prune the candidate where c flows to the deref under ¬θ1.
  auto Reports = checkUAF(R"(
    void foo(bool t1, int *a, int *b, int *d) {
      int **ptr = malloc();
      *ptr = a;
      if (t1) { bar(ptr, b); }
      int *f = *ptr;
      if (!t1) { print(*f); }
    }
    void bar(int **q, int *b) {
      int *c = malloc();
      *q = c;
      free(c);
    })");
  EXPECT_TRUE(Reports.empty());
}

TEST_F(CheckerTest, DeepCallChainWithinDepthLimit) {
  auto Reports = checkUAF(R"(
    void f1(int *p) { free(p); }
    void f2(int *p) { f1(p); }
    void f3(int *p) { f2(p); }
    int top(int *p) {
      f3(p);
      return *p;
    })");
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].SourceFn, "f1");
}

TEST_F(CheckerTest, RecursionDoesNotDiverge) {
  auto Reports = checkUAF(R"(
    void rec(int *p, int n) {
      if (n > 0) { rec(p, n - 1); }
      free(p);
    }
    int top(int *p) {
      rec(p, 3);
      return *p;
    })");
  // The free inside rec surfaces as VF3 (local analysis of rec), the use in
  // top follows.
  ASSERT_EQ(Reports.size(), 1u);
}

//===----------------------------------------------------------------------===
// Double free
//===----------------------------------------------------------------------===

TEST_F(CheckerTest, DirectDoubleFree) {
  auto Reports = check(R"(
    void f(int *p) {
      free(p);
      free(p);
    })",
                       checkers::doubleFreeChecker());
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].Checker, "double-free");
}

TEST_F(CheckerTest, SingleFreeIsNotDoubleFree) {
  auto Reports = check(R"(
    void f(int *p, int *q) {
      free(p);
      free(q);
    })",
                       checkers::doubleFreeChecker());
  EXPECT_TRUE(Reports.empty());
}

TEST_F(CheckerTest, DoubleFreeAcrossFunctions) {
  auto Reports = check(R"(
    void release(int *x) { free(x); }
    void f(int *p) {
      release(p);
      release(p);
    })",
                       checkers::doubleFreeChecker());
  ASSERT_GE(Reports.size(), 1u);
}

TEST_F(CheckerTest, BranchExclusiveFreesAreNotDoubleFree) {
  auto Reports = check(R"(
    void f(int *p, bool t) {
      if (t) { free(p); } else { free(p); }
    })",
                       checkers::doubleFreeChecker());
  EXPECT_TRUE(Reports.empty());
}

//===----------------------------------------------------------------------===
// Taint checkers
//===----------------------------------------------------------------------===

TEST_F(CheckerTest, PathTraversalDirect) {
  auto Reports = check(R"(
    void f() {
      int input = fgetc();
      int path = input + 1;
      fopen(path);
    })",
                       checkers::pathTraversalChecker());
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].Checker, "path-traversal");
}

TEST_F(CheckerTest, PathTraversalInterprocedural) {
  auto Reports = check(R"(
    int read_user() { return fgetc(); }
    void openit(int path) { fopen(path); }
    void f() {
      int p = read_user();
      openit(p);
    })",
                       checkers::pathTraversalChecker());
  ASSERT_EQ(Reports.size(), 1u);
}

TEST_F(CheckerTest, UntaintedDataIsClean) {
  auto Reports = check(R"(
    void f() {
      int path = 42;
      fopen(path);
      int input = fgetc();
      print(input);
    })",
                       checkers::pathTraversalChecker());
  EXPECT_TRUE(Reports.empty());
}

TEST_F(CheckerTest, DataTransmissionThroughMemory) {
  auto Reports = check(R"(
    void f() {
      int *cell = malloc();
      int secret = getpass();
      *cell = secret;
      int out = *cell;
      sendto(out);
    })",
                       checkers::dataTransmissionChecker());
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].Checker, "data-transmission");
}

TEST_F(CheckerTest, TaintDoesNotRequireTemporalOrder) {
  // Pointer-identity checkers do not flow through arithmetic; taint does.
  auto UAF = checkUAF(R"(
    int f(int *p) {
      free(p);
      int v = 1 + 2;
      return v;
    })");
  EXPECT_TRUE(UAF.empty());
}

} // namespace
} // namespace pinpoint::svfa
