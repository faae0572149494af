//===- tests/SEGTest.cpp - Symbolic Expression Graph unit tests ------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "smt/Solver.h"
#include "svfa/Pipeline.h"

#include <gtest/gtest.h>

using namespace pinpoint::ir;

namespace pinpoint::seg {
namespace {

class SEGTest : public ::testing::Test {
protected:
  /// Runs the full pipeline; SEGs live in AM.
  void analyze(std::string_view Src) {
    M = std::make_unique<Module>();
    std::vector<frontend::Diag> Diags;
    bool OK = frontend::parseModule(Src, *M, Diags);
    for (auto &D : Diags)
      ADD_FAILURE() << D.str();
    ASSERT_TRUE(OK);
    AM = std::make_unique<svfa::AnalyzedModule>(*M, Ctx);
  }

  SEG &segOf(const std::string &Fn) {
    return *AM->info(M->function(Fn)).Seg;
  }
  Function *fn(const std::string &Name) { return M->function(Name); }

  const Variable *varNamed(Function *F, std::string_view Prefix) {
    for (const Variable *V : F->vars())
      if (V->name().rfind(Prefix, 0) == 0)
        return V;
    return nullptr;
  }

  smt::ExprContext Ctx;
  std::unique_ptr<Module> M;
  std::unique_ptr<svfa::AnalyzedModule> AM;
};

TEST_F(SEGTest, AssignCreatesDirectFlowEdge) {
  analyze("int f(int *a) { int *b = a; return *b; }");
  Function *F = fn("f");
  SEG &S = segOf("f");
  const Variable *A = F->params()[0];
  bool Found = false;
  for (const FlowEdge &E : S.flowsOut(A))
    if (E.Direct && E.To->name().rfind("b", 0) == 0)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST_F(SEGTest, FlowInMirrorsFlowOut) {
  analyze("int f(int a) { int b = a; int c = b; return c; }");
  SEG &S = segOf("f");
  const Variable *A = fn("f")->params()[0];
  ASSERT_FALSE(S.flowsOut(A).empty());
  const Variable *B = S.flowsOut(A)[0].To;
  bool Mirror = false;
  for (const FlowEdge &E : S.flowsIn(B))
    if (E.To == A) // FlowIn stores the source in To.
      Mirror = true;
  EXPECT_TRUE(Mirror);
}

TEST_F(SEGTest, PhiEdgesCarryComplementaryGates) {
  analyze(R"(
    int f(int a, int b, bool t) {
      int x = a;
      if (t) { x = b; }
      return x;
    })");
  SEG &S = segOf("f");
  Function *F = fn("f");
  // The phi's two incoming edges (from the copies of a and b) carry θ/¬θ.
  const PhiStmt *Phi = nullptr;
  for (BasicBlock *B : F->blocks())
    for (Stmt *St : B->stmts())
      if (auto *P = dyn_cast<PhiStmt>(St))
        Phi = P;
  ASSERT_NE(Phi, nullptr);
  std::vector<const smt::Expr *> Gates;
  for (const FlowEdge &E : S.flowsIn(Phi->dst()))
    if (E.Via == Phi)
      Gates.push_back(E.Cond);
  ASSERT_EQ(Gates.size(), 2u);
  EXPECT_EQ(Ctx.mkAnd(Gates[0], Gates[1]), Ctx.getFalse());
  EXPECT_EQ(Ctx.mkOr(Gates[0], Gates[1]), Ctx.getTrue());
}

TEST_F(SEGTest, OperatorEdgesAreIndirect) {
  analyze("int f(int a, int b) { int c = a + b; return c; }");
  SEG &S = segOf("f");
  const Variable *A = fn("f")->params()[0];
  ASSERT_FALSE(S.flowsOut(A).empty());
  for (const FlowEdge &E : S.flowsOut(A))
    if (isa<BinOpStmt>(E.Via))
      EXPECT_FALSE(E.Direct);
}

TEST_F(SEGTest, LoadEdgesCarryAliasConditions) {
  analyze(R"(
    int f(int *a, int *b, bool t) {
      int **h = malloc();
      *h = a;
      if (t) { *h = b; }
      int *v = *h;
      return *v;
    })");
  SEG &S = segOf("f");
  Function *F = fn("f");
  // a flows into v under ¬t.
  const smt::Expr *CondA = nullptr;
  for (const FlowEdge &E : S.flowsOut(F->params()[0]))
    if (isa<LoadStmt>(E.Via))
      CondA = E.Cond;
  ASSERT_NE(CondA, nullptr);
  EXPECT_FALSE(CondA->isTrue());
  // And the condition is satisfiable.
  auto Solver = smt::createDefaultSolver(Ctx);
  EXPECT_EQ(Solver->checkSat(CondA), smt::SatResult::Sat);
}

TEST_F(SEGTest, UsesIndexSinksAndCalls) {
  analyze(R"(
    void g(int *q) { }
    void f(int *p) {
      free(p);
      g(p);
      int v = *p;
    })");
  SEG &S = segOf("f");
  const Variable *P = fn("f")->params()[0];
  int CallArgs = 0, Derefs = 0;
  for (const Use &U : S.usesOf(P)) {
    if (U.Kind == UseKind::CallArg)
      ++CallArgs;
    if (U.Kind == UseKind::DerefAddr && !U.S->isSynthetic())
      ++Derefs;
  }
  EXPECT_EQ(CallArgs, 2); // free + g.
  EXPECT_EQ(Derefs, 1);
}

TEST_F(SEGTest, DDOfArithmeticChain) {
  analyze("int f(int a) { int b = a + 1; int c = b * 2; return c; }");
  SEG &S = segOf("f");
  Function *F = fn("f");
  const auto *RetVal =
      dyn_cast<Variable>(F->returnStmt()->values()[0]);
  const Closure &D = S.dd(RetVal);
  // DD leaves the parameter open.
  ASSERT_EQ(D.OpenParams.size(), 1u);
  EXPECT_EQ(D.OpenParams[0], F->params()[0]);
  // The constraint pins c = (a+1)*2: with a = 3, c must equal 8.
  auto Solver = smt::createDefaultSolver(Ctx);
  const smt::Expr *A = S.symbol(F->params()[0]);
  const smt::Expr *C = S.symbol(RetVal);
  const smt::Expr *Probe =
      Ctx.mkAnd(D.C, Ctx.mkAnd(Ctx.mkEq(A, Ctx.getInt(3)),
                               Ctx.mkEq(C, Ctx.getInt(8))));
  EXPECT_EQ(Solver->checkSat(Probe), smt::SatResult::Sat);
  const smt::Expr *Wrong =
      Ctx.mkAnd(D.C, Ctx.mkAnd(Ctx.mkEq(A, Ctx.getInt(3)),
                               Ctx.mkEq(C, Ctx.getInt(9))));
  EXPECT_EQ(Solver->checkSat(Wrong), smt::SatResult::Unsat);
}

TEST_F(SEGTest, DDOfPhiEncodesGatedEqualities) {
  analyze(R"(
    int f(int a, int b, bool t) {
      int x = a;
      if (t) { x = b; }
      return x;
    })");
  SEG &S = segOf("f");
  Function *F = fn("f");
  const auto *RetVal = dyn_cast<Variable>(F->returnStmt()->values()[0]);
  const Closure &D = S.dd(RetVal);
  auto Solver = smt::createDefaultSolver(Ctx);
  // Under t, the result must equal b.
  const Variable *BoolParam = F->params()[0];
  for (const Variable *V : F->params())
    if (V->type().isBool())
      BoolParam = V;
  const smt::Expr *T = S.symbol(BoolParam);
  const smt::Expr *Probe = Ctx.mkAnd(
      D.C,
      Ctx.mkAnd(T, Ctx.mkAnd(
                       Ctx.mkEq(S.symbol(F->params()[1]), Ctx.getInt(7)),
                       Ctx.mkNe(S.symbol(RetVal), Ctx.getInt(7)))));
  EXPECT_EQ(Solver->checkSat(Probe), smt::SatResult::Unsat);
}

TEST_F(SEGTest, DDIsMemoised) {
  analyze("int f(int a) { int b = a + 1; return b; }");
  SEG &S = segOf("f");
  Function *F = fn("f");
  const auto *RetVal = dyn_cast<Variable>(F->returnStmt()->values()[0]);
  const Closure &D1 = S.dd(RetVal);
  const Closure &D2 = S.dd(RetVal);
  EXPECT_EQ(&D1, &D2);
}

TEST_F(SEGTest, DDOpensCallReceivers) {
  analyze(R"(
    int callee(int x) { return x + 1; }
    int f(int a) {
      int r = callee(a);
      return r;
    })");
  SEG &S = segOf("f");
  Function *F = fn("f");
  const auto *RetVal = dyn_cast<Variable>(F->returnStmt()->values()[0]);
  const Closure &D = S.dd(RetVal);
  ASSERT_EQ(D.OpenRecvs.size(), 1u);
  EXPECT_EQ(D.OpenRecvs[0].second, -1); // Primary receiver.
}

TEST_F(SEGTest, OpenEndsAreListedInIdOrder) {
  // The walks meet the open ends in another order (the last dependence
  // first); the closures list parameters by variable id and receivers by
  // statement order.
  analyze(R"(
    int g(int x) { return x; }
    int f(int a, int b, int c) {
      int r1 = g(c);
      int r2 = g(a);
      int s = r1 + b;
      int t = s + r2;
      int u = t + c + a;
      if (u > 0) { u = u + 1; }
      return u;
    })");
  SEG &S = segOf("f");
  Function *F = fn("f");
  std::vector<const CallStmt *> Calls;
  for (const BasicBlock *B : F->blocks())
    for (const Stmt *St : B->stmts())
      if (const auto *C = dyn_cast<CallStmt>(St))
        Calls.push_back(C);
  ASSERT_EQ(Calls.size(), 2u);
  ASSERT_EQ(cast<Variable>(Calls[0]->args()[0]), F->params()[2]); // g(c)

  auto check = [&](const Closure &D, const char *What) {
    ASSERT_EQ(D.OpenParams.size(), 3u) << What;
    for (size_t I = 0; I < 3; ++I)
      EXPECT_EQ(D.OpenParams[I], F->params()[I]) << What;
    ASSERT_EQ(D.OpenRecvs.size(), 2u) << What;
    EXPECT_EQ(D.OpenRecvs[0].first, Calls[0]) << What;
    EXPECT_EQ(D.OpenRecvs[1].first, Calls[1]) << What;
  };
  const auto *RetVal = dyn_cast<Variable>(F->returnStmt()->values()[0]);
  check(S.dd(RetVal), "dd");
  const auto *Br = cast<BranchStmt>(F->entry()->terminator());
  check(S.controlCond(Br->trueBlock()->stmts().front()), "controlCond");
}

TEST_F(SEGTest, MallocReceiversAreNonNull) {
  analyze("int *f() { int *p = malloc(); return p; }");
  SEG &S = segOf("f");
  Function *F = fn("f");
  const auto *RetVal = dyn_cast<Variable>(F->returnStmt()->values()[0]);
  const Closure &D = S.dd(RetVal);
  auto Solver = smt::createDefaultSolver(Ctx);
  // retval == 0 contradicts the malloc non-nullness.
  const smt::Expr *Probe =
      Ctx.mkAnd(D.C, Ctx.mkEq(S.symbol(RetVal), Ctx.getInt(0)));
  EXPECT_EQ(Solver->checkSat(Probe), smt::SatResult::Unsat);
}

TEST_F(SEGTest, ControlCondChainsNestedBranches) {
  // Example 3.8's shape: a statement inside a nested branch is control
  // dependent on the inner condition, which is control dependent on the
  // outer one.
  analyze(R"(
    void f(int *p, int a) {
      if (a > 0) {
        bool inner = a > 10;
        if (inner) {
          free(p);
        }
      }
    })");
  SEG &S = segOf("f");
  Function *F = fn("f");
  const Stmt *FreeCall = nullptr;
  for (BasicBlock *B : F->blocks())
    for (Stmt *St : B->stmts())
      if (auto *C = dyn_cast<CallStmt>(St))
        if (C->calleeName() == "free")
          FreeCall = C;
  ASSERT_NE(FreeCall, nullptr);
  Closure CD = S.controlCond(FreeCall);
  auto Solver = smt::createDefaultSolver(Ctx);
  // The chained condition forces a > 10 (and transitively a > 0).
  const smt::Expr *A = S.symbol(F->params()[1]);
  EXPECT_EQ(Solver->checkSat(Ctx.mkAnd(CD.C, Ctx.mkEq(A, Ctx.getInt(5)))),
            smt::SatResult::Unsat);
  EXPECT_EQ(Solver->checkSat(Ctx.mkAnd(CD.C, Ctx.mkEq(A, Ctx.getInt(20)))),
            smt::SatResult::Sat);
}

TEST_F(SEGTest, EfficientPathConditionVsCanonical) {
  // Example 3.6: the exit's efficient condition is empty (true) even though
  // the canonical path enumeration would mention all branches. Here the
  // canonical reach condition folds to true too (hash-consing folds the
  // disjunction), demonstrating the compact-encoding property.
  analyze(R"(
    int f(bool t3, bool t4) {
      int y = 0;
      if (t3) { y = 1; }
      else {
        if (t4) { y = 2; }
      }
      return y;
    })");
  Function *F = fn("f");
  SEG &S = segOf("f");
  Closure CD = S.controlCond(F->returnStmt());
  EXPECT_TRUE(CD.C->isTrue());
}

TEST_F(SEGTest, SEGCountsAreReported) {
  analyze("int f(int a, int b) { int c = a + b; return c; }");
  SEG &S = segOf("f");
  EXPECT_GT(S.numEdges(), 0u);
  EXPECT_GT(S.numVertices(), 0u);
}

} // namespace
} // namespace pinpoint::seg
