//===- tests/ContextTest.cpp - Context cloning / instantiation tests -------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "svfa/Context.h"
#include "svfa/GlobalSVFA.h"
#include "svfa/Pipeline.h"

#include <gtest/gtest.h>

using namespace pinpoint::ir;

namespace pinpoint::svfa {
namespace {

class ContextTest : public ::testing::Test {
protected:
  void analyze(std::string_view Src) {
    M = std::make_unique<Module>();
    std::vector<frontend::Diag> Diags;
    ASSERT_TRUE(frontend::parseModule(Src, *M, Diags))
        << (Diags.empty() ? "?" : Diags[0].str());
    AM = std::make_unique<AnalyzedModule>(*M, Ctx);
    CT = std::make_unique<ContextTable>(Ctx, AM->symbols());
  }

  const CallStmt *callIn(const std::string &Fn, const std::string &Callee) {
    for (BasicBlock *B : M->function(Fn)->blocks())
      for (Stmt *S : B->stmts())
        if (auto *C = dyn_cast<CallStmt>(S))
          if (C->calleeName() == Callee)
            return C;
    return nullptr;
  }

  smt::ExprContext Ctx;
  std::unique_ptr<Module> M;
  std::unique_ptr<AnalyzedModule> AM;
  std::unique_ptr<ContextTable> CT;
};

TEST_F(ContextTest, ContextsAreInterned) {
  analyze(R"(
    int g(int x) { return x; }
    int f(int a) { return g(a); }
  )");
  const CallStmt *Call = callIn("f", "g");
  const Context *C1 = CT->push(CT->top(), Call);
  const Context *C2 = CT->push(CT->top(), Call);
  EXPECT_EQ(C1, C2);
  EXPECT_EQ(ContextTable::depth(C1), 1);
  EXPECT_EQ(ContextTable::depth(CT->top()), 0);
}

TEST_F(ContextTest, ParamsMapToActualSymbols) {
  analyze(R"(
    int g(int x) { return x; }
    int f(int a) { return g(a); }
  )");
  Function *G = M->function("g");
  Function *F = M->function("f");
  const CallStmt *Call = callIn("f", "g");
  const Context *C = CT->push(CT->top(), Call);

  // An expression over g's parameter x…
  const smt::Expr *XSym = AM->symbols()[G->params()[0]];
  const smt::Expr *E = Ctx.mkCmp(smt::ExprKind::Gt, XSym, Ctx.getInt(0));
  // …instantiated at the call becomes an expression over the actual a.
  const smt::Expr *Inst = CT->instantiate(E, G, C);
  const smt::Expr *ASym = AM->symbols()[F->params()[0]];
  EXPECT_EQ(Inst, Ctx.mkCmp(smt::ExprKind::Gt, ASym, Ctx.getInt(0)));
}

TEST_F(ContextTest, LocalsAreClonedPerContext) {
  analyze(R"(
    int g(int x) { int y = x + 1; return y; }
    int f(int a) {
      int r1 = g(a);
      int r2 = g(a);
      return r1 + r2;
    }
  )");
  Function *G = M->function("g");
  // Find g's local y.
  const Variable *Y = nullptr;
  for (const Variable *V : G->vars())
    if (V->name().rfind("y", 0) == 0)
      Y = V;
  ASSERT_NE(Y, nullptr);
  const smt::Expr *YSym = AM->symbols()[Y];

  // Two different call sites → two different clones.
  std::vector<const CallStmt *> Calls;
  for (BasicBlock *B : M->function("f")->blocks())
    for (Stmt *S : B->stmts())
      if (auto *C = dyn_cast<CallStmt>(S))
        if (C->calleeName() == "g")
          Calls.push_back(C);
  ASSERT_EQ(Calls.size(), 2u);

  const smt::Expr *I1 =
      CT->instantiate(YSym, G, CT->push(CT->top(), Calls[0]));
  const smt::Expr *I2 =
      CT->instantiate(YSym, G, CT->push(CT->top(), Calls[1]));
  EXPECT_NE(I1, I2);
  EXPECT_NE(I1, YSym);
  // Same context → same clone (cache).
  EXPECT_EQ(I1, CT->instantiate(YSym, G, CT->push(CT->top(), Calls[0])));
}

TEST_F(ContextTest, TopContextIsIdentity) {
  analyze("int f(int a) { return a; }");
  const smt::Expr *A = AM->symbols()[M->function("f")->params()[0]];
  EXPECT_EQ(CT->instantiate(A, M->function("f"), CT->top()), A);
}

TEST_F(ContextTest, NestedContextsChainSubstitution) {
  analyze(R"(
    int h(int z) { return z; }
    int g(int y) { return h(y); }
    int f(int a) { return g(a); }
  )");
  Function *H = M->function("h");
  const CallStmt *FG = callIn("f", "g");
  const CallStmt *GH = callIn("g", "h");
  const Context *C1 = CT->push(CT->top(), FG);
  const Context *C2 = CT->push(C1, GH);

  // h's parameter z, two frames up, resolves to f's actual a.
  const smt::Expr *Z = AM->symbols()[H->params()[0]];
  const smt::Expr *Inst = CT->instantiate(Z, H, C2);
  const smt::Expr *A = AM->symbols()[M->function("f")->params()[0]];
  EXPECT_EQ(Inst, A);
}

TEST_F(ContextTest, CompoundInstantiationRecursesThroughEveryParameter) {
  // Mapping each of h's parameters two frames up recurses mappedVar ->
  // symbolIn -> instantiate while the outer, compound instantiation is
  // between its two phases. Whichever parameter maps second, the first
  // one's mapping must survive that recursion.
  analyze(R"(
    int h(int z1, int z2) { return z1 + z2; }
    int g(int y1, int y2) { return h(y1, y2); }
    int f(int a1, int a2) { return g(a1, a2); }
  )");
  Function *H = M->function("h");
  Function *F = M->function("f");
  const Context *C2 = CT->push(CT->push(CT->top(), callIn("f", "g")),
                               callIn("g", "h"));
  auto sym = [&](Function *Fn, int I) {
    return AM->symbols()[Fn->params()[I]];
  };
  auto shape = [&](const smt::Expr *P, const smt::Expr *Q) {
    return Ctx.mkAnd(Ctx.mkCmp(smt::ExprKind::Lt, P, Q),
                     Ctx.mkCmp(smt::ExprKind::Gt, P, Ctx.getInt(0)));
  };
  const smt::Expr *Inst = CT->instantiate(shape(sym(H, 0), sym(H, 1)), H, C2);
  EXPECT_EQ(Inst, shape(sym(F, 0), sym(F, 1)));
}

TEST_F(ContextTest, ContextSensitivityDistinguishesCallSites) {
  // End-to-end: the same callee frees its argument only under its boolean
  // parameter; one call site passes true-ish condition, the other false.
  // Context-sensitive conditions must keep them apart.
  analyze(R"(
    void maybe_free(int *p, bool doit) {
      if (doit) { free(p); }
    }
    int f(int *x, int *y) {
      maybe_free(x, true);
      maybe_free(y, false);
      int a = *x;
      int b = *y;
      return a + b;
    }
  )");
  GlobalSVFA Engine(*AM, checkers::useAfterFreeChecker());
  auto Reports = Engine.run();
  // Only *x is a use-after-free; the y call site's condition is false.
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].Sink.Line, 8u); // a = *x.
}

} // namespace
} // namespace pinpoint::svfa
