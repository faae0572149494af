//===- tests/TransformTest.cpp - Connector transform tests -----------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "ir/Verifier.h"
#include "svfa/Pipeline.h"

#include <gtest/gtest.h>

using namespace pinpoint::ir;

namespace pinpoint::transform {
namespace {

class TransformTest : public ::testing::Test {
protected:
  std::unique_ptr<svfa::AnalyzedModule> analyze(std::string_view Src) {
    M = std::make_unique<Module>();
    std::vector<frontend::Diag> Diags;
    bool OK = frontend::parseModule(Src, *M, Diags);
    for (auto &D : Diags)
      ADD_FAILURE() << D.str();
    EXPECT_TRUE(OK);
    return std::make_unique<svfa::AnalyzedModule>(*M, Ctx);
  }

  smt::ExprContext Ctx;
  std::unique_ptr<Module> M;
};

TEST_F(TransformTest, RefBecomesAuxFormalParameter) {
  auto AM = analyze(R"(
    int deref(int *p) { return *p; }
  )");
  Function *F = M->function("deref");
  const auto &I = AM->interfaceOf(F);
  ASSERT_EQ(I.RefPaths.size(), 1u);
  EXPECT_EQ(I.RefPaths[0].first->name(), "p");
  EXPECT_EQ(I.RefPaths[0].second, 1);
  ASSERT_EQ(I.AuxParams.size(), 1u);
  EXPECT_TRUE(I.AuxParams[0]->isAuxParam());
  EXPECT_TRUE(I.AuxParams[0]->type().isInt());
  // The function signature grew.
  EXPECT_EQ(F->params().size(), 2u);
  EXPECT_EQ(F->numOriginalParams(), 1u);
}

TEST_F(TransformTest, ModBecomesAuxReturnValue) {
  auto AM = analyze(R"(
    void set(int *p, int v) { *p = v; }
  )");
  Function *F = M->function("set");
  const auto &I = AM->interfaceOf(F);
  EXPECT_TRUE(I.RefPaths.empty());
  ASSERT_EQ(I.ModPaths.size(), 1u);
  ASSERT_EQ(I.AuxReturns.size(), 1u);
  // The return bundle now carries the aux value (void fn: bundle was empty).
  ReturnStmt *Ret = F->returnStmt();
  ASSERT_NE(Ret, nullptr);
  ASSERT_EQ(Ret->values().size(), 1u);
  EXPECT_EQ(Ret->values()[0], I.AuxReturns[0]);
}

TEST_F(TransformTest, EntryStoreAndExitLoadInserted) {
  auto AM = analyze(R"(
    int bump(int *p) { int v = *p; *p = v + 1; return v; }
  )");
  Function *F = M->function("bump");
  const auto &I = AM->interfaceOf(F);
  ASSERT_EQ(I.RefPaths.size(), 1u);
  ASSERT_EQ(I.ModPaths.size(), 1u);
  // Entry begins with the connector store *(p,1) ← F.
  const Stmt *First = F->entry()->stmts().front();
  ASSERT_TRUE(isa<StoreStmt>(First));
  EXPECT_EQ(cast<StoreStmt>(First)->value(), I.AuxParams[0]);
  // Exit loads R ← *(p,1) right before the return.
  const auto &ExitStmts = F->exitBlock()->stmts();
  ASSERT_GE(ExitStmts.size(), 2u);
  const Stmt *PreRet = ExitStmts[ExitStmts.size() - 2];
  ASSERT_TRUE(isa<LoadStmt>(PreRet));
  EXPECT_EQ(cast<LoadStmt>(PreRet)->dst(), I.AuxReturns[0]);
}

TEST_F(TransformTest, CallSitesMirrorCalleeConnectors) {
  auto AM = analyze(R"(
    void set(int *p, int v) { *p = v; }
    int use(int *q) {
      set(q, 42);
      return *q;
    }
  )");
  Function *Use = M->function("use");
  // The call to set() must have grown an aux receiver and be followed by a
  // store *(q,1) ← C.
  const CallStmt *Call = nullptr;
  for (BasicBlock *B : Use->blocks())
    for (Stmt *S : B->stmts())
      if (auto *C = dyn_cast<CallStmt>(S))
        Call = C;
  ASSERT_NE(Call, nullptr);
  ASSERT_EQ(Call->auxReceivers().size(), 1u);
  // Find the store of the aux receiver.
  bool FoundStore = false;
  for (BasicBlock *B : Use->blocks())
    for (Stmt *S : B->stmts())
      if (auto *St = dyn_cast<StoreStmt>(S))
        if (St->value() == Call->auxReceivers()[0])
          FoundStore = true;
  EXPECT_TRUE(FoundStore);
  // And the caller's load of *q must now see the callee's effect: in the
  // caller's SEG the load's destination has a flow-in edge from the aux
  // receiver.
  const LoadStmt *Load = nullptr;
  for (BasicBlock *B : Use->blocks())
    for (Stmt *S : B->stmts())
      if (auto *L = dyn_cast<LoadStmt>(S))
        if (L->dst() && !L->dst()->name().starts_with("R$"))
          Load = L;
  ASSERT_NE(Load, nullptr);
  const seg::SEG *Seg = AM->info(Use).Seg.get();
  ASSERT_NE(Seg, nullptr);
  bool FlowFromAux = false;
  for (const seg::FlowEdge &E : Seg->flowsIn(Load->dst()))
    if (E.To == Call->auxReceivers()[0] && E.Via == Load)
      FlowFromAux = true;
  EXPECT_TRUE(FlowFromAux);
}

TEST_F(TransformTest, RefCallSiteGetsAuxArgument) {
  auto AM = analyze(R"(
    int get(int *p) { return *p; }
    int use(int *q) { return get(q); }
  )");
  Function *Use = M->function("use");
  const CallStmt *Call = nullptr;
  for (BasicBlock *B : Use->blocks())
    for (Stmt *S : B->stmts())
      if (auto *C = dyn_cast<CallStmt>(S))
        Call = C;
  ASSERT_NE(Call, nullptr);
  // Original arg + aux arg A (the pre-load of *q).
  ASSERT_EQ(Call->args().size(), 2u);
  const auto *A = dyn_cast<Variable>(Call->args()[1]);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(A->def(), nullptr);
  EXPECT_TRUE(isa<LoadStmt>(A->def()));
  // The caller in turn REFs *(q,1) transitively.
  const auto &I = AM->interfaceOf(Use);
  ASSERT_EQ(I.RefPaths.size(), 1u);
  EXPECT_EQ(I.RefPaths[0].first->name(), "q");
}

TEST_F(TransformTest, SideEffectsComposeTransitively) {
  // top -> mid -> leaf: leaf MODs *(p,1); the effect must surface on top's
  // interface through mid's connectors.
  auto AM = analyze(R"(
    void leaf(int *p) { *p = 1; }
    void mid(int *a) { leaf(a); }
    void top(int *x) { mid(x); }
  )");
  const auto &ILeaf = AM->interfaceOf(M->function("leaf"));
  const auto &IMid = AM->interfaceOf(M->function("mid"));
  const auto &ITop = AM->interfaceOf(M->function("top"));
  EXPECT_EQ(ILeaf.ModPaths.size(), 1u);
  EXPECT_EQ(IMid.ModPaths.size(), 1u);
  EXPECT_EQ(ITop.ModPaths.size(), 1u);
}

TEST_F(TransformTest, PaperFigure2BarInterface) {
  // The paper's bar(): REF *(q,1) (the test *q != 0) and MOD *(q,1)
  // (stores of c and b) — exactly one Aux formal parameter X and one Aux
  // return value Y.
  auto AM = analyze(R"(
    void bar(int **q, int *b) {
      int *c = malloc();
      if (*q != 0) {
        *q = c;
        free(c);
      } else {
        int t = 1;
        if (t > 0) { *q = b; }
      }
    }
  )");
  const auto &I = AM->interfaceOf(M->function("bar"));
  ASSERT_EQ(I.RefPaths.size(), 1u);
  EXPECT_EQ(I.RefPaths[0], (pta::ParamPath{M->function("bar")->params()[0], 1}));
  ASSERT_EQ(I.ModPaths.size(), 1u);
  EXPECT_EQ(I.ModPaths[0], (pta::ParamPath{M->function("bar")->params()[0], 1}));
}

TEST_F(TransformTest, TransformedModuleStaysWellFormed) {
  auto AM = analyze(R"(
    void set(int *p, int v) { *p = v; }
    int get(int *p) { return *p; }
    int roundtrip(int *q) {
      set(q, 7);
      return get(q);
    }
  )");
  (void)AM;
  auto Errs = verifyModule(*M, /*ExpectSSA=*/true);
  EXPECT_EQ(Errs.size(), 0u) << (Errs.empty() ? "" : Errs[0]);
}

TEST_F(TransformTest, RecursiveCallsAreNotRewritten) {
  auto AM = analyze(R"(
    void rec(int *p, int n) {
      if (n > 0) { rec(p, n - 1); }
      *p = n;
    }
  )");
  Function *F = M->function("rec");
  const CallStmt *Call = nullptr;
  for (BasicBlock *B : F->blocks())
    for (Stmt *S : B->stmts())
      if (auto *C = dyn_cast<CallStmt>(S))
        Call = C;
  ASSERT_NE(Call, nullptr);
  EXPECT_TRUE(Call->auxReceivers().empty());
  EXPECT_EQ(Call->args().size(), 2u);
  // The function's own MOD is still discovered.
  EXPECT_EQ(AM->interfaceOf(F).ModPaths.size(), 1u);
}

TEST_F(TransformTest, PureFunctionsKeepTheirSignature) {
  auto AM = analyze(R"(
    int add(int a, int b) { return a + b; }
    int use2() { return add(1, 2); }
  )");
  Function *Add = M->function("add");
  EXPECT_TRUE(AM->interfaceOf(Add).RefPaths.empty());
  EXPECT_TRUE(AM->interfaceOf(Add).ModPaths.empty());
  EXPECT_EQ(Add->params().size(), 2u);
}

} // namespace
} // namespace pinpoint::transform
