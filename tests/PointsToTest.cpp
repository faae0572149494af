//===- tests/PointsToTest.cpp - Quasi path-sensitive PTA tests -------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "ir/SSA.h"
#include "pta/PointsTo.h"
#include "smt/Solver.h"

#include <gtest/gtest.h>

using namespace pinpoint::ir;

namespace pinpoint::pta {
namespace {

class PTATest : public ::testing::Test {
protected:
  /// Parses, SSA-converts, and analyses one function.
  PointsToResult analyze(std::string_view Src, const std::string &Fn = "f",
                         PTAConfig Config = {}) {
    M = std::make_unique<Module>();
    std::vector<frontend::Diag> Diags;
    bool OK = frontend::parseModule(Src, *M, Diags);
    for (auto &D : Diags)
      ADD_FAILURE() << D.str();
    EXPECT_TRUE(OK);
    F = M->function(Fn);
    EXPECT_NE(F, nullptr);
    F->recomputeCFGEdges();
    constructSSA(*F);
    Syms = std::make_unique<SymbolMap>(*M, Ctx);
    Conds = std::make_unique<ConditionMap>(*F, *Syms);
    return runPointsTo(*F, *Syms, *Conds, Config);
  }

  /// Finds the single load with the given deref count.
  const LoadStmt *findLoad(uint32_t Derefs = 1, int Skip = 0) {
    for (BasicBlock *B : F->blocks())
      for (Stmt *S : B->stmts())
        if (auto *L = dyn_cast<LoadStmt>(S))
          if (L->derefs() == Derefs && Skip-- == 0)
            return L;
    return nullptr;
  }

  /// True when \p P occurs exactly once in \p Paths.
  static bool has(const std::vector<ParamPath> &Paths, ParamPath P) {
    return std::count(Paths.begin(), Paths.end(), P) == 1;
  }

  /// Names of IR values in the dep set (initial contents print as "<init>").
  std::vector<std::string> depNames(const ValSet &Deps) {
    std::vector<std::string> Out;
    for (auto &[CV, C] : Deps)
      Out.push_back(CV.isInitial() ? "<init>" : CV.V->str());
    std::sort(Out.begin(), Out.end());
    return Out;
  }

  smt::ExprContext Ctx;
  std::unique_ptr<Module> M;
  Function *F = nullptr;
  std::unique_ptr<SymbolMap> Syms;
  std::unique_ptr<ConditionMap> Conds;
};

TEST_F(PTATest, MallocStoreLoadConnects) {
  auto R = analyze(R"(
    int f(int *a) {
      int **ptr = malloc();
      *ptr = a;
      int *v = *ptr;
      return *v;
    })");
  const LoadStmt *L = findLoad(1);
  ASSERT_NE(L, nullptr);
  const ValSet &Deps = R.loadDeps(L);
  ASSERT_EQ(Deps.size(), 1u);
  EXPECT_FALSE(Deps[0].Item.isInitial());
  EXPECT_EQ(Deps[0].Item.V, F->params()[0]);
  EXPECT_TRUE(Deps[0].Cond->isTrue());
}

TEST_F(PTATest, StrongUpdateKillsOldContents) {
  auto R = analyze(R"(
    int f(int *a, int *b) {
      int **h = malloc();
      *h = a;
      *h = b;
      int *v = *h;
      return *v;
    })");
  const LoadStmt *L = findLoad(1);
  ASSERT_NE(L, nullptr);
  EXPECT_EQ(depNames(R.loadDeps(L)), std::vector<std::string>{"b"});
}

TEST_F(PTATest, ConditionalStoreYieldsConditionalDeps) {
  // Paper Figure 2(b): contents of *ptr after the diamond are
  // {(stored-in-then, θ), (stored-before, ¬θ)}.
  auto R = analyze(R"(
    int f(bool t, int *a, int *b) {
      int **h = malloc();
      *h = a;
      if (t) { *h = b; }
      int *v = *h;
      return *v;
    })");
  const LoadStmt *L = findLoad(1);
  ASSERT_NE(L, nullptr);
  const ValSet &Deps = R.loadDeps(L);
  ASSERT_EQ(Deps.size(), 2u);
  std::vector<std::string> Names = depNames(Deps);
  EXPECT_EQ(Names, (std::vector<std::string>{"a", "b"}));
  // Conditions must be complementary: one θ, one ¬θ.
  const smt::Expr *CondA = nullptr, *CondB = nullptr;
  for (auto &[CV, C] : Deps)
    (CV.V->str() == "a" ? CondA : CondB) = C;
  EXPECT_EQ(Ctx.mkOr(CondA, CondB), Ctx.getTrue());
  EXPECT_EQ(Ctx.mkAnd(CondA, CondB), Ctx.getFalse());
}

TEST_F(PTATest, QuasiPathSensitivityPrunesContradictoryChains) {
  // Same branch variable tested twice: the value stored under t in the
  // first diamond cannot survive into the else-arm of the second.
  auto R = analyze(R"(
    int f(bool t, int *a, int *b, int *c) {
      int **h = malloc();
      *h = a;
      if (t) { *h = b; }
      if (t) { *h = c; }
      int *v = *h;
      return *v;
    })");
  const LoadStmt *L = findLoad(1);
  ASSERT_NE(L, nullptr);
  // b is dead: on the t path it is overwritten by c, on the ¬t path it was
  // never stored. Only the linear filter sees this (no SMT involved).
  EXPECT_EQ(depNames(R.loadDeps(L)), (std::vector<std::string>{"a", "c"}));
  EXPECT_GT(R.condsPruned(), 0u);
}

TEST_F(PTATest, RefDiscoveredForParameterLoads) {
  auto R = analyze(R"(
    int f(int **q) {
      int *v = *q;
      return *v;
    })");
  // *q is REF(q,1); *v dereferences the loaded value, whose initial target
  // is *(q,2) — REF(q,2).
  const Variable *Q = F->params()[0];
  EXPECT_TRUE(has(R.refs(), {Q, 1}));
  EXPECT_TRUE(has(R.refs(), {Q, 2}));
  EXPECT_TRUE(R.mods().empty());
}

TEST_F(PTATest, ModDiscoveredForParameterStores) {
  auto R = analyze(R"(
    void f(int **q, int *x) {
      *q = x;
    })");
  const Variable *Q = F->params()[0];
  EXPECT_TRUE(has(R.mods(), {Q, 1}));
  EXPECT_TRUE(R.refs().empty());
}

TEST_F(PTATest, PaperBarFunctionModRef) {
  // The paper's bar(): a load (*q != 0) and two stores *q = c / *q = b.
  auto R = analyze(R"(
    void f(int **q, int *b) {
      int *c = malloc();
      if (*q != 0) {
        *q = c; free(c);
      } else {
        int t = 1;
        if (t > 0) { *q = b; }
      }
    })");
  const Variable *Q = F->params()[0];
  EXPECT_TRUE(has(R.refs(), {Q, 1}));
  EXPECT_TRUE(has(R.mods(), {Q, 1}));
}

TEST_F(PTATest, TwoLevelStoreAndLoad) {
  auto R = analyze(R"(
    int f(int **q, int x) {
      **q = x;
      int v = **q;
      return v;
    })");
  const LoadStmt *L = findLoad(2);
  ASSERT_NE(L, nullptr);
  EXPECT_EQ(depNames(R.loadDeps(L)), std::vector<std::string>{"x"});
  const Variable *Q = F->params()[0];
  EXPECT_TRUE(has(R.mods(), {Q, 2}));
}

TEST_F(PTATest, PointerPhiMergesTargets) {
  auto R = analyze(R"(
    void f(bool t, int *a, int *b, int x) {
      int *p = a;
      if (t) { } else { p = b; }
      *p = x;
    })");
  // The store through the phi'd pointer MODs both *(a,1) and *(b,1).
  const Variable *A = F->params()[1];
  const Variable *B = F->params()[2];
  EXPECT_TRUE(has(R.mods(), {A, 1}));
  EXPECT_TRUE(has(R.mods(), {B, 1}));
}

TEST_F(PTATest, OpaqueCalleePointerStillConnectsLocally) {
  auto R = analyze(R"(
    int f(int x) {
      int *r = mystery();
      *r = x;
      int v = *r;
      return v;
    })");
  const LoadStmt *L = findLoad(1);
  ASSERT_NE(L, nullptr);
  EXPECT_EQ(depNames(R.loadDeps(L)), std::vector<std::string>{"x"});
  // No parameter is involved: no REF/MOD.
  EXPECT_TRUE(R.refs().empty());
  EXPECT_TRUE(R.mods().empty());
}

TEST_F(PTATest, LoadOfUninitialisedMallocIsUnconstrained) {
  auto R = analyze(R"(
    int f() {
      int **h = malloc();
      int *v = *h;
      return *v;
    })");
  const LoadStmt *L = findLoad(1);
  ASSERT_NE(L, nullptr);
  const ValSet &Deps = R.loadDeps(L);
  ASSERT_EQ(Deps.size(), 1u);
  EXPECT_TRUE(Deps[0].Item.isInitial());
}

TEST_F(PTATest, AuxParamBindingRedirectsPointsTo) {
  // Simulate the post-transform world: F is an extra parameter bound to
  // *(q,1); dereferencing F must read *(q,2).
  auto R0 = analyze(R"(
    int f(int **q, int *auxF) {
      int v = *auxF;
      return v;
    })");
  (void)R0;
  // Re-run with the binding in place.
  PTAConfig Config;
  Config.AuxParams.resize(F->vars().size());
  Config.AuxParams[F->params()[1]->id()] = {F->params()[0], 1};
  Syms = std::make_unique<SymbolMap>(*M, Ctx);
  Conds = std::make_unique<ConditionMap>(*F, *Syms);
  auto R = runPointsTo(*F, *Syms, *Conds, Config);
  const Variable *Q = F->params()[0];
  EXPECT_TRUE(has(R.refs(), {Q, 2}));
}

TEST_F(PTATest, PointsToSetsExposedPerVariable) {
  auto R = analyze(R"(
    void f(int *a) {
      int **h = malloc();
      *h = a;
    })");
  // h points to the malloc cell.
  const Variable *H = nullptr;
  for (const Variable *V : F->vars())
    if (V->type().pointerDepth() == 2 && V->def())
      H = V;
  ASSERT_NE(H, nullptr);
  const PtsSet &Pts = R.pointsTo(H);
  ASSERT_EQ(Pts.size(), 1u);
  EXPECT_EQ(Pts[0].Item->kind(), MemObject::Alloc);
}

TEST_F(PTATest, LinearFilterCanBeDisabled) {
  PTAConfig Config;
  Config.UseLinearFilter = false;
  auto R = analyze(R"(
    int f(bool t, int *a, int *b, int *c) {
      int **h = malloc();
      *h = a;
      if (t) { *h = b; }
      if (t) { *h = c; }
      int *v = *h;
      return *v;
    })",
                   "f", Config);
  const LoadStmt *L = findLoad(1);
  ASSERT_NE(L, nullptr);
  // Without pruning, the stale b entry survives (with an UNSAT condition).
  EXPECT_EQ(depNames(R.loadDeps(L)),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(R.condsPruned(), 0u);
}

TEST_F(PTATest, DepConditionsAreSMTCheckable) {
  // End-to-end sanity: the condition on the pruned-looking-but-feasible
  // dependence is SAT, the contradictory one is caught by Z3/mini too.
  auto R = analyze(R"(
    int f(bool t, int *a, int *b) {
      int **h = malloc();
      *h = a;
      if (t) { *h = b; }
      int *v = *h;
      return *v;
    })");
  const LoadStmt *L = findLoad(1);
  auto Solver = smt::createDefaultSolver(Ctx);
  for (auto &[CV, C] : R.loadDeps(L))
    EXPECT_EQ(Solver->checkSat(C), smt::SatResult::Sat);
}

} // namespace
} // namespace pinpoint::pta
