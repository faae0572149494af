//===- tests/IRTest.cpp - IR, dominators, SSA, call graph, conditions ------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "ir/CallGraph.h"
#include "ir/Conditions.h"
#include "ir/Dominators.h"
#include "ir/SSA.h"
#include "ir/Verifier.h"
#include "smt/Solver.h"
#include "svfa/ReachOracle.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace pinpoint::ir {
namespace {

std::unique_ptr<Module> parse(std::string_view Src) {
  auto M = std::make_unique<Module>();
  std::vector<frontend::Diag> Diags;
  bool OK = frontend::parseModule(Src, *M, Diags);
  for (auto &D : Diags)
    ADD_FAILURE() << D.str();
  EXPECT_TRUE(OK);
  return M;
}

std::unique_ptr<Module> parseSSA(std::string_view Src) {
  auto M = parse(Src);
  for (Function *F : M->functions()) {
    F->recomputeCFGEdges();
    constructSSA(*F);
  }
  return M;
}

//===----------------------------------------------------------------------===
// Types
//===----------------------------------------------------------------------===

TEST(Types, DerefReducesDepth) {
  Type T = Type::ptrTy(3);
  EXPECT_EQ(T.deref().pointerDepth(), 2);
  EXPECT_EQ(T.deref(3), Type::intTy());
  EXPECT_EQ(T.str(), "int***");
}

//===----------------------------------------------------------------------===
// Dominators
//===----------------------------------------------------------------------===

TEST(Dominators, DiamondIdoms) {
  auto M = parse(R"(
    int f(int a) {
      int x = 0;
      if (a > 0) { x = 1; } else { x = 2; }
      return x;
    })");
  Function *F = M->function("f");
  F->recomputeCFGEdges();
  DomTree DT(*F);

  BasicBlock *Entry = F->entry();
  // Find then/else/join by structure.
  auto *Br = cast<BranchStmt>(Entry->terminator());
  BasicBlock *Then = Br->trueBlock();
  BasicBlock *Else = Br->falseBlock();
  ASSERT_EQ(Then->succs().size(), 1u);
  BasicBlock *Join = Then->succs()[0];

  EXPECT_EQ(DT.idom(Then), Entry);
  EXPECT_EQ(DT.idom(Else), Entry);
  EXPECT_EQ(DT.idom(Join), Entry);
  EXPECT_TRUE(DT.dominates(Entry, Join));
  EXPECT_FALSE(DT.dominates(Then, Join));
  EXPECT_TRUE(DT.dominates(Join, Join));
}

TEST(Dominators, PostDominators) {
  auto M = parse(R"(
    int f(int a) {
      int x = 0;
      if (a > 0) { x = 1; }
      return x;
    })");
  Function *F = M->function("f");
  F->recomputeCFGEdges();
  DomTree PDT(*F, DomTree::Direction::Post);
  BasicBlock *Entry = F->entry();
  auto *Br = cast<BranchStmt>(Entry->terminator());
  BasicBlock *Then = Br->trueBlock();
  BasicBlock *Join = Br->falseBlock(); // No else: false edge goes to join.

  EXPECT_TRUE(PDT.dominates(F->exitBlock(), Entry));
  EXPECT_TRUE(PDT.dominates(Join, Then));
  EXPECT_FALSE(PDT.dominates(Then, Entry));
}

TEST(Dominators, RPOStartsAtEntry) {
  auto M = parse("int f(int a) { if (a > 0) { a = 1; } return a; }");
  Function *F = M->function("f");
  F->recomputeCFGEdges();
  auto RPO = reversePostOrder(*F);
  ASSERT_FALSE(RPO.empty());
  EXPECT_EQ(RPO[0], F->entry());
  // RPO is topological on this acyclic CFG: each block precedes its succs.
  std::map<BasicBlock *, size_t> Pos;
  for (size_t I = 0; I < RPO.size(); ++I)
    Pos[RPO[I]] = I;
  for (BasicBlock *B : RPO)
    for (BasicBlock *S : B->succs())
      EXPECT_LT(Pos[B], Pos[S]);
}

/// True when a CFG path leads from \p From to \p To without entering
/// \p Avoid (From == To counts as a path).
bool pathAvoiding(const BasicBlock *From, const BasicBlock *To,
                  const BasicBlock *Avoid) {
  std::vector<const BasicBlock *> Work{From}, Seen;
  while (!Work.empty()) {
    const BasicBlock *B = Work.back();
    Work.pop_back();
    if (B == Avoid || std::find(Seen.begin(), Seen.end(), B) != Seen.end())
      continue;
    if (B == To)
      return true;
    Seen.push_back(B);
    Work.insert(Work.end(), B->succs().begin(), B->succs().end());
  }
  return false;
}

TEST(Dominators, BlockIdGapsMatchBruteForce) {
  // The dead code after the early returns is dropped by
  // removeUnreachableBlocks, which leaves gaps in the block ids. Every
  // table indexed by block id must still agree with brute force.
  auto M = parseSSA(R"(
    int f(int *p, int a, int b) {
      int x = 0;
      if (a > 0) {
        return 1;
        x = 5;
        if (b > 0) { x = 6; }
      }
      if (b > 0) {
        x = 2;
        if (a < 5) { free(p); return x; x = 9; }
      } else {
        x = 3;
      }
      int y = *p;
      return x + y;
    })");
  Function *F = M->function("f");
  ASSERT_LT(F->blocks().size() + 2, F->blockIdBound());
  smt::ExprContext Ctx;
  SymbolMap Syms(*M, Ctx);
  ConditionMap CM(*F, Syms);
  const DomTree &DT = CM.domTree();
  const DomTree PDT(*F, DomTree::Direction::Post);
  BasicBlock *Entry = F->entry(), *Exit = F->exitBlock();
  auto dom = [&](const BasicBlock *A, const BasicBlock *B) {
    return A == B || !pathAvoiding(Entry, B, A);
  };
  auto pdom = [&](const BasicBlock *A, const BasicBlock *B) {
    return A == B || !pathAvoiding(B, Exit, A);
  };

  for (const BasicBlock *A : F->blocks())
    for (const BasicBlock *B : F->blocks()) {
      EXPECT_EQ(DT.dominates(A, B), dom(A, B)) << A->name() << B->name();
      EXPECT_EQ(PDT.dominates(A, B), pdom(A, B)) << A->name() << B->name();
    }
  for (const BasicBlock *B : F->blocks()) {
    // The immediate (post-)dominator is the strict one every other strict
    // (post-)dominator (post-)dominates.
    for (const BasicBlock *A : F->blocks()) {
      if (A != B && dom(A, B))
        EXPECT_TRUE(dom(A, DT.idom(B))) << B->name();
      if (A != B && pdom(A, B))
        EXPECT_TRUE(pdom(A, PDT.idom(B))) << B->name();
    }
    EXPECT_EQ(DT.idom(B) == nullptr, B == Entry);
    EXPECT_EQ(PDT.idom(B) == nullptr, B == Exit);
  }

  // FOW: B depends on the edge A -> S when B post-dominates S but not A.
  for (const BasicBlock *B : F->blocks()) {
    std::vector<std::pair<uint32_t, bool>> Expected, Actual;
    for (const BasicBlock *A : F->blocks()) {
      const auto *Br = dyn_cast_or_null<BranchStmt>(A->terminator());
      if (!Br || Br->trueBlock() == Br->falseBlock() ||
          !isa<Variable>(Br->cond()))
        continue;
      for (bool Polarity : {true, false})
        if (pdom(B, Polarity ? Br->trueBlock() : Br->falseBlock()) &&
            !pdom(B, A))
          Expected.push_back({cast<Variable>(Br->cond())->id(), Polarity});
    }
    for (const ControlDep &CD : CM.controlDeps(B))
      Actual.push_back({CD.BranchVar->id(), CD.Polarity});
    std::sort(Expected.begin(), Expected.end());
    std::sort(Actual.begin(), Actual.end());
    EXPECT_EQ(Actual, Expected) << B->name();
  }

  // Reachability strictly after a statement.
  svfa::ReachOracle RO(*F);
  for (const BasicBlock *BA : F->blocks())
    for (const Stmt *A : BA->stmts())
      for (const BasicBlock *BB : F->blocks())
        for (const Stmt *B : BB->stmts()) {
          bool Expected = false;
          if (BA == BB) {
            const auto &Ss = BA->stmts();
            Expected = std::find(Ss.begin(), Ss.end(), A) <
                       std::find(Ss.begin(), Ss.end(), B);
          } else {
            for (const BasicBlock *S : BA->succs())
              Expected |= pathAvoiding(S, BB, nullptr);
          }
          EXPECT_EQ(RO.reaches(A, B), Expected)
              << F->stmtOrder(A) << " -> " << F->stmtOrder(B);
        }
}

//===----------------------------------------------------------------------===
// SSA
//===----------------------------------------------------------------------===

TEST(SSA, VerifiesAfterConstruction) {
  auto M = parseSSA(R"(
    int f(int a, int b) {
      int x = 0;
      if (a > b) { x = a; } else { x = b; }
      int y = x + 1;
      if (y > 10) { y = 10; }
      return y;
    })");
  auto Errs = verifyModule(*M, /*ExpectSSA=*/true);
  EXPECT_EQ(Errs.size(), 0u) << (Errs.empty() ? "" : Errs[0]);
}

TEST(SSA, PlacesPhiAtJoin) {
  auto M = parseSSA(R"(
    int f(int a) {
      int x = 0;
      if (a > 0) { x = 1; } else { x = 2; }
      return x;
    })");
  Function *F = M->function("f");
  int Phis = 0;
  for (BasicBlock *B : F->blocks())
    for (Stmt *S : B->stmts())
      if (auto *Phi = dyn_cast<PhiStmt>(S)) {
        ++Phis;
        EXPECT_EQ(Phi->incoming().size(), 2u);
      }
  EXPECT_GE(Phis, 1);
}

TEST(SSA, NoPhiForStraightLine) {
  auto M = parseSSA(R"(
    int f(int a) {
      int x = a;
      x = x + 1;
      x = x + 2;
      return x;
    })");
  Function *F = M->function("f");
  for (BasicBlock *B : F->blocks())
    for (Stmt *S : B->stmts())
      EXPECT_FALSE(isa<PhiStmt>(S));
  EXPECT_EQ(verifyModule(*M, true).size(), 0u);
}

TEST(SSA, SingleDefInOneBranchStillGetsPhi) {
  // x defined in entry and redefined in the then-branch only: the join
  // still needs a phi.
  auto M = parseSSA(R"(
    int f(int a) {
      int x = 0;
      if (a > 0) { x = 1; }
      return x;
    })");
  Function *F = M->function("f");
  int Phis = 0;
  for (BasicBlock *B : F->blocks())
    for (Stmt *S : B->stmts())
      if (isa<PhiStmt>(S))
        ++Phis;
  EXPECT_GE(Phis, 1);
  EXPECT_EQ(verifyModule(*M, true).size(), 0u);
}

TEST(SSA, ParamsKeepTheirIdentity) {
  auto M = parseSSA("int f(int a) { return a; }");
  Function *F = M->function("f");
  Variable *A = F->params()[0];
  auto *Ret = F->returnStmt();
  ASSERT_NE(Ret, nullptr);
  ASSERT_EQ(Ret->values().size(), 1u);
  // retval = a; return retval — the assignment's source is still `a`.
  bool FoundParamUse = false;
  for (BasicBlock *B : F->blocks())
    for (Stmt *S : B->stmts())
      if (auto *As = dyn_cast<AssignStmt>(S))
        if (As->src() == A)
          FoundParamUse = true;
  EXPECT_TRUE(FoundParamUse);
}

TEST(SSA, DefPointersAreSet) {
  auto M = parseSSA(R"(
    int f(int a) {
      int x = a + 1;
      return x;
    })");
  Function *F = M->function("f");
  for (BasicBlock *B : F->blocks())
    for (Stmt *S : B->stmts())
      if (Variable *D = S->definedVar())
        EXPECT_EQ(D->def(), S);
}

TEST(SSA, StmtOrderIsTopological) {
  auto M = parseSSA(R"(
    int f(int a) {
      int x = 0;
      if (a > 0) { x = 1; } else { x = 2; }
      return x;
    })");
  Function *F = M->function("f");
  ASSERT_TRUE(F->hasStmtOrder());
  // Defs precede uses in the order.
  for (BasicBlock *B : F->blocks())
    for (Stmt *S : B->stmts()) {
      if (auto *As = dyn_cast<AssignStmt>(S))
        if (auto *V = dyn_cast<Variable>(As->src()))
          if (V->def())
            EXPECT_LT(F->stmtOrder(V->def()), F->stmtOrder(S));
    }
}

//===----------------------------------------------------------------------===
// CallGraph
//===----------------------------------------------------------------------===

TEST(CallGraphTest, BottomUpOrderPutsCalleesFirst) {
  auto M = parse(R"(
    void leaf() { }
    void mid() { leaf(); }
    void top() { mid(); leaf(); }
  )");
  CallGraph CG(*M);
  auto &Order = CG.bottomUpOrder();
  std::map<std::string, size_t> Pos;
  for (size_t I = 0; I < Order.size(); ++I)
    Pos[Order[I]->name()] = I;
  EXPECT_LT(Pos["leaf"], Pos["mid"]);
  EXPECT_LT(Pos["mid"], Pos["top"]);
  EXPECT_EQ(CG.numSCCs(), 3u);
}

TEST(CallGraphTest, ResolvesCalleePointers) {
  auto M = parse(R"(
    void callee() { }
    void caller() { callee(); unknown_external(); }
  )");
  Function *Caller = M->function("caller");
  Function *Callee = M->function("callee");
  CallGraph CG(*M);
  // The defined callee resolves; the external stays unresolved.
  std::vector<const Function *> Targets;
  for (const BasicBlock *B : Caller->blocks())
    for (const Stmt *S : B->stmts())
      if (const auto *Call = dyn_cast<CallStmt>(S))
        Targets.push_back(Call->callee());
  EXPECT_EQ(Targets, (std::vector<const Function *>{Callee, nullptr}));
  // Only the resolved call is an edge of the condensation.
  const Span<uint32_t> Row = CG.sccs()[CG.sccOf(Caller)].CalleeSCCs;
  EXPECT_EQ(std::vector<uint32_t>(Row.begin(), Row.end()),
            (std::vector<uint32_t>{static_cast<uint32_t>(CG.sccOf(Callee))}));
  EXPECT_TRUE(CG.sccs()[CG.sccOf(Callee)].CalleeSCCs.empty());
  EXPECT_EQ(CG.bottomUpOrder(), (std::vector<Function *>{Callee, Caller}));
}

TEST(CallGraphTest, RecursionFormsSCC) {
  auto M = parse(R"(
    void a() { b(); }
    void b() { a(); }
    void main2() { a(); }
  )");
  CallGraph CG(*M);
  EXPECT_TRUE(CG.inSameSCC(M->function("a"), M->function("b")));
  EXPECT_FALSE(CG.inSameSCC(M->function("a"), M->function("main2")));
  EXPECT_EQ(CG.numSCCs(), 2u);
}

TEST(CallGraphTest, ForwardReferencesFollowFunctionIds) {
  // Callers come before their callees. Tarjan starts from the functions in
  // id order and walks callees in id order, so the bottom-up order, the
  // SCC ids and the callee-SCC rows follow the program text, not
  // addresses.
  auto M = parse(R"(
    void top() { c(); a(); e(); b(); c(); }
    void b() { a(); }
    void a() { }
    void c() { }
    void d() { e(); }
    void e() { d(); }
  )");
  CallGraph CG(*M);
  auto names = [](const std::vector<Function *> &Fns) {
    std::vector<std::string> Out;
    for (const Function *F : Fns)
      Out.push_back(F->name());
    return Out;
  };
  using Names = std::vector<std::string>;
  // Every call resolves to the function it names, defined later or not.
  std::vector<Function *> TopTargets;
  for (const BasicBlock *B : M->function("top")->blocks())
    for (const Stmt *S : B->stmts())
      if (const auto *Call = dyn_cast<CallStmt>(S))
        TopTargets.push_back(Call->callee());
  EXPECT_EQ(names(TopTargets), (Names{"c", "a", "e", "b", "c"}));
  EXPECT_EQ(names(CG.bottomUpOrder()),
            (Names{"a", "b", "c", "d", "e", "top"}));

  ASSERT_EQ(CG.numSCCs(), 5u);
  for (const char *Name : {"a", "b", "c"})
    EXPECT_EQ(names(std::vector<Function *>(
                  CG.sccs()[CG.sccOf(M->function(Name))].Members.begin(),
                  CG.sccs()[CG.sccOf(M->function(Name))].Members.end())),
              Names{Name});
  EXPECT_EQ(CG.sccOf(M->function("a")), 0u);
  EXPECT_EQ(CG.sccOf(M->function("b")), 1u);
  EXPECT_EQ(CG.sccOf(M->function("c")), 2u);
  EXPECT_EQ(CG.sccOf(M->function("d")), 3u);
  EXPECT_EQ(CG.sccOf(M->function("e")), 3u);
  EXPECT_EQ(CG.sccOf(M->function("top")), 4u);
  auto calleeSCCs = [&](size_t SCC) {
    const Span<uint32_t> Row = CG.sccs()[SCC].CalleeSCCs;
    return std::vector<uint32_t>(Row.begin(), Row.end());
  };
  EXPECT_EQ(calleeSCCs(4), (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(calleeSCCs(1), (std::vector<uint32_t>{0}));
  // d and e call only each other: no edge leaves their SCC.
  EXPECT_TRUE(calleeSCCs(3).empty());
}

//===----------------------------------------------------------------------===
// Conditions (gated SSA + control dependence)
//===----------------------------------------------------------------------===

class ConditionsTest : public ::testing::Test {
protected:
  smt::ExprContext Ctx;
};

TEST_F(ConditionsTest, PhiGatesAreComplementary) {
  auto M = parseSSA(R"(
    int f(int a) {
      int x = 0;
      if (a > 0) { x = 1; } else { x = 2; }
      return x;
    })");
  Function *F = M->function("f");
  SymbolMap Syms(*M, Ctx);
  ConditionMap CM(*F, Syms);

  const PhiStmt *Phi = nullptr;
  for (BasicBlock *B : F->blocks())
    for (Stmt *S : B->stmts())
      if (auto *P = dyn_cast<PhiStmt>(S))
        Phi = P;
  ASSERT_NE(Phi, nullptr);
  ASSERT_EQ(Phi->incoming().size(), 2u);

  const smt::Expr *G0 = CM.phiGate(Phi, Phi->incoming()[0].first);
  const smt::Expr *G1 = CM.phiGate(Phi, Phi->incoming()[1].first);
  // Gates must be θ and ¬θ for a diamond.
  EXPECT_EQ(Ctx.mkOr(G0, G1), Ctx.getTrue());
  EXPECT_EQ(Ctx.mkAnd(G0, G1), Ctx.getFalse());
}

TEST_F(ConditionsTest, EdgeCondsUseBranchVariable) {
  auto M = parseSSA(R"(
    int f(bool t) {
      int x = 0;
      if (t) { x = 1; }
      return x;
    })");
  Function *F = M->function("f");
  SymbolMap Syms(*M, Ctx);
  ConditionMap CM(*F, Syms);

  auto *Br = cast<BranchStmt>(F->entry()->terminator());
  const smt::Expr *TrueEdge = CM.edgeCond(F->entry(), Br->trueBlock());
  const smt::Expr *FalseEdge = CM.edgeCond(F->entry(), Br->falseBlock());
  EXPECT_EQ(TrueEdge, Syms[Br->cond()]);
  EXPECT_EQ(FalseEdge, Ctx.mkNot(TrueEdge));
}

TEST_F(ConditionsTest, ReachCondOfJoinIsTrue) {
  auto M = parseSSA(R"(
    int f(bool t) {
      int x = 0;
      if (t) { x = 1; } else { x = 2; }
      return x;
    })");
  Function *F = M->function("f");
  SymbolMap Syms(*M, Ctx);
  ConditionMap CM(*F, Syms);
  // The join and exit are reached unconditionally: θ ∨ ¬θ folds to true.
  EXPECT_EQ(CM.reachCond(F->entry(), F->exitBlock()), Ctx.getTrue());
}

TEST_F(ConditionsTest, ReachCondOfBranchSideIsLiteral) {
  auto M = parseSSA(R"(
    int f(bool t) {
      int x = 0;
      if (t) { x = 1; }
      return x;
    })");
  Function *F = M->function("f");
  SymbolMap Syms(*M, Ctx);
  ConditionMap CM(*F, Syms);
  auto *Br = cast<BranchStmt>(F->entry()->terminator());
  const smt::Expr *RC = CM.reachCond(F->entry(), Br->trueBlock());
  EXPECT_EQ(RC, Syms[Br->cond()]);
}

TEST_F(ConditionsTest, ControlDepsOfNestedBranches) {
  auto M = parseSSA(R"(
    int f(bool t, bool u) {
      int x = 0;
      if (t) {
        if (u) { x = 1; }
      }
      return x;
    })");
  Function *F = M->function("f");
  SymbolMap Syms(*M, Ctx);
  ConditionMap CM(*F, Syms);

  auto *OuterBr = cast<BranchStmt>(F->entry()->terminator());
  BasicBlock *OuterThen = OuterBr->trueBlock();
  auto *InnerBr = cast<BranchStmt>(OuterThen->terminator());
  BasicBlock *InnerThen = InnerBr->trueBlock();

  // Inner then-block is control dependent on the inner branch (true edge);
  // the outer then-block on the outer branch.
  const auto &CDInner = CM.controlDeps(InnerThen);
  ASSERT_EQ(CDInner.size(), 1u);
  EXPECT_EQ(CDInner[0].BranchVar, cast<Variable>(InnerBr->cond()));
  EXPECT_TRUE(CDInner[0].Polarity);

  const auto &CDOuter = CM.controlDeps(OuterThen);
  ASSERT_EQ(CDOuter.size(), 1u);
  EXPECT_EQ(CDOuter[0].BranchVar, cast<Variable>(OuterBr->cond()));

  // The exit block is control dependent on nothing.
  EXPECT_TRUE(CM.controlDeps(F->exitBlock()).empty());
}

TEST_F(ConditionsTest, JoinBlockHasNoControlDeps) {
  auto M = parseSSA(R"(
    int f(bool t) {
      int x = 0;
      if (t) { x = 1; } else { x = 2; }
      return x;
    })");
  Function *F = M->function("f");
  SymbolMap Syms(*M, Ctx);
  ConditionMap CM(*F, Syms);
  auto *Br = cast<BranchStmt>(F->entry()->terminator());
  BasicBlock *Join = Br->trueBlock()->succs()[0];
  EXPECT_TRUE(CM.controlDeps(Join).empty());
  EXPECT_EQ(CM.controlDeps(Br->trueBlock()).size(), 1u);
  EXPECT_EQ(CM.controlDeps(Br->falseBlock()).size(), 1u);
}

TEST_F(ConditionsTest, SymbolMapTypesFollowIR) {
  auto M = parseSSA("int f(bool t, int x, int *p) { return x; }");
  Function *F = M->function("f");
  SymbolMap Syms(*M, Ctx);
  EXPECT_TRUE(Syms[F->params()[0]]->isBool());
  EXPECT_FALSE(Syms[F->params()[1]]->isBool());
  EXPECT_FALSE(Syms[F->params()[2]]->isBool()); // Pointers are int terms.
  // Stable mapping.
  EXPECT_EQ(Syms[F->params()[0]], Syms[F->params()[0]]);
}

} // namespace
} // namespace pinpoint::ir
