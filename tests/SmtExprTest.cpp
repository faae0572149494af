//===- tests/SmtExprTest.cpp - Unit tests for the Expr DAG -----------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "smt/Expr.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace pinpoint::smt {
namespace {

class ExprTest : public ::testing::Test {
protected:
  ExprContext Ctx;
};

TEST_F(ExprTest, HashConsingDeduplicates) {
  const Expr *A = Ctx.freshBoolVar();
  const Expr *B = Ctx.freshBoolVar();
  const Expr *E1 = Ctx.mkAnd(A, B);
  const Expr *E2 = Ctx.mkAnd(A, B);
  EXPECT_EQ(E1, E2);
}

TEST_F(ExprTest, AndIsCanonicalisedByOperandOrder) {
  const Expr *A = Ctx.freshBoolVar();
  const Expr *B = Ctx.freshBoolVar();
  EXPECT_EQ(Ctx.mkAnd(A, B), Ctx.mkAnd(B, A));
  EXPECT_EQ(Ctx.mkOr(A, B), Ctx.mkOr(B, A));
}

TEST_F(ExprTest, BooleanSimplifications) {
  const Expr *A = Ctx.freshBoolVar();
  EXPECT_EQ(Ctx.mkAnd(Ctx.getTrue(), A), A);
  EXPECT_EQ(Ctx.mkAnd(Ctx.getFalse(), A), Ctx.getFalse());
  EXPECT_EQ(Ctx.mkOr(Ctx.getFalse(), A), A);
  EXPECT_EQ(Ctx.mkOr(Ctx.getTrue(), A), Ctx.getTrue());
  EXPECT_EQ(Ctx.mkAnd(A, A), A);
  EXPECT_EQ(Ctx.mkOr(A, A), A);
}

TEST_F(ExprTest, DoubleNegationCancels) {
  const Expr *A = Ctx.freshBoolVar();
  EXPECT_EQ(Ctx.mkNot(Ctx.mkNot(A)), A);
  EXPECT_EQ(Ctx.mkNot(Ctx.getTrue()), Ctx.getFalse());
}

TEST_F(ExprTest, ContradictionFoldsToFalse) {
  const Expr *A = Ctx.freshBoolVar();
  EXPECT_EQ(Ctx.mkAnd(A, Ctx.mkNot(A)), Ctx.getFalse());
  EXPECT_EQ(Ctx.mkOr(A, Ctx.mkNot(A)), Ctx.getTrue());
}

TEST_F(ExprTest, IntConstInterning) {
  EXPECT_EQ(Ctx.getInt(42), Ctx.getInt(42));
  EXPECT_NE(Ctx.getInt(42), Ctx.getInt(43));
}

TEST_F(ExprTest, ComparisonConstantFolding) {
  const Expr *C1 = Ctx.getInt(1);
  const Expr *C2 = Ctx.getInt(2);
  EXPECT_EQ(Ctx.mkCmp(ExprKind::Lt, C1, C2), Ctx.getTrue());
  EXPECT_EQ(Ctx.mkCmp(ExprKind::Gt, C1, C2), Ctx.getFalse());
  EXPECT_EQ(Ctx.mkCmp(ExprKind::Eq, C1, C1), Ctx.getTrue());
  EXPECT_EQ(Ctx.mkCmp(ExprKind::Ne, C1, C2), Ctx.getTrue());
}

TEST_F(ExprTest, ReflexiveComparisonsFold) {
  const Expr *X = Ctx.freshIntVar();
  EXPECT_EQ(Ctx.mkCmp(ExprKind::Eq, X, X), Ctx.getTrue());
  EXPECT_EQ(Ctx.mkCmp(ExprKind::Ne, X, X), Ctx.getFalse());
  EXPECT_EQ(Ctx.mkCmp(ExprKind::Le, X, X), Ctx.getTrue());
  EXPECT_EQ(Ctx.mkCmp(ExprKind::Lt, X, X), Ctx.getFalse());
}

TEST_F(ExprTest, ArithConstantFolding) {
  const Expr *C2 = Ctx.getInt(2);
  const Expr *C3 = Ctx.getInt(3);
  EXPECT_EQ(Ctx.mkArith(ExprKind::Add, C2, C3), Ctx.getInt(5));
  EXPECT_EQ(Ctx.mkArith(ExprKind::Sub, C2, C3), Ctx.getInt(-1));
  EXPECT_EQ(Ctx.mkArith(ExprKind::Mul, C2, C3), Ctx.getInt(6));
  EXPECT_EQ(Ctx.mkNeg(C3), Ctx.getInt(-3));
}

TEST_F(ExprTest, NegNegCancels) {
  const Expr *X = Ctx.freshIntVar();
  EXPECT_EQ(Ctx.mkNeg(Ctx.mkNeg(X)), X);
}

TEST_F(ExprTest, AtomClassification) {
  const Expr *A = Ctx.freshBoolVar();
  const Expr *X = Ctx.freshIntVar();
  const Expr *Cmp = Ctx.mkCmp(ExprKind::Lt, X, Ctx.getInt(5));
  EXPECT_TRUE(A->isAtom());
  EXPECT_TRUE(Cmp->isAtom());
  EXPECT_FALSE(Ctx.mkAnd(A, Cmp)->isAtom());
  EXPECT_FALSE(Ctx.getTrue()->isAtom());
  EXPECT_FALSE(X->isAtom()); // Int-typed, not a boolean atom.
}

TEST_F(ExprTest, SubstituteReplacesVariables) {
  const Expr *X = Ctx.freshIntVar();
  const Expr *Y = Ctx.freshIntVar();
  const Expr *F = Ctx.mkCmp(ExprKind::Lt, X, Y);
  SubstScratch S;
  S.mapVar(X->varId(), Ctx.getInt(1));
  const Expr *G = Ctx.substitute(F, S);
  EXPECT_EQ(G, Ctx.mkCmp(ExprKind::Lt, Ctx.getInt(1), Y));
}

TEST_F(ExprTest, SubstituteSimplifiesResult) {
  const Expr *X = Ctx.freshIntVar();
  const Expr *F = Ctx.mkCmp(ExprKind::Lt, X, Ctx.getInt(5));
  SubstScratch S;
  S.mapVar(X->varId(), Ctx.getInt(1));
  EXPECT_EQ(Ctx.substitute(F, S), Ctx.getTrue());
}

TEST_F(ExprTest, SubstituteIsIdentityWithoutHits) {
  const Expr *A = Ctx.freshBoolVar();
  const Expr *B = Ctx.freshBoolVar();
  const Expr *F = Ctx.mkOr(A, Ctx.mkNot(B));
  SubstScratch Empty;
  EXPECT_EQ(Ctx.substitute(F, Empty), F);
}

TEST_F(ExprTest, CollectVarsFindsAllDistinctVars) {
  const Expr *A = Ctx.freshBoolVar();
  const Expr *X = Ctx.freshIntVar();
  const Expr *F =
      Ctx.mkAnd(A, Ctx.mkAnd(Ctx.mkCmp(ExprKind::Lt, X, Ctx.getInt(3)), A));
  std::vector<const Expr *> Vars;
  Ctx.collectVars(F, Vars);
  EXPECT_EQ(Vars.size(), 2u);
  EXPECT_EQ(Vars, (std::vector<const Expr *>{A, X})); // In variable-id order.
}

TEST_F(ExprTest, ToStringRoundTripsStructure) {
  const Expr *A = Ctx.freshBoolVar();
  const Expr *X = Ctx.freshIntVar();
  const Expr *F = Ctx.mkAnd(A, Ctx.mkCmp(ExprKind::Ge, X, Ctx.getInt(0)));
  // A variable prints as v<id> unless a namer names it.
  EXPECT_EQ(Ctx.toString(F), "(v" + std::to_string(A->varId()) + " & (v" +
                                 std::to_string(X->varId()) + " >= 0))");
  std::string S = Ctx.toString(
      F, [&](const Expr *V) -> std::string { return V == A ? "a" : "x"; });
  EXPECT_NE(S.find("a"), std::string::npos);
  EXPECT_NE(S.find("x"), std::string::npos);
  EXPECT_NE(S.find(">="), std::string::npos);
  EXPECT_EQ(S, "(a & (x >= 0))");
}

TEST_F(ExprTest, MkAndNFoldsSpans) {
  const Expr *A = Ctx.freshBoolVar();
  const Expr *B = Ctx.freshBoolVar();
  const Expr *C = Ctx.freshBoolVar();
  const Expr *Es[3] = {A, B, C};
  const Expr *F = Ctx.mkAndN(Es);
  EXPECT_EQ(F, Ctx.mkAnd(Ctx.mkAnd(A, B), C));
  EXPECT_EQ(Ctx.mkAndN({}), Ctx.getTrue());
  EXPECT_EQ(Ctx.mkOrN({}), Ctx.getFalse());
}

TEST_F(ExprTest, NodeCountGrowsOnlyForNewStructure) {
  const Expr *A = Ctx.freshBoolVar();
  const Expr *B = Ctx.freshBoolVar();
  size_t N0 = Ctx.numNodes();
  Ctx.mkAnd(A, B);
  size_t N1 = Ctx.numNodes();
  Ctx.mkAnd(A, B);
  Ctx.mkAnd(B, A);
  EXPECT_EQ(Ctx.numNodes(), N1);
  EXPECT_EQ(N1, N0 + 1);
}

TEST_F(ExprTest, InternTableGrowthKeepsHashConsing) {
  // ~210K nodes: every one of the 64 shards doubles its table many times.
  // Rebuilding each comparison must find the node built first.
  const Expr *X = Ctx.freshIntVar();
  std::vector<const Expr *> Built;
  for (int64_t I = 0; I < 70000; ++I) {
    const Expr *C = Ctx.getInt(I);
    Built.push_back(Ctx.mkCmp(ExprKind::Lt, X, C));
    Built.push_back(Ctx.mkCmp(ExprKind::Gt, X, C));
  }
  const size_t N = Ctx.numNodes();
  ASSERT_GE(N, 200000u);
  for (int64_t I = 0; I < 70000; ++I) {
    const Expr *C = Ctx.getInt(I);
    ASSERT_EQ(Ctx.mkCmp(ExprKind::Lt, X, C), Built[2 * I]) << I;
    ASSERT_EQ(Ctx.mkCmp(ExprKind::Gt, X, C), Built[2 * I + 1]) << I;
  }
  EXPECT_EQ(Ctx.numNodes(), N);
}

/// Builds node family member \p I over \p Bs (16 bools) and \p Xs (8 ints).
/// Members share subterms, so threads building the family race on the
/// same nodes.
const Expr *familyMember(ExprContext &Ctx, const std::vector<const Expr *> &Bs,
                         const std::vector<const Expr *> &Xs, int I) {
  const Expr *A = Ctx.mkAnd(Bs[I % 16], Ctx.mkNot(Bs[(I / 16) % 16]));
  const Expr *Cmp = Ctx.mkCmp(ExprKind::Lt, Xs[I % 8], Ctx.getInt(I % 50));
  const Expr *Eq = Ctx.mkEq(Xs[I % 8], Xs[(I + 1) % 8]);
  return Ctx.mkAnd(Ctx.mkOr(A, Cmp), Eq);
}

TEST(ExprConcurrencyTest, ThreadsInterningOneFamilyGetOneNodeEach) {
  constexpr int Members = 3000, Threads = 4;
  auto makeVars = [](ExprContext &Ctx, std::vector<const Expr *> &Bs,
                     std::vector<const Expr *> &Xs) {
    for (int I = 0; I < 16; ++I)
      Bs.push_back(Ctx.freshBoolVar());
    for (int I = 0; I < 8; ++I)
      Xs.push_back(Ctx.freshIntVar());
  };

  // Serial reference: the node count of one build in a fresh context.
  ExprContext Serial;
  std::vector<const Expr *> SB, SX;
  makeVars(Serial, SB, SX);
  for (int I = 0; I < Members; ++I)
    familyMember(Serial, SB, SX, I);

  ExprContext Ctx;
  std::vector<const Expr *> Bs, Xs;
  makeVars(Ctx, Bs, Xs);
  // Each thread visits the members in its own order: forwards, backwards,
  // evens then odds, and a stride-7 permutation.
  auto order = [](int T, int K) {
    switch (T) {
    case 0:
      return K;
    case 1:
      return Members - 1 - K;
    case 2:
      return K < Members / 2 ? 2 * K : 2 * (K - Members / 2) + 1;
    default:
      return (K * 7) % Members;
    }
  };
  std::vector<std::vector<const Expr *>> Got(
      Threads, std::vector<const Expr *>(Members));
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (int K = 0; K < Members; ++K) {
        int I = order(T, K);
        Got[T][I] = familyMember(Ctx, Bs, Xs, I);
      }
    });
  for (std::thread &Th : Pool)
    Th.join();

  for (int T = 1; T < Threads; ++T)
    for (int I = 0; I < Members; ++I)
      ASSERT_EQ(Got[T][I], Got[0][I]) << "thread " << T << " member " << I;
  EXPECT_EQ(Ctx.numNodes(), Serial.numNodes());
}

TEST(ExprConcurrencyTest, ThreadsMintingVariablesGetDistinctIds) {
  constexpr uint32_t Threads = 8, PerSort = 5000;
  constexpr uint32_t Total = Threads * 2 * PerSort;
  ExprContext Ctx;
  Ctx.freshIntVar(); // Start the ids past 0.
  const uint32_t Base = Ctx.numVars();
  std::vector<std::vector<const Expr *>> Bools(Threads), Ints(Threads);
  std::vector<std::thread> Pool;
  for (uint32_t T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (uint32_t I = 0; I < PerSort; ++I) {
        Bools[T].push_back(Ctx.freshBoolVar());
        Ints[T].push_back(Ctx.freshIntVar());
      }
    });
  for (std::thread &Th : Pool)
    Th.join();

  // Total distinct ids in [Base, Base + Total) are exactly that range.
  std::vector<bool> Seen(Total, false);
  for (uint32_t T = 0; T < Threads; ++T)
    for (uint32_t I = 0; I < PerSort; ++I) {
      ASSERT_EQ(Bools[T][I]->kind(), ExprKind::BoolVar);
      ASSERT_EQ(Ints[T][I]->kind(), ExprKind::IntVar);
      for (const Expr *V : {Bools[T][I], Ints[T][I]}) {
        const uint32_t Id = V->varId();
        ASSERT_GE(Id, Base);
        ASSERT_LT(Id, Base + Total);
        ASSERT_FALSE(Seen[Id - Base]) << "id " << Id << " minted twice";
        Seen[Id - Base] = true;
      }
    }
  EXPECT_EQ(Ctx.numVars(), Base + Total);
}


TEST_F(ExprTest, IteFoldsConstantsAndEqualArms) {
  const Expr *B = Ctx.freshBoolVar();
  const Expr *X = Ctx.freshIntVar();
  EXPECT_EQ(Ctx.mkIte(Ctx.getTrue(), X, Ctx.getInt(0)), X);
  EXPECT_EQ(Ctx.mkIte(Ctx.getFalse(), X, Ctx.getInt(0)), Ctx.getInt(0));
  EXPECT_EQ(Ctx.mkIte(B, X, X), X);
  const Expr *I = Ctx.mkIte(B, X, Ctx.getInt(0));
  EXPECT_EQ(I->kind(), ExprKind::Ite);
  EXPECT_FALSE(I->isBool());
}

TEST_F(ExprTest, BoolIntCoercionHelpers) {
  const Expr *B = Ctx.freshBoolVar();
  const Expr *X = Ctx.freshIntVar();
  EXPECT_EQ(Ctx.toIntExpr(X), X);
  EXPECT_EQ(Ctx.toBoolExpr(B), B);
  const Expr *BI = Ctx.toIntExpr(B);
  EXPECT_EQ(BI->kind(), ExprKind::Ite);
  const Expr *XB = Ctx.toBoolExpr(X);
  EXPECT_TRUE(XB->isBool());
  EXPECT_TRUE(XB->isAtom());
}

TEST_F(ExprTest, SubstituteThroughIte) {
  const Expr *B = Ctx.freshBoolVar();
  const Expr *X = Ctx.freshIntVar();
  const Expr *I = Ctx.mkIte(B, X, Ctx.getInt(0));
  SubstScratch S;
  S.mapVar(B->varId(), Ctx.getTrue());
  EXPECT_EQ(Ctx.substitute(I, S), X);
}

} // namespace
} // namespace pinpoint::smt
