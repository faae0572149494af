//===- tests/SmtSolverTest.cpp - Linear filter + backends ------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the linear-time solver of paper Section 3.1.1 and for the SMT
/// backends (Z3 when present, MiniSolver always). Backend tests are
/// parameterised so both backends face the same suite.
///
//===----------------------------------------------------------------------===//

#include "smt/LinearSolver.h"
#include "smt/Solver.h"

#include <gtest/gtest.h>

namespace pinpoint::smt {
namespace {

//===----------------------------------------------------------------------===
// LinearSolver (paper Section 3.1.1)
//===----------------------------------------------------------------------===

class LinearTest : public ::testing::Test {
protected:
  ExprContext Ctx;
  LinearSolver LS{Ctx};
};

TEST_F(LinearTest, DirectContradictionViaSharedSubterm) {
  // (a & b) & !a  — the a/!a contradiction spans subformulas, so the
  // constructor-level folding cannot see it but P/N analysis does.
  const Expr *A = Ctx.freshBoolVar("a");
  const Expr *B = Ctx.freshBoolVar("b");
  const Expr *F = Ctx.mkAnd(Ctx.mkAnd(A, B), Ctx.mkNot(A));
  EXPECT_TRUE(LS.isObviouslyUnsat(F));
}

TEST_F(LinearTest, SatisfiableConjunctionPasses) {
  const Expr *A = Ctx.freshBoolVar("a");
  const Expr *B = Ctx.freshBoolVar("b");
  EXPECT_FALSE(LS.isObviouslyUnsat(Ctx.mkAnd(A, B)));
  EXPECT_FALSE(LS.isObviouslyUnsat(Ctx.mkAnd(A, Ctx.mkNot(B))));
}

TEST_F(LinearTest, PaperRuleForNegation) {
  // P(¬a) = ∅, N(¬a) = {a}.
  const Expr *A = Ctx.freshBoolVar("a");
  const Expr *NotA = Ctx.mkNot(A);
  EXPECT_EQ(LS.positiveAtoms(NotA).size(), 0u);
  EXPECT_EQ(LS.negativeAtoms(NotA).size(), 1u);
  EXPECT_EQ(LS.negativeAtoms(NotA)[0], A->id());
}

TEST_F(LinearTest, NegatedConjunctionFixesNoAtom) {
  // ¬(a ∧ b) = ¬a ∨ ¬b forces neither atom false, so a ∧ ¬(a ∧ b) — which
  // is satisfiable with b false — must not look like a contradiction.
  const Expr *A = Ctx.freshBoolVar("a");
  const Expr *B = Ctx.freshBoolVar("b");
  const Expr *NotAnd = Ctx.mkNot(Ctx.mkAnd(A, B));
  EXPECT_TRUE(LS.negativeAtoms(NotAnd).empty());
  EXPECT_FALSE(LS.isObviouslyUnsat(Ctx.mkAnd(A, NotAnd)));
}

TEST_F(LinearTest, NegatedDisjunctionNegatesEachDisjunct) {
  // ¬(a ∨ b) = ¬a ∧ ¬b, so conjoined with a it is an easy contradiction.
  const Expr *A = Ctx.freshBoolVar("a");
  const Expr *B = Ctx.freshBoolVar("b");
  const Expr *NotOr = Ctx.mkNot(Ctx.mkOr(A, B));
  EXPECT_EQ(LS.negativeAtoms(NotOr).size(), 2u);
  EXPECT_TRUE(LS.isObviouslyUnsat(Ctx.mkAnd(A, NotOr)));
}

TEST_F(LinearTest, PaperRuleForConjunctionIsUnion) {
  const Expr *A = Ctx.freshBoolVar("a");
  const Expr *B = Ctx.freshBoolVar("b");
  const Expr *F = Ctx.mkAnd(A, Ctx.mkNot(B));
  EXPECT_EQ(LS.positiveAtoms(F).size(), 1u);
  EXPECT_EQ(LS.negativeAtoms(F).size(), 1u);
}

TEST_F(LinearTest, PaperRuleForDisjunctionIsIntersection) {
  const Expr *A = Ctx.freshBoolVar("a");
  const Expr *B = Ctx.freshBoolVar("b");
  // P(a ∨ b) = {a} ∩ {b} = ∅.
  EXPECT_EQ(LS.positiveAtoms(Ctx.mkOr(A, B)).size(), 0u);
  // P((a ∧ b) ∨ (a ∧ ¬b)) = {a,b} ∩ {a} = {a}.
  const Expr *F = Ctx.mkOr(Ctx.mkAnd(A, B), Ctx.mkAnd(A, Ctx.mkNot(B)));
  ASSERT_EQ(LS.positiveAtoms(F).size(), 1u);
  EXPECT_EQ(LS.positiveAtoms(F)[0], A->id());
}

TEST_F(LinearTest, DisjunctionHidesContradiction) {
  // (a ∨ b) ∧ ¬a is satisfiable (choose b), and the intersection rule
  // correctly avoids flagging it.
  const Expr *A = Ctx.freshBoolVar("a");
  const Expr *B = Ctx.freshBoolVar("b");
  const Expr *F = Ctx.mkAnd(Ctx.mkOr(A, B), Ctx.mkNot(A));
  EXPECT_FALSE(LS.isObviouslyUnsat(F));
}

TEST_F(LinearTest, ContradictionThroughBothDisjuncts) {
  // (a ∧ b) ∨ (a ∧ c), conjoined with ¬a: a survives the intersection, so
  // the filter catches it.
  const Expr *A = Ctx.freshBoolVar("a");
  const Expr *B = Ctx.freshBoolVar("b");
  const Expr *C = Ctx.freshBoolVar("c");
  const Expr *F = Ctx.mkAnd(Ctx.mkOr(Ctx.mkAnd(A, B), Ctx.mkAnd(A, C)),
                            Ctx.mkNot(A));
  EXPECT_TRUE(LS.isObviouslyUnsat(F));
}

TEST_F(LinearTest, ComparisonAtomsParticipate) {
  const Expr *X = Ctx.freshIntVar("x");
  const Expr *Cmp = Ctx.mkCmp(ExprKind::Lt, X, Ctx.getInt(5));
  const Expr *F = Ctx.mkAnd(Ctx.mkAnd(Cmp, Ctx.freshBoolVar("t")),
                            Ctx.mkNot(Cmp));
  EXPECT_TRUE(LS.isObviouslyUnsat(F));
}

TEST_F(LinearTest, SemanticContradictionIsNotObvious) {
  // x < 5 ∧ x > 7 is UNSAT but has no syntactic a ∧ ¬a — exactly the ~10%
  // of cases the paper leaves to the SMT solver.
  const Expr *X = Ctx.freshIntVar("x");
  const Expr *F = Ctx.mkAnd(Ctx.mkCmp(ExprKind::Lt, X, Ctx.getInt(5)),
                            Ctx.mkCmp(ExprKind::Gt, X, Ctx.getInt(7)));
  EXPECT_FALSE(LS.isObviouslyUnsat(F));
}

TEST_F(LinearTest, CacheIsReused) {
  const Expr *A = Ctx.freshBoolVar("a");
  const Expr *B = Ctx.freshBoolVar("b");
  const Expr *F = Ctx.mkAnd(A, B);
  LS.isObviouslyUnsat(F);
  size_t N = LS.cacheSize();
  LS.isObviouslyUnsat(F);
  EXPECT_EQ(LS.cacheSize(), N);
}

//===----------------------------------------------------------------------===
// Backends, parameterised over {mini, z3?}
//===----------------------------------------------------------------------===

struct BackendCase {
  const char *Name;
};

// Print the backend name, not the pointer's bytes: test discovery builds
// each registered test name from the printed parameter, so it has to be
// the same in every process.
void PrintTo(const BackendCase &C, std::ostream *OS) { *OS << C.Name; }

class BackendTest : public ::testing::TestWithParam<BackendCase> {
protected:
  /// Returns null when the requested backend is unavailable (Z3-less build);
  /// tests skip in that case.
  std::unique_ptr<Solver> makeSolver() {
    if (std::string(GetParam().Name) == "z3")
      return createZ3Solver(Ctx);
    return createMiniSolver(Ctx);
  }
  ExprContext Ctx;
};

TEST_P(BackendTest, TrivialFormulas) {
  auto S = makeSolver();
  if (!S)
    GTEST_SKIP() << "backend unavailable";
  EXPECT_EQ(S->checkSat(Ctx.getTrue()), SatResult::Sat);
  EXPECT_EQ(S->checkSat(Ctx.getFalse()), SatResult::Unsat);
}

TEST_P(BackendTest, PropositionalSat) {
  auto S = makeSolver();
  if (!S)
    GTEST_SKIP() << "backend unavailable";
  const Expr *A = Ctx.freshBoolVar("a");
  const Expr *B = Ctx.freshBoolVar("b");
  EXPECT_EQ(S->checkSat(Ctx.mkAnd(A, Ctx.mkNot(B))), SatResult::Sat);
  EXPECT_EQ(S->checkSat(Ctx.mkOr(A, B)), SatResult::Sat);
}

TEST_P(BackendTest, PropositionalUnsatAcrossClauses) {
  auto S = makeSolver();
  if (!S)
    GTEST_SKIP() << "backend unavailable";
  const Expr *A = Ctx.freshBoolVar("a");
  const Expr *B = Ctx.freshBoolVar("b");
  // (a ∨ b) ∧ ¬a ∧ ¬b.
  const Expr *F = Ctx.mkAnd(Ctx.mkAnd(Ctx.mkOr(A, B), Ctx.mkNot(A)),
                            Ctx.mkNot(B));
  EXPECT_EQ(S->checkSat(F), SatResult::Unsat);
}

TEST_P(BackendTest, EqualityChainConflict) {
  auto S = makeSolver();
  if (!S)
    GTEST_SKIP() << "backend unavailable";
  const Expr *X = Ctx.freshIntVar("x");
  const Expr *Y = Ctx.freshIntVar("y");
  // x = 1 ∧ y = 2 ∧ x = y.
  const Expr *F = Ctx.mkAnd(
      Ctx.mkAnd(Ctx.mkEq(X, Ctx.getInt(1)), Ctx.mkEq(Y, Ctx.getInt(2))),
      Ctx.mkEq(X, Y));
  EXPECT_EQ(S->checkSat(F), SatResult::Unsat);
}

TEST_P(BackendTest, BoundsConflict) {
  auto S = makeSolver();
  if (!S)
    GTEST_SKIP() << "backend unavailable";
  const Expr *X = Ctx.freshIntVar("x");
  const Expr *F = Ctx.mkAnd(Ctx.mkCmp(ExprKind::Lt, X, Ctx.getInt(5)),
                            Ctx.mkCmp(ExprKind::Gt, X, Ctx.getInt(7)));
  EXPECT_EQ(S->checkSat(F), SatResult::Unsat);
}

TEST_P(BackendTest, BoundsSatisfiable) {
  auto S = makeSolver();
  if (!S)
    GTEST_SKIP() << "backend unavailable";
  const Expr *X = Ctx.freshIntVar("x");
  const Expr *F = Ctx.mkAnd(Ctx.mkCmp(ExprKind::Ge, X, Ctx.getInt(5)),
                            Ctx.mkCmp(ExprKind::Le, X, Ctx.getInt(5)));
  EXPECT_EQ(S->checkSat(F), SatResult::Sat);
}

TEST_P(BackendTest, DisequalityWithinEqualityClass) {
  auto S = makeSolver();
  if (!S)
    GTEST_SKIP() << "backend unavailable";
  const Expr *X = Ctx.freshIntVar("x");
  const Expr *Y = Ctx.freshIntVar("y");
  const Expr *Z = Ctx.freshIntVar("z");
  // x = y ∧ y = z ∧ x ≠ z.
  const Expr *F =
      Ctx.mkAnd(Ctx.mkAnd(Ctx.mkEq(X, Y), Ctx.mkEq(Y, Z)), Ctx.mkNe(X, Z));
  EXPECT_EQ(S->checkSat(F), SatResult::Unsat);
}

TEST_P(BackendTest, OrderingCycleConflict) {
  auto S = makeSolver();
  if (!S)
    GTEST_SKIP() << "backend unavailable";
  const Expr *X = Ctx.freshIntVar("x");
  const Expr *Y = Ctx.freshIntVar("y");
  // x < y ∧ y < x.
  const Expr *F = Ctx.mkAnd(Ctx.mkCmp(ExprKind::Lt, X, Y),
                            Ctx.mkCmp(ExprKind::Lt, Y, X));
  EXPECT_EQ(S->checkSat(F), SatResult::Unsat);
}

TEST_P(BackendTest, MixedBooleanAndTheory) {
  auto S = makeSolver();
  if (!S)
    GTEST_SKIP() << "backend unavailable";
  const Expr *T = Ctx.freshBoolVar("t");
  const Expr *X = Ctx.freshIntVar("x");
  // (t → x > 3) ∧ (¬t → x > 10) ∧ x < 2 : UNSAT either way.
  const Expr *F = Ctx.mkAnd(
      Ctx.mkAnd(Ctx.mkImplies(T, Ctx.mkCmp(ExprKind::Gt, X, Ctx.getInt(3))),
                Ctx.mkImplies(Ctx.mkNot(T),
                              Ctx.mkCmp(ExprKind::Gt, X, Ctx.getInt(10)))),
      Ctx.mkCmp(ExprKind::Lt, X, Ctx.getInt(2)));
  EXPECT_EQ(S->checkSat(F), SatResult::Unsat);
}

TEST_P(BackendTest, BranchCorrelationSatisfiableSide) {
  auto S = makeSolver();
  if (!S)
    GTEST_SKIP() << "backend unavailable";
  const Expr *T = Ctx.freshBoolVar("t");
  const Expr *X = Ctx.freshIntVar("x");
  // (t → x > 3) ∧ x < 2 : satisfiable with ¬t.
  const Expr *F =
      Ctx.mkAnd(Ctx.mkImplies(T, Ctx.mkCmp(ExprKind::Gt, X, Ctx.getInt(3))),
                Ctx.mkCmp(ExprKind::Lt, X, Ctx.getInt(2)));
  EXPECT_EQ(S->checkSat(F), SatResult::Sat);
}

TEST_P(BackendTest, QueryDoesNotOutliveItsCheck) {
  auto S = makeSolver();
  if (!S)
    GTEST_SKIP() << "backend unavailable";
  const Expr *X = Ctx.freshIntVar("x");
  // x > 0 ∧ x < 0, then x > 0 on the same instance: if the first query's
  // assertion stayed behind, the second would come back Unsat.
  EXPECT_EQ(S->checkSat(Ctx.mkAnd(Ctx.mkCmp(ExprKind::Gt, X, Ctx.getInt(0)),
                                  Ctx.mkCmp(ExprKind::Lt, X, Ctx.getInt(0)))),
            SatResult::Unsat);
  EXPECT_EQ(S->checkSat(Ctx.mkCmp(ExprKind::Gt, X, Ctx.getInt(0))),
            SatResult::Sat);
}

TEST_P(BackendTest, TimedOutQueryLeavesInstanceUsable) {
  if (std::string(GetParam().Name) != "z3")
    GTEST_SKIP() << "wall-clock timeouts are a Z3 setting";
  // Not 1 ms: under load Z3 4.8.12 sometimes drops a timeout that short
  // (the check then runs until interrupted), and an easy query can itself
  // overrun it. 100 ms is far above an easy query's ≈0.1 ms.
  auto S = createZ3Solver(Ctx, {.TimeoutMs = 100});
  if (!S)
    GTEST_SKIP() << "backend unavailable";
  const Expr *X = Ctx.freshIntVar("x");
  const Expr *Y = Ctx.freshIntVar("y");
  const Expr *Z = Ctx.freshIntVar("z");
  auto Cube = [&](const Expr *V) {
    return Ctx.mkArith(ExprKind::Mul, V, Ctx.mkArith(ExprKind::Mul, V, V));
  };
  auto Positive = [&](const Expr *V) {
    return Ctx.mkCmp(ExprKind::Gt, V, Ctx.getInt(0));
  };
  // x³ + y³ = z³ over positive integers: unsat (Fermat, n = 3), but past
  // Z3's nonlinear integer reasoning, so the check runs into the timeout.
  const Expr *Fermat = Ctx.mkAnd(
      Ctx.mkAnd(Positive(X), Ctx.mkAnd(Positive(Y), Positive(Z))),
      Ctx.mkEq(Ctx.mkArith(ExprKind::Add, Cube(X), Cube(Y)), Cube(Z)));
  EXPECT_EQ(S->checkSat(Fermat), SatResult::Unknown);
  // The timed-out query is gone; easy queries over the same variables get
  // definite answers again.
  EXPECT_EQ(S->checkSat(Ctx.mkAnd(Positive(X), Positive(Y))), SatResult::Sat);
  EXPECT_EQ(S->checkSat(Ctx.mkAnd(Positive(X),
                                  Ctx.mkCmp(ExprKind::Lt, X, Ctx.getInt(0)))),
            SatResult::Unsat);
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendTest,
                         ::testing::Values(BackendCase{"mini"},
                                           BackendCase{"z3"}));


TEST_P(BackendTest, IteSemantics) {
  auto S = makeSolver();
  if (!S)
    GTEST_SKIP() << "backend unavailable";
  const Expr *B = Ctx.freshBoolVar("b");
  const Expr *X = Ctx.freshIntVar("x");
  // ite(b, 1, 0) == 1 ∧ ¬b is UNSAT under full integer reasoning; the
  // MiniSolver may only manage Sat (opaque term) — accept Unsat or Sat but
  // require Z3 to refute it.
  const Expr *F = Ctx.mkAnd(
      Ctx.mkEq(Ctx.mkIte(B, Ctx.getInt(1), Ctx.getInt(0)), Ctx.getInt(1)),
      Ctx.mkNot(B));
  smt::SatResult R = S->checkSat(F);
  if (std::string(GetParam().Name) == "z3")
    EXPECT_EQ(R, SatResult::Unsat);
  else
    EXPECT_NE(R, SatResult::Unknown);
}

//===----------------------------------------------------------------------===
// StagedSolver (the two-stage discipline)
//===----------------------------------------------------------------------===

TEST(StagedSolver, LinearFilterShortCircuits) {
  ExprContext Ctx;
  StagedSolver S(Ctx, createMiniSolver(Ctx));
  const Expr *A = Ctx.freshBoolVar("a");
  const Expr *B = Ctx.freshBoolVar("b");
  const Expr *Easy = Ctx.mkAnd(Ctx.mkAnd(A, B), Ctx.mkNot(A));
  EXPECT_EQ(S.checkSat(Easy), SatResult::Unsat);
  EXPECT_EQ(S.stats().LinearUnsat, 1u);
  EXPECT_EQ(S.stats().BackendQueries, 0u);
}

TEST(StagedSolver, HardUnsatFallsThroughToBackend) {
  ExprContext Ctx;
  StagedSolver S(Ctx, createMiniSolver(Ctx));
  const Expr *X = Ctx.freshIntVar("x");
  const Expr *Hard = Ctx.mkAnd(Ctx.mkCmp(ExprKind::Lt, X, Ctx.getInt(5)),
                               Ctx.mkCmp(ExprKind::Gt, X, Ctx.getInt(7)));
  EXPECT_EQ(S.checkSat(Hard), SatResult::Unsat);
  EXPECT_EQ(S.stats().LinearUnsat, 0u);
  EXPECT_EQ(S.stats().BackendQueries, 1u);
  EXPECT_EQ(S.stats().BackendUnsat, 1u);
}

TEST(StagedSolver, FilterCanBeDisabled) {
  ExprContext Ctx;
  StagedSolver S(Ctx, createMiniSolver(Ctx), /*UseLinearFilter=*/false);
  const Expr *A = Ctx.freshBoolVar("a");
  const Expr *Easy = Ctx.mkAnd(A, Ctx.mkNot(Ctx.mkNot(Ctx.mkNot(A))));
  EXPECT_EQ(S.checkSat(Easy), SatResult::Unsat);
  EXPECT_EQ(S.stats().LinearUnsat, 0u);
  EXPECT_EQ(S.stats().BackendQueries, 1u);
}

} // namespace
} // namespace pinpoint::smt
