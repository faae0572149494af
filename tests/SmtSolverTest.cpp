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
#include "smt/QueryCache.h"
#include "smt/Solver.h"
#include "support/ResourceGovernor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

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
  // P(¬C) = N(C), N(¬C) = P(C).
  const Expr *A = Ctx.freshBoolVar("a");
  const Expr *NotA = Ctx.mkNot(A);
  EXPECT_EQ(LS.positiveAtoms(NotA).size(), 0u);
  EXPECT_EQ(LS.negativeAtoms(NotA).size(), 1u);
  EXPECT_EQ(LS.negativeAtoms(NotA)[0], A->id());
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

//===----------------------------------------------------------------------===
// Query acceleration: verdict cache + conjunct slicing (DESIGN.md section 11)
//===----------------------------------------------------------------------===

/// (x < 5 ∧ x > 7) — passes the P/N filter (distinct atoms) but is
/// backend-refutable, and forms one variable-connected component.
static const Expr *hardUnsat(ExprContext &Ctx, const Expr *X) {
  return Ctx.mkAnd(Ctx.mkCmp(ExprKind::Lt, X, Ctx.getInt(5)),
                   Ctx.mkCmp(ExprKind::Gt, X, Ctx.getInt(7)));
}

TEST(QueryAccel, SlicingRefutesViaDisjointComponent) {
  ExprContext Ctx;
  StagedSolver S(Ctx, createMiniSolver(Ctx));
  QueryCache QC;
  S.setQueryCache(&QC);
  const Expr *X = Ctx.freshIntVar("x");
  const Expr *B = Ctx.freshBoolVar("b");
  // ((x<5 ∧ x>7) ∧ b) splits into the x-component and the b-component;
  // the x-component alone refutes the query, short-circuiting before the
  // b-component is ever discharged.
  const Expr *Q = Ctx.mkAnd(hardUnsat(Ctx, X), B);
  EXPECT_EQ(S.checkSat(Q), SatResult::Unsat);
  EXPECT_EQ(S.stats().SlicedQueries, 1u);
  EXPECT_EQ(S.stats().ComponentsRefuted, 1u);
  // Component order follows mkAnd's canonicalised operand order, so the
  // b-component may be discharged (Sat) before the x-component refutes.
  EXPECT_LE(S.stats().BackendCalls, 2u);
  // The pre-existing per-query counters keep their semantics.
  EXPECT_EQ(S.stats().BackendQueries, 1u);
  EXPECT_EQ(S.stats().BackendUnsat, 1u);
}

TEST(QueryAccel, SatVerdictsComposeAcrossComponents) {
  ExprContext Ctx;
  StagedSolver S(Ctx, createMiniSolver(Ctx));
  QueryCache QC;
  S.setQueryCache(&QC);
  const Expr *X = Ctx.freshIntVar("x");
  const Expr *B = Ctx.freshBoolVar("b");
  // b ∧ x<5: two variable-disjoint components, both satisfiable — their
  // models merge, so the composed verdict is Sat.
  const Expr *Q = Ctx.mkAnd(B, Ctx.mkCmp(ExprKind::Lt, X, Ctx.getInt(5)));
  EXPECT_EQ(S.checkSat(Q), SatResult::Sat);
  EXPECT_EQ(S.stats().SlicedQueries, 1u);
  EXPECT_EQ(S.stats().BackendCalls, 2u); // one per component
  // A verbatim repeat replays the full-query verdict from the cache.
  EXPECT_EQ(S.checkSat(Q), SatResult::Sat);
  EXPECT_EQ(S.stats().BackendCalls, 2u);
  EXPECT_GE(S.stats().CacheHits, 1u);
}

TEST(QueryAccel, CacheReplaysFullQueryVerdict) {
  ExprContext Ctx;
  StagedSolver S(Ctx, createMiniSolver(Ctx));
  QueryCache QC;
  S.setQueryCache(&QC);
  const Expr *X = Ctx.freshIntVar("x");
  const Expr *Q = hardUnsat(Ctx, X);
  EXPECT_EQ(S.checkSat(Q), SatResult::Unsat);
  EXPECT_EQ(S.stats().BackendCalls, 1u);
  EXPECT_EQ(S.checkSat(Q), SatResult::Unsat);
  EXPECT_EQ(S.stats().BackendCalls, 1u); // replayed, not recomputed
  EXPECT_EQ(S.stats().CacheHits, 1u);
  // Per-query counters advance as if the backend had run again.
  EXPECT_EQ(S.stats().BackendQueries, 2u);
  EXPECT_EQ(S.stats().BackendUnsat, 2u);
}

TEST(QueryAccel, ComponentVerdictReusedAcrossQueries) {
  ExprContext Ctx;
  StagedSolver S(Ctx, createMiniSolver(Ctx));
  QueryCache QC;
  S.setQueryCache(&QC);
  const Expr *X = Ctx.freshIntVar("x");
  const Expr *B = Ctx.freshBoolVar("b");
  const Expr *C = Ctx.freshBoolVar("c");
  EXPECT_EQ(S.checkSat(Ctx.mkAnd(hardUnsat(Ctx, X), B)), SatResult::Unsat);
  const uint64_t CallsAfterQ1 = S.stats().BackendCalls;
  // A *different* query sharing the unsat x-component: the component's
  // cached verdict refutes it with at most the fresh c-component's
  // discharge as new backend work — the x-component is never re-solved.
  EXPECT_EQ(S.checkSat(Ctx.mkAnd(hardUnsat(Ctx, X), C)), SatResult::Unsat);
  EXPECT_LE(S.stats().BackendCalls, CallsAfterQ1 + 1);
  EXPECT_EQ(S.stats().CacheHits, 1u);
  EXPECT_EQ(S.stats().ComponentsRefuted, 2u);
  EXPECT_EQ(S.stats().SlicedQueries, 2u);
}

TEST(QueryAccel, SharedCacheAcrossSolverInstances) {
  // Mirrors the parallel discharge path: per-chunk StagedSolvers sharing
  // one run-wide QueryCache over the same ExprContext.
  ExprContext Ctx;
  QueryCache QC;
  const Expr *Q = hardUnsat(Ctx, Ctx.freshIntVar("x"));
  StagedSolver S1(Ctx, createMiniSolver(Ctx));
  S1.setQueryCache(&QC);
  EXPECT_EQ(S1.checkSat(Q), SatResult::Unsat);
  EXPECT_EQ(S1.stats().BackendCalls, 1u);
  StagedSolver S2(Ctx, createMiniSolver(Ctx));
  S2.setQueryCache(&QC);
  EXPECT_EQ(S2.checkSat(Q), SatResult::Unsat);
  EXPECT_EQ(S2.stats().BackendCalls, 0u);
  EXPECT_EQ(S2.stats().CacheHits, 1u);
}

TEST(QueryAccel, UnknownIsNeverCached) {
  // Force every backend discharge to Unknown: the verdict depends on run
  // state (budgets / injection), so it must never be replayed later.
  FaultInjector FI;
  std::string Err;
  ASSERT_TRUE(FI.parse("seed=1,solver-unknown=100", Err)) << Err;
  ResourceGovernor Gov({}, std::move(FI));
  ExprContext Ctx;
  StagedSolver S(Ctx, createMiniSolver(Ctx), /*UseLinearFilter=*/true, &Gov);
  QueryCache QC;
  S.setQueryCache(&QC);
  const Expr *Q = hardUnsat(Ctx, Ctx.freshIntVar("x"));
  EXPECT_EQ(S.checkSat(Q), SatResult::Unknown);
  EXPECT_EQ(S.checkSat(Q), SatResult::Unknown);
  EXPECT_EQ(QC.size(), 0u);
  EXPECT_EQ(S.stats().CacheHits, 0u);
  EXPECT_EQ(S.stats().InjectedUnknown, 2u);
  EXPECT_TRUE(Gov.degraded());
}

TEST(QueryAccel, SlicingCanBeDisabledIndependently) {
  ExprContext Ctx;
  StagedSolver S(Ctx, createMiniSolver(Ctx));
  QueryCache QC;
  S.setQueryCache(&QC);
  S.setSlicing(false);
  const Expr *Q =
      Ctx.mkAnd(hardUnsat(Ctx, Ctx.freshIntVar("x")), Ctx.freshBoolVar("b"));
  EXPECT_EQ(S.checkSat(Q), SatResult::Unsat);
  EXPECT_EQ(S.stats().SlicedQueries, 0u);
  EXPECT_EQ(S.stats().BackendCalls, 1u); // whole query in one discharge
  EXPECT_EQ(S.checkSat(Q), SatResult::Unsat);
  EXPECT_EQ(S.stats().CacheHits, 1u); // caching still active
}

TEST(QueryCacheTest, ConcurrentStoreLookupIsCoherent) {
  // The cache is the only structure shared across --jobs discharge
  // chunks; hammer it from several threads. Every thread stores the same
  // verdict per key (as real runs do — verdicts are deterministic facts
  // about interned formulas), so every successful lookup must agree.
  ExprContext Ctx;
  QueryCache QC;
  std::vector<const Expr *> Keys;
  for (int I = 0; I < 256; ++I)
    Keys.push_back(
        Ctx.mkCmp(ExprKind::Lt, Ctx.freshIntVar("v"), Ctx.getInt(I)));
  std::atomic<uint64_t> Mismatches{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < 8; ++T)
    Threads.emplace_back([&QC, &Keys, &Mismatches] {
      for (int Round = 0; Round < 50; ++Round)
        for (size_t I = 0; I < Keys.size(); ++I) {
          SatResult Want = I % 2 ? SatResult::Sat : SatResult::Unsat;
          QC.store(Keys[I], Want);
          auto Got = QC.lookup(Keys[I]);
          if (!Got || *Got != Want)
            ++Mismatches;
        }
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0u);
  EXPECT_EQ(QC.size(), Keys.size());
}

} // namespace
} // namespace pinpoint::smt
