//===- smt/LinearSolver.h - The paper's linear-time constraint filter ----===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The linear-time constraint solver of Section 3.1.1. For a condition C it
/// maintains the sets of positive and negative atomic constraints, P(C) and
/// N(C), under the rules
///
///   C = a        : P = {a},          N = {}
///   C = ¬a       : P = {},           N = {a}
///   C = C1 ∧ C2  : P = P1 ∪ P2,      N = N1 ∪ N2
///   C = C1 ∨ C2  : P = P1 ∩ P2,      N = N1 ∩ N2
///
/// and declares C unsatisfiable when P(C) ∩ N(C) ≠ ∅ (i.e. C contains an
/// apparent contradiction a ∧ ¬a). Per the paper, >90% of unsatisfiable path
/// conditions in practice are such "easy" constraints, so this filter removes
/// most SMT work; the quasi path-sensitive points-to analysis uses it as its
/// only decision procedure.
///
/// A negated compound is first rewritten by De Morgan, ¬(C1 ∧ C2) =
/// ¬C1 ∨ ¬C2 and ¬(C1 ∨ C2) = ¬C1 ∧ ¬C2, so ¬ reaches only atoms. Swapping
/// P and N under a negated compound would be unsound: a ∧ ¬(a ∧ b) is
/// satisfiable, yet the swap puts a in both sets.
///
/// Atom sets are memoised per hash-consed Expr node and polarity, so
/// repeated queries over shared subformulas stay cheap. The memo is flat: one
/// open-addressed node -> (P, N) map per polarity, with every set a span
/// into an arena the solver owns. A union or intersection equal to one of
/// its operands reuses that operand's span, so the shared sets of a
/// hash-consed DAG are stored once.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SMT_LINEARSOLVER_H
#define PINPOINT_SMT_LINEARSOLVER_H

#include "smt/Expr.h"
#include "support/Arena.h"
#include "support/FlatMap.h"

#include <span>
#include <vector>

namespace pinpoint::smt {

/// Memoising implementation of the P(C)/N(C) rules.
class LinearSolver {
public:
  explicit LinearSolver(ExprContext &Ctx) : Ctx(Ctx) {}

  /// Returns true iff the formula contains an apparent contradiction
  /// (some atom occurs in both P(C) and N(C)), i.e. is "easily" UNSAT.
  bool isObviouslyUnsat(const Expr *E);

  /// The positive atom set P(C), as sorted atom node ids. The span stays
  /// valid for the solver's lifetime.
  std::span<const uint32_t> positiveAtoms(const Expr *E) { return sets(E).P; }
  /// The negative atom set N(C), as sorted atom node ids.
  std::span<const uint32_t> negativeAtoms(const Expr *E) { return sets(E).N; }

  /// Number of cache entries (for tests / stats).
  size_t cacheSize() const { return Memo[0].size() + Memo[1].size(); }

private:
  using AtomSet = std::span<const uint32_t>; ///< Sorted atom ids.
  struct PN {
    AtomSet P, N;
  };

  struct ById {
    uint64_t operator()(const Expr *E) const { return E->id(); }
  };
  /// One polarity's memo. Lookups hand out copies: slots move on insert.
  using Table = FlatMap<const Expr *, PN, ById>;

  /// P/N of \p E, or of ¬E when \p Neg is set.
  PN sets(const Expr *E, bool Neg = false);
  AtomSet unionOf(AtomSet A, AtomSet B);
  AtomSet intersectOf(AtomSet A, AtomSet B);
  /// An arena copy of \p Ids.
  AtomSet keep(AtomSet Ids);
  static bool intersects(AtomSet A, AtomSet B);

  ExprContext &Ctx;
  /// Backs every atom set. Unreported: the memo is not governed memory,
  /// so it stays out of the ledger that `--mem-budget-mb` and the
  /// arena-peak statistics read.
  Arena Mem{/*Reported=*/false};
  /// Memo per polarity: [0] for E itself, [1] for ¬E.
  Table Memo[2];
  std::vector<uint32_t> Merged; ///< Set-operation output before keep().
};

} // namespace pinpoint::smt

#endif // PINPOINT_SMT_LINEARSOLVER_H
