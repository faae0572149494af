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
/// repeated queries over shared subformulas stay cheap.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SMT_LINEARSOLVER_H
#define PINPOINT_SMT_LINEARSOLVER_H

#include "smt/Expr.h"

#include <unordered_map>
#include <vector>

namespace pinpoint::smt {

/// Memoising implementation of the P(C)/N(C) rules.
class LinearSolver {
public:
  explicit LinearSolver(ExprContext &Ctx) : Ctx(Ctx) {}

  /// Returns true iff the formula contains an apparent contradiction
  /// (some atom occurs in both P(C) and N(C)), i.e. is "easily" UNSAT.
  bool isObviouslyUnsat(const Expr *E);

  /// The positive atom set P(C), as sorted atom node ids.
  const std::vector<uint32_t> &positiveAtoms(const Expr *E) {
    return sets(E).P;
  }
  /// The negative atom set N(C), as sorted atom node ids.
  const std::vector<uint32_t> &negativeAtoms(const Expr *E) {
    return sets(E).N;
  }

  /// Number of cache entries (for tests / stats).
  size_t cacheSize() const { return Cache[0].size() + Cache[1].size(); }

private:
  struct PN {
    std::vector<uint32_t> P, N; // Sorted atom ids.
  };

  /// P/N of \p E, or of ¬E when \p Neg is set.
  const PN &sets(const Expr *E, bool Neg = false);
  static std::vector<uint32_t> unionOf(const std::vector<uint32_t> &A,
                                       const std::vector<uint32_t> &B);
  static std::vector<uint32_t> intersectOf(const std::vector<uint32_t> &A,
                                           const std::vector<uint32_t> &B);
  static bool intersects(const std::vector<uint32_t> &A,
                         const std::vector<uint32_t> &B);

  ExprContext &Ctx;
  /// Memo per polarity: [0] for E itself, [1] for ¬E.
  std::unordered_map<const Expr *, PN> Cache[2];
};

} // namespace pinpoint::smt

#endif // PINPOINT_SMT_LINEARSOLVER_H
