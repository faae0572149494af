//===- smt/LinearSolver.cpp ------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "smt/LinearSolver.h"

#include <algorithm>

namespace pinpoint::smt {

LinearSolver::AtomSet LinearSolver::keep(AtomSet Ids) {
  if (Ids.empty())
    return {};
  uint32_t *Copy = Mem.allocArray<uint32_t>(Ids.size());
  std::copy(Ids.begin(), Ids.end(), Copy);
  return {Copy, Ids.size()};
}

LinearSolver::AtomSet LinearSolver::unionOf(AtomSet A, AtomSet B) {
  if (B.empty() || A.data() == B.data())
    return A;
  if (A.empty())
    return B;
  Merged.clear();
  std::set_union(A.begin(), A.end(), B.begin(), B.end(),
                 std::back_inserter(Merged));
  // The union contains both operands; equal size means equal sets.
  if (Merged.size() == A.size())
    return A;
  if (Merged.size() == B.size())
    return B;
  return keep(Merged);
}

LinearSolver::AtomSet LinearSolver::intersectOf(AtomSet A, AtomSet B) {
  if (A.empty() || B.empty())
    return {};
  if (A.data() == B.data())
    return A;
  Merged.clear();
  std::set_intersection(A.begin(), A.end(), B.begin(), B.end(),
                        std::back_inserter(Merged));
  // The intersection is contained in both operands.
  if (Merged.size() == A.size())
    return A;
  if (Merged.size() == B.size())
    return B;
  return keep(Merged);
}

bool LinearSolver::intersects(AtomSet A, AtomSet B) {
  auto IA = A.begin(), IB = B.begin();
  while (IA != A.end() && IB != B.end()) {
    if (*IA < *IB)
      ++IA;
    else if (*IB < *IA)
      ++IB;
    else
      return true;
  }
  return false;
}

LinearSolver::PN LinearSolver::sets(const Expr *E, bool Neg) {
  if (const PN *Found = Memo[Neg].find(E))
    return *Found;

  // Iterative post-order so huge shared DAGs do not overflow the stack.
  // Each node is evaluated under the polarity it occurs in: ¬ flips the
  // polarity of its operand, so a negated compound is evaluated as its De
  // Morgan dual and only atoms are ever negated directly.
  struct Item {
    const Expr *E;
    bool Neg;
    bool Visited;
  };
  std::vector<Item> Stack{{E, Neg, false}};
  while (!Stack.empty()) {
    auto [Cur, CurNeg, Visited] = Stack.back();
    Stack.pop_back();
    if (Memo[CurNeg].find(Cur))
      continue;
    const ExprKind K = Cur->kind();
    // A negated atom needs no visit of its operand.
    const bool NotAtom = K == ExprKind::Not && Cur->operand(0)->isAtom();
    if (!Visited && !NotAtom) {
      Stack.push_back({Cur, CurNeg, true});
      if (K == ExprKind::Not || K == ExprKind::And || K == ExprKind::Or) {
        const bool OpNeg = CurNeg != (K == ExprKind::Not);
        for (const Expr *Op : Cur->operands())
          if (!Memo[OpNeg].find(Op))
            Stack.push_back({Op, OpNeg, false});
      }
      continue;
    }
    PN Result;
    switch (K) {
    case ExprKind::True:
    case ExprKind::False:
      break; // Both sets empty; True/False are not atoms.
    case ExprKind::Not:
      if (NotAtom) {
        const uint32_t Id = Cur->operand(0)->id();
        (CurNeg ? Result.P : Result.N) = keep({&Id, 1});
      } else {
        Result = *Memo[!CurNeg].find(Cur->operand(0));
      }
      break;
    case ExprKind::And:
    case ExprKind::Or: {
      // Copies: the insert below may move the table's slots.
      const PN L = *Memo[CurNeg].find(Cur->operand(0));
      const PN R = *Memo[CurNeg].find(Cur->operand(1));
      // ¬(C1 ∧ C2) = ¬C1 ∨ ¬C2 and ¬(C1 ∨ C2) = ¬C1 ∧ ¬C2.
      if ((K == ExprKind::And) != CurNeg) {
        Result.P = unionOf(L.P, R.P);
        Result.N = unionOf(L.N, R.N);
      } else {
        Result.P = intersectOf(L.P, R.P);
        Result.N = intersectOf(L.N, R.N);
      }
      break;
    }
    default:
      // Atoms: boolean variables and comparisons. (Comparisons are treated
      // as opaque atoms; their arithmetic is the SMT backend's job.)
      if (Cur->isAtom()) {
        const uint32_t Id = Cur->id();
        (CurNeg ? Result.N : Result.P) = keep({&Id, 1});
      }
      break;
    }
    Memo[CurNeg].insert(Cur, Result);
  }
  return *Memo[Neg].find(E);
}

bool LinearSolver::isObviouslyUnsat(const Expr *E) {
  if (E->isFalse())
    return true;
  const PN S = sets(E);
  return intersects(S.P, S.N);
}

} // namespace pinpoint::smt
