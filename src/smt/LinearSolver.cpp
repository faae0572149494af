//===- smt/LinearSolver.cpp ------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "smt/LinearSolver.h"

#include <algorithm>

namespace pinpoint::smt {

std::vector<uint32_t> LinearSolver::unionOf(const std::vector<uint32_t> &A,
                                            const std::vector<uint32_t> &B) {
  std::vector<uint32_t> Out;
  Out.reserve(A.size() + B.size());
  std::set_union(A.begin(), A.end(), B.begin(), B.end(),
                 std::back_inserter(Out));
  return Out;
}

std::vector<uint32_t>
LinearSolver::intersectOf(const std::vector<uint32_t> &A,
                          const std::vector<uint32_t> &B) {
  std::vector<uint32_t> Out;
  std::set_intersection(A.begin(), A.end(), B.begin(), B.end(),
                        std::back_inserter(Out));
  return Out;
}

bool LinearSolver::intersects(const std::vector<uint32_t> &A,
                              const std::vector<uint32_t> &B) {
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

const LinearSolver::PN &LinearSolver::sets(const Expr *E, bool Neg) {
  auto Found = Cache[Neg].find(E);
  if (Found != Cache[Neg].end())
    return Found->second;

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
    if (Cache[CurNeg].count(Cur))
      continue;
    const ExprKind K = Cur->kind();
    // A negated atom needs no visit of its operand.
    const bool NotAtom = K == ExprKind::Not && Cur->operand(0)->isAtom();
    if (!Visited && !NotAtom) {
      Stack.push_back({Cur, CurNeg, true});
      if (K == ExprKind::Not || K == ExprKind::And || K == ExprKind::Or) {
        const bool OpNeg = CurNeg != (K == ExprKind::Not);
        for (const Expr *Op : Cur->operands())
          if (!Cache[OpNeg].count(Op))
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
      if (NotAtom)
        (CurNeg ? Result.P : Result.N).push_back(Cur->operand(0)->id());
      else
        Result = Cache[!CurNeg][Cur->operand(0)];
      break;
    case ExprKind::And:
    case ExprKind::Or: {
      const PN &L = Cache[CurNeg][Cur->operand(0)];
      const PN &R = Cache[CurNeg][Cur->operand(1)];
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
      if (Cur->isAtom())
        (CurNeg ? Result.N : Result.P).push_back(Cur->id());
      break;
    }
    Cache[CurNeg].emplace(Cur, std::move(Result));
  }
  return Cache[Neg][E];
}

bool LinearSolver::isObviouslyUnsat(const Expr *E) {
  if (E->isFalse())
    return true;
  const PN &S = sets(E);
  return intersects(S.P, S.N);
}

} // namespace pinpoint::smt
