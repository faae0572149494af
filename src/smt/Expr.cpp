//===- smt/Expr.cpp --------------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "smt/Expr.h"

#include <algorithm>
#include <bit>

namespace pinpoint::smt {

ExprContext::ExprContext() {
  TrueExpr = intern(ExprKind::True, {}, 0, 0);
  FalseExpr = intern(ExprKind::False, {}, 0, 0);
}

uint64_t ExprContext::hashKey(ExprKind K, std::span<const Expr *const> Ops,
                              uint32_t Var, int64_t Const) const {
  uint64_t H = static_cast<uint64_t>(K) * 0x9e3779b97f4a7c15ULL;
  H ^= (static_cast<uint64_t>(Var) + 1) * 0xbf58476d1ce4e5b9ULL;
  H ^= static_cast<uint64_t>(Const) * 0x94d049bb133111ebULL;
  for (const Expr *Op : Ops)
    H = (H ^ Op->id()) * 0x100000001b3ULL;
  return H;
}

void ExprContext::InternShard::grow() {
  std::vector<Slot> Old = std::move(Slots);
  const size_t Cap = Old.empty() ? 16 : Old.size() * 2;
  Slots.assign(Cap, Slot{});
  Shift = 64 - static_cast<unsigned>(std::countr_zero(Cap));
  const size_t Mask = Cap - 1;
  for (const Slot &S : Old) {
    if (!S.E)
      continue;
    size_t Pos = probe(S.Hash);
    while (Slots[Pos].E)
      Pos = (Pos + 1) & Mask;
    Slots[Pos] = S;
  }
}

const Expr *ExprContext::intern(ExprKind K, std::span<const Expr *const> Ops,
                                uint32_t Var, int64_t Const) {
  uint64_t H = hashKey(K, Ops, Var, Const);
  // Fold the high bits in; the shard's table probes from the bits this
  // leaves free (InternShard::probe).
  InternShard &S = Shards[(H ^ (H >> 32)) % NumInternShards];
  std::lock_guard<std::mutex> L(S.Mu);
  if ((S.Used + 1) * 4 > S.Slots.size() * 3)
    S.grow();
  const size_t Mask = S.Slots.size() - 1;
  size_t Pos = S.probe(H);
  for (; S.Slots[Pos].E; Pos = (Pos + 1) & Mask) {
    const Expr *E = S.Slots[Pos].E;
    if (S.Slots[Pos].Hash != H || E->Kind != K || E->NumOps != Ops.size())
      continue;
    if (E->isVar() && E->VarOrConst.Var != Var)
      continue;
    if (K == ExprKind::IntConst && E->VarOrConst.Const != Const)
      continue;
    if (std::equal(Ops.begin(), Ops.end(), E->Ops))
      return E;
  }

  const Expr **OpArray = nullptr;
  if (!Ops.empty()) {
    OpArray = static_cast<const Expr **>(
        S.Mem.allocate(sizeof(Expr *) * Ops.size(), alignof(Expr *)));
    std::copy(Ops.begin(), Ops.end(), OpArray);
  }
  // Expr's constructor is private; ExprContext is a friend, so construct
  // in-place rather than through Arena::allocObject. Expr is trivially
  // destructible, so no destructor registration is needed.
  static_assert(std::is_trivially_destructible_v<Expr>);
  void *Raw = S.Mem.allocate(sizeof(Expr), alignof(Expr));
  uint32_t Id = NextId.fetch_add(1, std::memory_order_relaxed);
  Expr *E = new (Raw) Expr(K, Id, OpArray, static_cast<uint8_t>(Ops.size()));
#ifndef NDEBUG
  // Interning invariant: operands are fully constructed (and therefore
  // numbered) before their parent — ids are topological even when shards
  // interleave allocations.
  for (const Expr *Op : Ops)
    assert(Op->id() < Id && "operand interned after its parent");
#endif
  if (E->isVar())
    E->VarOrConst.Var = Var;
  else if (K == ExprKind::IntConst)
    E->VarOrConst.Const = Const;
  S.Slots[Pos] = {H, E};
  ++S.Used;
  return E;
}

size_t ExprContext::bytesUsed() const {
  size_t N = 0;
  for (const InternShard &S : Shards) {
    std::lock_guard<std::mutex> L(S.Mu);
    N += S.Mem.bytesUsed();
  }
  return N;
}

const Expr *ExprContext::freshVar(ExprKind K) {
  return intern(K, {}, NextVar.fetch_add(1, std::memory_order_relaxed), 0);
}

const Expr *ExprContext::mkNot(const Expr *A) {
  assert(A->isBool() && "mkNot on non-boolean");
  if (A->isTrue())
    return FalseExpr;
  if (A->isFalse())
    return TrueExpr;
  if (A->kind() == ExprKind::Not)
    return A->operand(0);
  const Expr *Ops[1] = {A};
  return intern(ExprKind::Not, Ops, 0, 0);
}

const Expr *ExprContext::mkAnd(const Expr *A, const Expr *B) {
  assert(A->isBool() && B->isBool() && "mkAnd on non-boolean");
  if (A->isFalse() || B->isFalse())
    return FalseExpr;
  if (A->isTrue())
    return B;
  if (B->isTrue())
    return A;
  if (A == B)
    return A;
  // x ∧ ¬x and ¬x ∧ x fold to false immediately.
  if ((A->kind() == ExprKind::Not && A->operand(0) == B) ||
      (B->kind() == ExprKind::Not && B->operand(0) == A))
    return FalseExpr;
  if (A->id() > B->id())
    std::swap(A, B);
  const Expr *Ops[2] = {A, B};
  return intern(ExprKind::And, Ops, 0, 0);
}

const Expr *ExprContext::mkOr(const Expr *A, const Expr *B) {
  assert(A->isBool() && B->isBool() && "mkOr on non-boolean");
  if (A->isTrue() || B->isTrue())
    return TrueExpr;
  if (A->isFalse())
    return B;
  if (B->isFalse())
    return A;
  if (A == B)
    return A;
  if ((A->kind() == ExprKind::Not && A->operand(0) == B) ||
      (B->kind() == ExprKind::Not && B->operand(0) == A))
    return TrueExpr;
  if (A->id() > B->id())
    std::swap(A, B);
  const Expr *Ops[2] = {A, B};
  return intern(ExprKind::Or, Ops, 0, 0);
}

const Expr *ExprContext::mkAndN(std::span<const Expr *const> Es) {
  const Expr *Acc = TrueExpr;
  for (const Expr *E : Es)
    Acc = mkAnd(Acc, E);
  return Acc;
}

const Expr *ExprContext::mkOrN(std::span<const Expr *const> Es) {
  const Expr *Acc = FalseExpr;
  for (const Expr *E : Es)
    Acc = mkOr(Acc, E);
  return Acc;
}

const Expr *ExprContext::mkCmp(ExprKind K, const Expr *A, const Expr *B) {
  assert(K >= ExprKind::Eq && K <= ExprKind::Ge && "not a comparison");
  assert(!A->isBool() && !B->isBool() && "comparison on boolean operands");
  // Constant fold.
  if (A->kind() == ExprKind::IntConst && B->kind() == ExprKind::IntConst) {
    int64_t X = A->constValue(), Y = B->constValue();
    switch (K) {
    case ExprKind::Eq:
      return getBool(X == Y);
    case ExprKind::Ne:
      return getBool(X != Y);
    case ExprKind::Lt:
      return getBool(X < Y);
    case ExprKind::Le:
      return getBool(X <= Y);
    case ExprKind::Gt:
      return getBool(X > Y);
    default:
      return getBool(X >= Y);
    }
  }
  if (A == B) {
    switch (K) {
    case ExprKind::Eq:
    case ExprKind::Le:
    case ExprKind::Ge:
      return TrueExpr;
    case ExprKind::Ne:
    case ExprKind::Lt:
    case ExprKind::Gt:
      return FalseExpr;
    default:
      break;
    }
  }
  // Canonicalise symmetric comparisons by operand id.
  if ((K == ExprKind::Eq || K == ExprKind::Ne) && A->id() > B->id())
    std::swap(A, B);
  const Expr *Ops[2] = {A, B};
  return intern(K, Ops, 0, 0);
}

const Expr *ExprContext::mkArith(ExprKind K, const Expr *A, const Expr *B) {
  assert(K >= ExprKind::Add && K <= ExprKind::Mul && "not an arith op");
  assert(!A->isBool() && !B->isBool() && "arith on boolean operands");
  if (A->kind() == ExprKind::IntConst && B->kind() == ExprKind::IntConst) {
    int64_t X = A->constValue(), Y = B->constValue();
    switch (K) {
    case ExprKind::Add:
      return getInt(X + Y);
    case ExprKind::Sub:
      return getInt(X - Y);
    default:
      return getInt(X * Y);
    }
  }
  if ((K == ExprKind::Add || K == ExprKind::Mul) && A->id() > B->id())
    std::swap(A, B);
  const Expr *Ops[2] = {A, B};
  return intern(K, Ops, 0, 0);
}

const Expr *ExprContext::mkNeg(const Expr *A) {
  assert(!A->isBool() && "mkNeg on boolean");
  if (A->kind() == ExprKind::IntConst)
    return getInt(-A->constValue());
  if (A->kind() == ExprKind::Neg)
    return A->operand(0);
  const Expr *Ops[1] = {A};
  return intern(ExprKind::Neg, Ops, 0, 0);
}

const Expr *ExprContext::mkIte(const Expr *Cond, const Expr *Then,
                               const Expr *Else) {
  assert(Cond->isBool() && !Then->isBool() && !Else->isBool());
  if (Cond->isTrue())
    return Then;
  if (Cond->isFalse())
    return Else;
  if (Then == Else)
    return Then;
  const Expr *Ops[3] = {Cond, Then, Else};
  return intern(ExprKind::Ite, Ops, 0, 0);
}

const Expr *ExprContext::substitute(const Expr *E, SubstScratch &S) {
  S.beginRewrite(E);
  // Iterative post-order over the DAG to avoid deep recursion.
  auto &Stack = S.Stack;
  Stack.assign(1, {E, false});
  while (!Stack.empty()) {
    auto [Cur, Visited] = Stack.back();
    Stack.pop_back();
    if (S.done(Cur))
      continue;
    if (!Visited) {
      Stack.push_back({Cur, true});
      for (const Expr *Op : Cur->operands())
        if (!S.done(Op))
          Stack.push_back({Op, false});
      continue;
    }
    auto Sub = [&](unsigned I) { return S.memo(Cur->operand(I)); };
    const Expr *New = Cur;
    switch (Cur->kind()) {
    case ExprKind::BoolVar:
    case ExprKind::IntVar:
      if (const Expr *Repl = S.mapped(Cur->varId()))
        New = Repl;
      break;
    case ExprKind::Not:
      New = mkNot(Sub(0));
      break;
    case ExprKind::And:
      New = mkAnd(Sub(0), Sub(1));
      break;
    case ExprKind::Or:
      New = mkOr(Sub(0), Sub(1));
      break;
    case ExprKind::Eq:
    case ExprKind::Ne:
    case ExprKind::Lt:
    case ExprKind::Le:
    case ExprKind::Gt:
    case ExprKind::Ge:
      New = mkCmp(Cur->kind(), Sub(0), Sub(1));
      break;
    case ExprKind::Add:
    case ExprKind::Sub:
    case ExprKind::Mul:
      New = mkArith(Cur->kind(), Sub(0), Sub(1));
      break;
    case ExprKind::Neg:
      New = mkNeg(Sub(0));
      break;
    case ExprKind::Ite:
      New = mkIte(toBoolExpr(Sub(0)), toIntExpr(Sub(1)), toIntExpr(Sub(2)));
      break;
    default:
      break; // True/False/IntConst are fixed points.
    }
    S.setMemo(Cur, New);
  }
  return S.memo(E);
}

void ExprContext::collectVars(const Expr *E,
                              std::vector<const Expr *> &Out) const {
  // Ids are topological, so a max-heap on ids pops every node after all of
  // its parents: the copies a shared node gets from several parents are
  // all queued before the first one pops, and they pop back to back. Only
  // the first is expanded, so no visited set is needed.
  auto Lower = [](const Expr *A, const Expr *B) { return A->id() < B->id(); };
  std::vector<const Expr *> Heap{E};
  const Expr *Last = nullptr;
  while (!Heap.empty()) {
    std::pop_heap(Heap.begin(), Heap.end(), Lower);
    const Expr *Cur = Heap.back();
    Heap.pop_back();
    if (Cur == Last)
      continue;
    Last = Cur;
    if (Cur->isVar())
      Out.push_back(Cur);
    for (const Expr *Op : Cur->operands()) {
      Heap.push_back(Op);
      std::push_heap(Heap.begin(), Heap.end(), Lower);
    }
  }
  // One node per variable id, so sorting by id leaves duplicates adjacent.
  std::sort(Out.begin(), Out.end(), [](const Expr *A, const Expr *B) {
    return A->varId() < B->varId();
  });
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
}

std::string ExprContext::toString(const Expr *E, const VarNamer &Name) const {
  auto Sub = [&](unsigned I) { return toString(E->operand(I), Name); };
  switch (E->kind()) {
  case ExprKind::True:
    return "true";
  case ExprKind::False:
    return "false";
  case ExprKind::BoolVar:
  case ExprKind::IntVar:
    return Name ? Name(E) : "v" + std::to_string(E->varId());
  case ExprKind::IntConst:
    return std::to_string(E->constValue());
  case ExprKind::Not:
    return "!" + Sub(0);
  case ExprKind::Neg:
    return "-" + Sub(0);
  case ExprKind::Ite:
    return "ite(" + Sub(0) + ", " + Sub(1) + ", " + Sub(2) + ")";
  default:
    break;
  }
  const char *Op = "?";
  switch (E->kind()) {
  case ExprKind::And:
    Op = " & ";
    break;
  case ExprKind::Or:
    Op = " | ";
    break;
  case ExprKind::Eq:
    Op = " == ";
    break;
  case ExprKind::Ne:
    Op = " != ";
    break;
  case ExprKind::Lt:
    Op = " < ";
    break;
  case ExprKind::Le:
    Op = " <= ";
    break;
  case ExprKind::Gt:
    Op = " > ";
    break;
  case ExprKind::Ge:
    Op = " >= ";
    break;
  case ExprKind::Add:
    Op = " + ";
    break;
  case ExprKind::Sub:
    Op = " - ";
    break;
  case ExprKind::Mul:
    Op = " * ";
    break;
  default:
    break;
  }
  return "(" + Sub(0) + Op + Sub(1) + ")";
}

} // namespace pinpoint::smt
