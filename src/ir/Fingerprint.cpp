//===- ir/Fingerprint.cpp ----------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ir/Fingerprint.h"
#include "ir/IR.h"
#include "support/Hasher.h"

namespace pinpoint::ir {

namespace {

// Types are hashed by their depth code; -2/-1/0/k>=1 are all distinct.
void hashType(Hasher &H, Type Ty) {
  if (Ty.isVoid())
    H.u8(0xfe);
  else if (Ty.isBool())
    H.u8(0xff);
  else
    H.u8(static_cast<uint8_t>(Ty.pointerDepth()));
}

void hashValue(Hasher &H, const Value *V) {
  if (V == nullptr) {
    H.u8(0);
    return;
  }
  if (const auto *Var = dyn_cast<Variable>(V)) {
    // Function-local id + name: ids are creation order (deterministic per
    // parse+SSA), the name catches pathological id reuse across edits.
    H.u8(1).u32(Var->id()).str(Var->name());
    return;
  }
  const auto *C = cast<Constant>(V);
  H.u8(2);
  hashType(H, C->type());
  H.i64(C->value());
}

void hashStmt(Hasher &H, const Stmt *S) {
  H.u8(static_cast<uint8_t>(S->stmtKind()));
  H.u8(S->isSynthetic() ? 1 : 0);
  switch (S->stmtKind()) {
  case Stmt::SK_Assign: {
    const auto *A = cast<AssignStmt>(S);
    hashValue(H, A->dst());
    hashValue(H, A->src());
    break;
  }
  case Stmt::SK_Phi: {
    const auto *P = cast<PhiStmt>(S);
    hashValue(H, P->dst());
    H.u32(static_cast<uint32_t>(P->incoming().size()));
    for (const auto &[Pred, V] : P->incoming()) {
      H.u32(Pred->id());
      hashValue(H, V);
    }
    break;
  }
  case Stmt::SK_BinOp: {
    const auto *B = cast<BinOpStmt>(S);
    H.u8(static_cast<uint8_t>(B->op()));
    hashValue(H, B->dst());
    hashValue(H, B->lhs());
    hashValue(H, B->rhs());
    break;
  }
  case Stmt::SK_UnOp: {
    const auto *U = cast<UnOpStmt>(S);
    H.u8(static_cast<uint8_t>(U->op()));
    hashValue(H, U->dst());
    hashValue(H, U->src());
    break;
  }
  case Stmt::SK_Load: {
    const auto *L = cast<LoadStmt>(S);
    hashValue(H, L->dst());
    hashValue(H, L->addr());
    H.u32(L->derefs());
    break;
  }
  case Stmt::SK_Store: {
    const auto *St = cast<StoreStmt>(S);
    hashValue(H, St->addr());
    H.u32(St->derefs());
    hashValue(H, St->value());
    break;
  }
  case Stmt::SK_Branch: {
    const auto *Br = cast<BranchStmt>(S);
    hashValue(H, Br->cond());
    H.u32(Br->trueBlock()->id());
    H.u32(Br->falseBlock()->id());
    break;
  }
  case Stmt::SK_Jump:
    H.u32(cast<JumpStmt>(S)->target()->id());
    break;
  case Stmt::SK_Return: {
    const auto *R = cast<ReturnStmt>(S);
    H.u32(static_cast<uint32_t>(R->values().size()));
    for (const Value *V : R->values())
      hashValue(H, V);
    break;
  }
  case Stmt::SK_Call: {
    const auto *C = cast<CallStmt>(S);
    // Callee by *name*: which function the name resolves to (and what that
    // callee's interface looks like) is covered by the callee-SCC keys the
    // cache folds into the transitive hash, not by this local fingerprint.
    H.str(C->calleeName());
    hashValue(H, C->receiver());
    H.u32(static_cast<uint32_t>(C->args().size()));
    for (const Value *A : C->args())
      hashValue(H, A);
    H.u32(static_cast<uint32_t>(C->auxReceivers().size()));
    for (const Variable *R : C->auxReceivers())
      hashValue(H, R);
    break;
  }
  }
}

} // namespace

uint64_t fingerprintFunction(const Function &F) {
  Hasher H;
  H.str(F.name());
  hashType(H, F.returnType());

  H.u32(static_cast<uint32_t>(F.params().size()));
  for (const Variable *P : F.params()) {
    H.u32(P->id()).str(P->name());
    hashType(H, P->type());
    H.u8(P->isAuxParam() ? 1 : 0);
  }

  H.u32(static_cast<uint32_t>(F.blocks().size()));
  for (const BasicBlock *B : F.blocks()) {
    H.u32(B->id());
    H.u32(static_cast<uint32_t>(B->stmts().size()));
    for (const Stmt *S : B->stmts())
      hashStmt(H, S);
  }
  return H.digest();
}

std::unordered_map<const Function *, uint64_t>
fingerprintModule(const Module &M) {
  std::unordered_map<const Function *, uint64_t> FP;
  FP.reserve(M.functions().size());
  for (const Function *F : M.functions())
    FP.emplace(F, fingerprintFunction(*F));
  return FP;
}

} // namespace pinpoint::ir
