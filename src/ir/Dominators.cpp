//===- ir/Dominators.cpp ----------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ir/Dominators.h"

namespace pinpoint::ir {

DomTree::DomTree(const Function &F, Direction Dir) {
  const bool Post = Dir == Direction::Post;
  Root = Post ? F.exitBlock() : F.entry();
  if (!Root)
    return;
  RPO = reversePostOrder(F, Post);
  const size_t Bound = F.blockIdBound();
  std::vector<uint32_t> RPOIndex(Bound, 0);
  for (size_t I = 0; I < RPO.size(); ++I)
    RPOIndex[RPO[I]->id()] = static_cast<uint32_t>(I);

  // Cooper-Harvey-Kennedy iteration. During it the root is its own idom,
  // so a null slot means "unreachable or not yet processed".
  IDom.assign(Bound, nullptr);
  IDom[Root->id()] = Root;
  auto intersect = [&](BasicBlock *A, BasicBlock *B) {
    while (A != B) {
      while (RPOIndex[A->id()] > RPOIndex[B->id()])
        A = IDom[A->id()];
      while (RPOIndex[B->id()] > RPOIndex[A->id()])
        B = IDom[B->id()];
    }
    return A;
  };
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BasicBlock *B : RPO) {
      if (B == Root)
        continue;
      BasicBlock *NewIDom = nullptr;
      for (BasicBlock *P : Post ? B->succs() : B->preds()) {
        if (!IDom[P->id()])
          continue;
        NewIDom = NewIDom ? intersect(NewIDom, P) : P;
      }
      if (NewIDom && IDom[B->id()] != NewIDom) {
        IDom[B->id()] = NewIDom;
        Changed = true;
      }
    }
  }
  IDom[Root->id()] = nullptr; // Root has no idom.
}

bool DomTree::dominates(const BasicBlock *A, const BasicBlock *B) const {
  for (const BasicBlock *Cur = B; Cur; Cur = idom(Cur))
    if (Cur == A)
      return true;
  return false;
}

} // namespace pinpoint::ir
