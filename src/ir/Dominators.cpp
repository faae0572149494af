//===- ir/Dominators.cpp ----------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ir/Dominators.h"

#include <algorithm>

namespace pinpoint::ir {

DomTree::DomTree(const Function &F, Direction D) : Dir(D) {
  Root = Dir == Direction::Forward ? F.entry() : F.exitBlock();
  if (!Root)
    return;
  RPO = reversePostOrder(F, Dir == Direction::Post);
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
      for (BasicBlock *P : edgesIn(B)) {
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

  Children.resize(Bound);
  for (BasicBlock *B : RPO)
    if (BasicBlock *Dom = IDom[B->id()])
      Children[Dom->id()].push_back(B);

  // Dominance frontiers (Cytron et al.).
  Frontier.resize(Bound);
  for (BasicBlock *B : RPO) {
    const auto &In = edgesIn(B);
    if (In.size() < 2)
      continue;
    for (BasicBlock *P : In) {
      if (!IDom[P->id()] && P != Root)
        continue;
      BasicBlock *Runner = P;
      while (Runner && Runner != IDom[B->id()]) {
        auto &FR = Frontier[Runner->id()];
        if (std::find(FR.begin(), FR.end(), B) == FR.end())
          FR.push_back(B);
        Runner = IDom[Runner->id()];
      }
    }
  }
}

bool DomTree::dominates(const BasicBlock *A, const BasicBlock *B) const {
  for (const BasicBlock *Cur = B; Cur; Cur = idom(Cur))
    if (Cur == A)
      return true;
  return false;
}

} // namespace pinpoint::ir
