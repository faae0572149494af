//===- svfa/ReachOracle.cpp ---------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "svfa/ReachOracle.h"
#include "support/Statistics.h"

using namespace pinpoint::ir;

namespace pinpoint::svfa {

void ReachOracle::buildRow(const BasicBlock *From) {
  Counters::get().add("svfa.lazy-reach-rows", 1);
  std::vector<uint64_t> &R = Rows[From->id()];
  R.assign((F.blockIdBound() + 63) / 64, 0);
  // Per-row DFS; the row doubles as the visited set (loops are fine: a set
  // bit is never pushed again).
  std::vector<const BasicBlock *> Work(From->succs().begin(),
                                       From->succs().end());
  while (!Work.empty()) {
    const BasicBlock *Cur = Work.back();
    Work.pop_back();
    uint64_t &W = R[Cur->id() >> 6];
    const uint64_t Bit = uint64_t(1) << (Cur->id() & 63);
    if (W & Bit)
      continue;
    W |= Bit;
    Work.insert(Work.end(), Cur->succs().begin(), Cur->succs().end());
  }
}

bool ReachOracle::reaches(const Stmt *A, const Stmt *B) {
  if (A == B)
    return false;
  const uint32_t OrderA = F.stmtOrder(A), OrderB = F.stmtOrder(B);
  if (A->parent() == B->parent())
    return OrderA < OrderB;
  // Reverse-post-order numbers over an acyclic CFG: every path leads to
  // larger numbers, so a target numbered below the source is unreachable.
  if (OrderB < OrderA)
    return false;
  if (Rows.empty()) {
    Counters::get().add("svfa.reach-oracles-built", 1);
    Rows.resize(F.blockIdBound());
  }
  if (Rows[A->parent()->id()].empty())
    buildRow(A->parent());
  const uint32_t To = B->parent()->id();
  return (Rows[A->parent()->id()][To >> 6] >> (To & 63)) & 1;
}

} // namespace pinpoint::svfa
