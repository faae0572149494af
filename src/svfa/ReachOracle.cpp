//===- svfa/ReachOracle.cpp ---------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "svfa/ReachOracle.h"
#include "support/Statistics.h"

using namespace pinpoint::ir;

namespace pinpoint::svfa {

ReachOracle::ReachOracle(const Function &F) : F(F) {}

void ReachOracle::ensureBuilt() {
  if (Built)
    return;
  Built = true;
  Counters::get().add("svfa.reach-oracles-built", 1);
  const std::vector<BasicBlock *> &Blocks = F.blocks();
  const size_t NumBlocks = Blocks.size();
  Words = (NumBlocks + 63) / 64;
  Index.reserve(NumBlocks);
  for (size_t I = 0; I < NumBlocks; ++I)
    Index.emplace(Blocks[I], static_cast<uint32_t>(I));
  RowBuilt.assign(NumBlocks, 0);
  Rows.resize(NumBlocks);
}

void ReachOracle::buildRow(uint32_t Row) {
  RowBuilt[Row] = 1;
  Counters::get().add("svfa.lazy-reach-rows", 1);
  const std::vector<BasicBlock *> &Blocks = F.blocks();
  Rows[Row].assign(Words, 0);
  uint64_t *R = Rows[Row].data();
  // Per-row DFS; the row doubles as the visited set (loops are fine: a set
  // bit is never pushed again).
  std::vector<uint32_t> Work;
  for (const BasicBlock *Succ : Blocks[Row]->succs())
    Work.push_back(Index.at(Succ));
  while (!Work.empty()) {
    uint32_t Cur = Work.back();
    Work.pop_back();
    uint64_t &W = R[Cur >> 6];
    const uint64_t Bit = uint64_t(1) << (Cur & 63);
    if (W & Bit)
      continue;
    W |= Bit;
    for (const BasicBlock *Succ : Blocks[Cur]->succs())
      Work.push_back(Index.at(Succ));
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
  ensureBuilt();
  const uint32_t From = Index.at(A->parent()), To = Index.at(B->parent());
  if (!RowBuilt[From])
    buildRow(From);
  return (Rows[From][To >> 6] >> (To & 63)) & 1;
}

} // namespace pinpoint::svfa
