//===- ir/Dominators.h - Dominator / post-dominator trees -----------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator and post-dominator trees (Cooper-Harvey-Kennedy iterative
/// algorithm): immediate dominators and the reverse post-order they were
/// computed over. Used by SSA construction (which derives from it where
/// phis go and the order of its renaming walk, which only SSA reads),
/// gated-SSA condition computation, and the control-dependence subgraph of
/// the SEG (Ferrante-Ottenstein-Warren, walked up the post-dominator tree).
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_IR_DOMINATORS_H
#define PINPOINT_IR_DOMINATORS_H

#include "ir/IR.h"

#include <vector>

namespace pinpoint::ir {

/// Dominator tree over a function's CFG. With Direction::Post it is the
/// post-dominator tree (requires the single exit block lowering guarantees).
class DomTree {
public:
  enum class Direction { Forward, Post };

  DomTree(const Function &F, Direction Dir = Direction::Forward);

  /// Immediate dominator; null for the root.
  BasicBlock *idom(const BasicBlock *B) const {
    return B->id() < IDom.size() ? IDom[B->id()] : nullptr;
  }

  /// True if A dominates B (reflexive).
  bool dominates(const BasicBlock *A, const BasicBlock *B) const;

  BasicBlock *root() const { return Root; }

  /// Blocks in reverse post-order of the walked direction.
  const std::vector<BasicBlock *> &rpo() const { return RPO; }

private:
  BasicBlock *Root = nullptr;
  std::vector<BasicBlock *> RPO;
  /// Indexed by block id, sized `Function::blockIdBound()`.
  std::vector<BasicBlock *> IDom;
};

} // namespace pinpoint::ir

#endif // PINPOINT_IR_DOMINATORS_H
