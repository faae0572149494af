//===- ir/Dominators.h - Dominator / post-dominator trees -----------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator and post-dominator trees (Cooper-Harvey-Kennedy iterative
/// algorithm) plus dominance frontiers. Used by SSA construction, gated-SSA
/// condition computation, and the control-dependence subgraph of the SEG
/// (Ferrante-Ottenstein-Warren: control dependence = post-dominance
/// frontier).
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

  /// The dominance frontier of \p B.
  const std::vector<BasicBlock *> &frontier(const BasicBlock *B) const {
    return B->id() < Frontier.size() ? Frontier[B->id()] : Empty;
  }

  /// Tree children of \p B.
  const std::vector<BasicBlock *> &children(const BasicBlock *B) const {
    return B->id() < Children.size() ? Children[B->id()] : Empty;
  }

  BasicBlock *root() const { return Root; }

  /// Blocks in reverse post-order of the walked direction.
  const std::vector<BasicBlock *> &rpo() const { return RPO; }

private:
  const std::vector<BasicBlock *> &edgesIn(const BasicBlock *B) const {
    return Dir == Direction::Forward ? B->preds() : B->succs();
  }

  Direction Dir;
  BasicBlock *Root = nullptr;
  std::vector<BasicBlock *> RPO;
  /// Indexed by block id, sized `Function::blockIdBound()`.
  std::vector<BasicBlock *> IDom;
  std::vector<std::vector<BasicBlock *>> Frontier, Children;
  std::vector<BasicBlock *> Empty;
};

} // namespace pinpoint::ir

#endif // PINPOINT_IR_DOMINATORS_H
