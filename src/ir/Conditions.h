//===- ir/Conditions.h - Gated-SSA conditions & control dependence --------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bridges the IR and the symbolic expression DAG:
///
///  * `SymbolMap` assigns each SSA variable a symbolic variable (bool-typed
///    IR variables become boolean atoms — the θs of the paper; everything
///    else, including pointers, becomes an integer term).
///
///  * `ConditionMap` computes, per function,
///      - edge conditions (branch literal per CFG edge),
///      - reaching conditions RC(From→X) by topological propagation
///        (the gated-SSA construction; almost-linear thanks to hash-consing,
///        in the spirit of Tu & Padua [48]),
///      - phi gates: gate(phi in B, pred P) = RC(idom(B)→P) ∧ edgeCond(P→B),
///      - control dependence per Ferrante-Ottenstein-Warren (the paper's
///        "efficient path conditions" [43] come from chaining these),
///        walked over a post-dominator tree the constructor builds and
///        drops.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_IR_CONDITIONS_H
#define PINPOINT_IR_CONDITIONS_H

#include "ir/Dominators.h"
#include "ir/IR.h"
#include "smt/Expr.h"
#include "support/SlotTable.h"

#include <atomic>
#include <vector>

namespace pinpoint::ir {

/// Maps IR variables to symbolic variables, creating them on first use.
///
/// One SymbolMap serves one module and is read by concurrent pipeline and
/// checker tasks under `--jobs N`, so it takes no lock. It owns two slot
/// tables: forward slots indexed by `Variable::globalId()` and reverse
/// slots indexed by symbolic variable id. A lookup is an acquire load of
/// the forward slot. A first use mints the symbolic variable, writes its
/// reverse slot, then publishes it with a release CAS on the forward slot,
/// so a thread that sees a symbol also sees its `irVar`. When two first
/// uses race, the loser's symbolic variable stays unused and its reverse
/// slot is cleared (DESIGN §9, "Symbol table"). The returned Expr nodes
/// are immutable.
class SymbolMap {
public:
  SymbolMap(const Module &M, smt::ExprContext &Ctx) : M(M), Ctx(Ctx) {}

  /// The symbolic variable (or constant) denoting \p V. A variable of
  /// another module is an error (std::invalid_argument): module-wide ids of
  /// two modules would alias.
  const smt::Expr *operator[](const Value *V);

  /// The IR variable a symbolic variable id came from, or null when this
  /// map did not mint that id. Symbols have no names of their own; output
  /// that prints one names it after this variable.
  const Variable *irVar(uint32_t SymVarId) const {
    return Reverse.get(SymVarId);
  }

  smt::ExprContext &context() { return Ctx; }

private:
  const smt::Expr *mint(const Variable *Var,
                        std::atomic<const smt::Expr *> &Slot);

  const Module &M;
  smt::ExprContext &Ctx;
  AtomicSlotTable<const smt::Expr> Forward;
  AtomicSlotTable<const Variable> Reverse;
};

/// A control-dependence parent: the branch-condition variable an entity is
/// control dependent on, with the edge polarity (paper Fig. 4's dashed
/// edges and their true/false labels).
struct ControlDep {
  const Variable *BranchVar;
  bool Polarity;
};

/// Per-function condition computations (see file comment).
class ConditionMap {
public:
  ConditionMap(const Function &F, SymbolMap &Syms);

  /// Condition on taking the CFG edge From -> To: the branch literal, or
  /// true for unconditional edges.
  const smt::Expr *edgeCond(const BasicBlock *From, const BasicBlock *To);

  /// Reaching condition of \p To within the region headed by \p From:
  /// RC(From) = true; RC(X) = ⋁_{P→X} RC(P) ∧ edgeCond(P→X).
  const smt::Expr *reachCond(const BasicBlock *From, const BasicBlock *To);

  /// Gate for \p Phi's incoming value from \p Pred (gated SSA).
  const smt::Expr *phiGate(const PhiStmt *Phi, const BasicBlock *Pred);

  /// Direct control-dependence parents of \p B (FOW). Structured lowering
  /// yields at most one entry per block.
  const std::vector<ControlDep> &controlDeps(const BasicBlock *B) const {
    return B->id() < CDs.size() ? CDs[B->id()] : Empty;
  }

  const DomTree &domTree() const { return DT; }

private:
  void computeControlDeps(const Function &F);

  SymbolMap &Syms;
  smt::ExprContext &Ctx;
  DomTree DT;
  /// Indexed by region-head block id, then by block id: one row of
  /// reaching conditions per region queried (empty until then; a null
  /// entry is a block the row's propagation did not reach).
  std::vector<std::vector<const smt::Expr *>> ReachCache;
  /// Control-dependence parents, indexed by block id.
  std::vector<std::vector<ControlDep>> CDs;
  std::vector<ControlDep> Empty;
};

} // namespace pinpoint::ir

#endif // PINPOINT_IR_CONDITIONS_H
