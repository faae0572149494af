//===- pta/PointsTo.h - Quasi path-sensitive local points-to ---------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The intra-procedural, flow-sensitive, *quasi path-sensitive* points-to
/// analysis of paper Section 3.1.1. Points-to sets and memory contents carry
/// conditions; merges at CFG joins gate entries with the gated-SSA edge
/// conditions; entries whose conditions the linear-time solver refutes are
/// pruned — path sensitivity without ever invoking an SMT solver.
///
/// Outputs:
///  * per-load data dependences (which stored values a load may observe,
///    under which condition) — the memory-induced SEG edges;
///  * per-variable conditional points-to sets;
///  * the function's REF/MOD access paths `*(param, k)` — the side-effect
///    summary the connector transform materialises (Definition 3.1).
///
/// CFGs are acyclic (loops unrolled at lowering), so one RPO pass suffices —
/// this is what makes the local stage cheap, and it is run per function,
/// bottom-up, never globally.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_PTA_POINTSTO_H
#define PINPOINT_PTA_POINTSTO_H

#include "ir/Conditions.h"
#include "ir/IR.h"
#include "pta/Memory.h"
#include "smt/LinearSolver.h"

#include <optional>
#include <vector>

namespace pinpoint::pta {

/// Binding of an Aux formal parameter to its access path (set up by the
/// connector transform; consumed by the second analysis pass).
struct AuxBinding {
  const ir::Variable *Root = nullptr; ///< Null: the variable is unbound.
  int Level = 0;
};

/// Aux bindings indexed by the Aux parameter's variable id. Slots of other
/// variables, and ids past the end, are unbound.
using AuxBindings = std::vector<AuxBinding>;

struct PTAConfig {
  /// Aux formal parameter bindings (empty on the first, pre-transform pass).
  AuxBindings AuxParams;
  /// Quasi path sensitivity: prune entries with obviously-unsat conditions.
  /// Disabled for the flow-sensitivity-only ablation.
  bool UseLinearFilter = true;
  /// Step budget (statement transfers); 0 = unlimited. When exceeded the
  /// pass stops early and the result is marked truncated — remaining loads
  /// simply get no dependences (best effort, never an abort).
  uint64_t MaxSteps = 0;
};

/// An access path *(param, k).
using ParamPath = std::pair<const ir::Variable *, int>;

/// Per-load data dependences, indexed by the load's statement number
/// (`Function::stmtOrder`): the values each load may observe, with
/// conditions — the only points-to output the SEG consumes. Other
/// statements' slots, and loads past the end, have none.
using LoadDepMap = std::vector<ValSet>;

class PointsToResult {
public:
  /// Values a load may observe, with conditions. Entries with a null IR
  /// value denote opaque initial contents (unconstrained).
  const ValSet &loadDeps(const ir::LoadStmt *L) const {
    static const ValSet None;
    uint32_t Ord = F->stmtOrder(L);
    return Ord < LoadDeps.size() ? LoadDeps[Ord] : None;
  }

  /// Conditional points-to set of a pointer variable (empty if untracked).
  const PtsSet &pointsTo(const ir::Variable *V) const {
    static const PtsSet None;
    return V->id() < VarPts.size() && VarPts[V->id()] ? *VarPts[V->id()]
                                                      : None;
  }

  /// The REF'd and MOD'd access paths, ordered by (parameter index, level).
  const std::vector<ParamPath> &refs() const { return Refs; }
  const std::vector<ParamPath> &mods() const { return Mods; }

  /// Conditions constructed / pruned as obviously unsat (ablation stats).
  uint64_t condsChecked() const { return CondsChecked; }
  uint64_t condsPruned() const { return CondsPruned; }

  /// True when the pass stopped early on its step budget.
  bool truncated() const { return Truncated; }

  /// Moves the per-load dependences out, for the SEG built from them. The
  /// memory objects of initial-content entries die with this result; the
  /// SEG skips those entries without reading their origin.
  LoadDepMap takeLoadDeps() && { return std::move(LoadDeps); }

private:
  friend class PointsToAnalysis;
  explicit PointsToResult(const ir::Function &F)
      : F(&F), Objects(F), LoadDeps(F.stmtOrderBound()),
        VarPts(F.vars().size()) {}

  const ir::Function *F;
  MemObjectTable Objects; ///< Owns every object the sets below point to.
  LoadDepMap LoadDeps;
  std::vector<std::optional<PtsSet>> VarPts; ///< By variable id.
  std::vector<ParamPath> Refs, Mods;
  uint64_t CondsChecked = 0, CondsPruned = 0;
  bool Truncated = false;
};

/// Runs the analysis over \p F (must be in SSA form with an acyclic CFG).
PointsToResult runPointsTo(const ir::Function &F, ir::SymbolMap &Syms,
                           ir::ConditionMap &Conds,
                           const PTAConfig &Config = {});

} // namespace pinpoint::pta

#endif // PINPOINT_PTA_POINTSTO_H
