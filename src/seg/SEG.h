//===- seg/SEG.h - Symbolic Expression Graph (paper Def. 3.2) -------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-function Symbolic Expression Graph. It is the paper's new kind of
/// sparse value-flow graph and carries three things:
///
///  1. **Value-flow edges** (the data-dependence subgraph Gd): from each SSA
///     value to the values it defines, labelled with the condition on which
///     the dependence holds — phi gates from gated SSA, alias conditions
///     from the quasi path-sensitive points-to analysis. `Direct` edges move
///     a value unchanged (assign/phi/load-store); operator edges flow
///     through computations (for taint-style checkers).
///
///  2. **Symbolic definitions**: every variable's defining statement as a
///     constraint over the symbol map (the operator vertices of Fig. 4,
///     realised as hash-consed smt::Expr nodes). The memoised closure
///     DD(v@s) of Example 3.7 conjoins everything a value transitively
///     depends on, leaving function parameters and call receivers *open* —
///     the holes that Equations (2)/(3) fill during inter-procedural
///     stitching.
///
///  3. **Control dependence** (Gc): CD(v@s) of Example 3.8, the
///     "efficient path condition" chain of branch literals plus the DD of
///     each branch variable.
///
/// A `SEG` is built once per function after the connector transform; the
/// global analysis never re-analyses the function body (Section 3.3).
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SEG_SEG_H
#define PINPOINT_SEG_SEG_H

#include "ir/Conditions.h"
#include "ir/IR.h"
#include "pta/PointsTo.h"
#include "support/Arena.h"
#include "support/Span.h"

#include <memory>
#include <mutex>
#include <vector>

namespace pinpoint::seg {

/// How a value is used at a statement (for sink matching and call hops).
enum class UseKind : uint8_t {
  DerefAddr, ///< Address operand of a load or store.
  CallArg,   ///< Argument of a call (Index = position).
  RetVal,    ///< Member of the return bundle (Index = position).
  StoreVal,  ///< Value operand of a store.
  BranchCond,
  Operand, ///< Operand of an assign/binop/unop/phi.
};

struct Use {
  const ir::Stmt *S;
  UseKind Kind;
  int Index; ///< Arg / return-bundle position; -1 otherwise.
};

/// A value-flow edge v → To under condition Cond.
struct FlowEdge {
  const ir::Variable *To;
  const smt::Expr *Cond;
  bool Direct; ///< True: value moves unchanged; false: through an operator.
  const ir::Stmt *Via;
};

/// The constraint closure of a DD/CD query: the formula plus the open ends
/// whose constraints live in callers (parameters) or callees (receivers).
/// The lists are spans into the owning SEG's storage.
struct Closure {
  const smt::Expr *C = nullptr;
  /// In variable-id order.
  Span<const ir::Variable *> OpenParams;
  /// (call, bundle index): -1 = primary return value, i>=0 = i-th aux. In
  /// statement order, then bundle index.
  Span<std::pair<const ir::CallStmt *, int>> OpenRecvs;
};

class SEG {
public:
  /// Builds the SEG for \p F (post-SSA, post-transform) from the final
  /// per-load data dependences (points-to pass 2's, or a cache replay's).
  SEG(const ir::Function &F, ir::SymbolMap &Syms, ir::ConditionMap &Conds,
      const pta::LoadDepMap &LoadDeps);

  const ir::Function &function() const { return F; }

  //===--- Graph access ----------------------------------------------------===
  //
  // Adjacency is frozen into immutable CSR arrays (offset + edge array per
  // direction) once construction finishes, with one row per variable of the
  // function, indexed by `Variable::id()`; accessors hand out non-owning
  // spans over the arena-backed rows. Per-variable edge order is the build
  // order.

  Span<FlowEdge> flowsOut(const ir::Variable *V) const {
    return row(FlowOutOff, FlowOutE, V);
  }

  /// Reverse edges: who flows *into* V (edge.To is then the source).
  Span<FlowEdge> flowsIn(const ir::Variable *V) const {
    return row(FlowInOff, FlowInE, V);
  }

  Span<Use> usesOf(const ir::Variable *V) const {
    return row(UsesOff, UsesE, V);
  }

  /// All call statements in the function (for summary application).
  const std::vector<const ir::CallStmt *> &calls() const { return Calls; }

  //===--- Constraint queries ----------------------------------------------===
  //
  // Queries are thread-safe: each SEG serialises them on its own mutex
  // (the memo caches are lazy). Different functions' SEGs never contend,
  // which is where the checker-phase parallelism comes from.

  /// DD(v@s): the memoised data-dependence constraint closure of \p V.
  /// The returned reference is stable (arena backed) and the closure is
  /// immutable once cached, so it may be read after the lock is released.
  const Closure &dd(const ir::Variable *V);

  /// CD(v@s): the control-dependence condition of \p S — branch literals up
  /// the FOW chain, with the DD closures of the branch variables folded in.
  /// It depends on S's block only and is memoised per block, like dd().
  const Closure &controlCond(const ir::Stmt *S);

  /// Equality between two values' symbols as a constraint
  /// (ExprContext::mkValueEq; A's symbol is looked up first).
  const smt::Expr *valueEq(const ir::Value *A, const ir::Value *B);

  /// The symbol of \p V (delegates to the symbol map).
  const smt::Expr *symbol(const ir::Value *V) { return Syms[V]; }

  /// IR variables whose symbols occur in \p E (gate support variables).
  std::vector<const ir::Variable *> gateIRVars(const smt::Expr *E) const;

  //===--- Statistics -------------------------------------------------------

  /// Variables with at least one flow edge or use.
  size_t numVertices() const { return NumVertices; }
  size_t numEdges() const { return EdgeCount; }

private:
  /// A symbolic definition in its frozen form: the dependence list is an
  /// arena-backed span, the record itself trivially destructible and
  /// arena-allocated (stable address — dd() walks these while holding
  /// QueryMu, and the arena never moves an allocation).
  struct LocalDef {
    const smt::Expr *Constraint; ///< This definition's own equation.
    Span<const ir::Variable *> Deps;
    bool OpensParam = false;
    const ir::CallStmt *OpenCall = nullptr;
    int OpenRecvIndex = 0;
  };
  /// Construction form of a LocalDef, used while build() precomputes load
  /// definitions and by makeLocalDef; freezeDef packs it into the arena.
  struct LocalDefInfo {
    const smt::Expr *Constraint = nullptr;
    std::vector<const ir::Variable *> Deps;
    bool OpensParam = false;
    const ir::CallStmt *OpenCall = nullptr;
    int OpenRecvIndex = 0;
  };

  void build(const pta::LoadDepMap &LoadDeps);
  void freeze();
  const Closure &ddImpl(const ir::Variable *V);
  const Closure &controlCondImpl(const ir::BasicBlock *B);
  /// Freezes a closure's formula and open ends (sorted into id order and
  /// deduplicated here) into the memo arena.
  const Closure *
  freezeClosure(const smt::Expr *C,
                std::vector<const ir::Variable *> &OpenParams,
                std::vector<std::pair<const ir::CallStmt *, int>> &OpenRecvs);
  void addFlow(const ir::Value *From, const ir::Variable *To,
               const smt::Expr *Cond, bool Direct, const ir::Stmt *Via);
  void addUse(const ir::Value *V, const ir::Stmt *S, UseKind K, int Index);
  const smt::Expr *boolExprOf(const ir::Value *V);
  LocalDefInfo makeLocalDef(const ir::Variable *V);
  /// Packs \p Info into the arena and returns the frozen record.
  const LocalDef *freezeDef(LocalDefInfo &&Info);
  const LocalDef &localDef(const ir::Variable *V);

  const ir::Function &F;
  ir::SymbolMap &Syms;
  ir::ConditionMap &Conds;
  smt::ExprContext &Ctx;
  /// Variables of F when the SEG was built: the number of CSR rows and of
  /// per-variable slots.
  const uint32_t NumVars;

  /// Edges and uses in build order, tagged with their row's variable id;
  /// used only while build() runs. freeze() packs them into the CSR arrays
  /// below and drops them.
  struct Builder {
    std::vector<std::pair<uint32_t, FlowEdge>> FlowOut, FlowIn;
    std::vector<std::pair<uint32_t, Use>> Uses;
    /// Load definitions precomputed during build(), in statement order.
    std::vector<std::pair<const ir::Variable *, LocalDefInfo>> BuildDefs;
  };

  template <typename T>
  Span<T> row(const uint32_t *Off, const T *Edges,
              const ir::Variable *V) const {
    assert(V->parent() == &F && "variable of another function");
    const uint32_t Id = V->id();
    if (Id >= NumVars)
      return {};
    return {Edges + Off[Id], Off[Id + 1] - Off[Id]};
  }

  std::unique_ptr<Builder> B = std::make_unique<Builder>();
  std::vector<const ir::CallStmt *> Calls;
  /// Frozen CSR adjacency: `*Off` has NumVars+1 entries; row i of the edge
  /// array is [Off[i], Off[i+1]). All storage lives in `Mem`, a reported
  /// arena: its slabs count towards the governed memory.
  const uint32_t *FlowOutOff = nullptr, *FlowInOff = nullptr,
                 *UsesOff = nullptr;
  const FlowEdge *FlowOutE = nullptr, *FlowInE = nullptr;
  const Use *UsesE = nullptr;
  Arena Mem;
  /// Frozen symbolic definitions, one slot per variable (nullptr = not yet
  /// materialised; slots fill lazily under QueryMu). The records and their
  /// dependence arrays live in `Mem`.
  const LocalDef **DefByVar = nullptr;
  /// Query memos, guarded by QueryMu: one dd() slot per variable and one
  /// controlCond() slot per block, each allocated at the first query, and
  /// the closures they point to. Query caches are not governed memory, so
  /// this arena stays out of the ledger.
  Arena MemoMem{/*Reported=*/false};
  const Closure **DDByVar = nullptr;
  const Closure **CDByBlock = nullptr;
  /// ddImpl's visited set: a variable is visited when its stamp equals
  /// the current walk's epoch.
  std::vector<uint32_t> VisitStamp;
  uint32_t VisitEpoch = 0;
  mutable std::mutex QueryMu; ///< Guards the lazy query state above.
  size_t NumVertices = 0;
  size_t EdgeCount = 0;
};

} // namespace pinpoint::seg

#endif // PINPOINT_SEG_SEG_H
