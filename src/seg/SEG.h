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
#include <unordered_map>
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
struct Closure {
  const smt::Expr *C = nullptr;
  std::vector<const ir::Variable *> OpenParams;
  /// (call, bundle index): -1 = primary return value, i>=0 = i-th aux.
  std::vector<std::pair<const ir::CallStmt *, int>> OpenRecvs;
};

class SEG {
public:
  /// Builds the SEG for \p F (post-SSA, post-transform) from the final
  /// points-to results.
  SEG(const ir::Function &F, ir::SymbolMap &Syms, ir::ConditionMap &Conds,
      const pta::PointsToResult &PTA);

  const ir::Function &function() const { return F; }

  //===--- Graph access ----------------------------------------------------===
  //
  // Adjacency is frozen into immutable CSR arrays (offset + edge array per
  // direction) once construction finishes; accessors hand out non-owning
  // spans over the arena-backed rows. Per-vertex edge order is the build
  // order, exactly as the mutable vectors stored it.

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
  /// The returned reference is stable (map-node backed) and the closure is
  /// immutable once cached, so it may be read after the lock is released.
  const Closure &dd(const ir::Variable *V);

  /// CD(v@s): the control-dependence condition of \p S — branch literals up
  /// the FOW chain, with the DD closures of the branch variables folded in.
  Closure controlCond(const ir::Stmt *S);

  /// Equality between two values as a constraint (bool-aware).
  const smt::Expr *valueEq(const ir::Value *A, const ir::Value *B);

  /// The symbol of \p V (delegates to the symbol map).
  const smt::Expr *symbol(const ir::Value *V) { return Syms[V]; }

  /// IR variables whose symbols occur in \p E (gate support variables).
  std::vector<const ir::Variable *> gateIRVars(const smt::Expr *E) const;

  //===--- Statistics -------------------------------------------------------

  size_t numVertices() const { return VertexId.size(); }
  size_t numEdges() const { return EdgeCount; }
  /// Measured heap footprint of the frozen graph: CSR arena bytes plus the
  /// vertex-id index and call list. Feeds `MemStats::noteSEGNodes`.
  size_t memoryBytes() const;

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

  void build(const pta::PointsToResult &PTA);
  void freeze();
  const Closure &ddImpl(const ir::Variable *V);
  Closure controlCondImpl(const ir::Stmt *S);
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

  /// Mutable adjacency used only while build() runs; freeze() packs it
  /// into the CSR arrays below and drops it, so a live SEG holds no
  /// node-based adjacency maps.
  struct Builder {
    std::unordered_map<const ir::Variable *, std::vector<FlowEdge>> FlowOut;
    std::unordered_map<const ir::Variable *, std::vector<FlowEdge>> FlowIn;
    std::unordered_map<const ir::Variable *, std::vector<Use>> Uses;
    /// Load definitions precomputed during build(), in statement order (a
    /// vector, not a map, so the frozen arena layout is deterministic).
    std::vector<std::pair<const ir::Variable *, LocalDefInfo>> BuildDefs;
  };

  uint32_t vertexId(const ir::Variable *V);
  template <typename T>
  Span<T> row(const uint32_t *Off, const T *Edges,
              const ir::Variable *V) const {
    auto It = VertexId.find(V);
    if (It == VertexId.end())
      return {};
    uint32_t Id = It->second;
    return {Edges + Off[Id], Off[Id + 1] - Off[Id]};
  }

  std::unique_ptr<Builder> B = std::make_unique<Builder>();
  std::vector<const ir::CallStmt *> Calls;
  /// Insertion-ordered vertex ids: the CSR row index of each variable.
  /// The id lookup is a point query, never iterated, so pointer-hash
  /// ordering can never reach reports.
  std::unordered_map<const ir::Variable *, uint32_t> VertexId;
  std::vector<const ir::Variable *> VertexOrder;
  /// Frozen CSR adjacency: `*Off` has numVertices()+1 entries; row i of
  /// the edge array is [Off[i], Off[i+1]). All storage lives in `Mem`.
  /// The arena is unreported — its bytes are charged through the
  /// per-structure `noteSEGNodes` channel instead (see Pipeline).
  const uint32_t *FlowOutOff = nullptr, *FlowInOff = nullptr,
                 *UsesOff = nullptr;
  const FlowEdge *FlowOutE = nullptr, *FlowInE = nullptr;
  const Use *UsesE = nullptr;
  Arena Mem{/*Reported=*/false};
  /// Frozen symbolic definitions, indexed by vertex id (nullptr = not yet
  /// materialised; slots fill lazily under QueryMu). Variables that never
  /// became vertices (e.g. a load destination with no incoming flow) land
  /// in the small overflow map instead. The records and their dependence
  /// arrays live in `Mem`, so a fully-queried SEG keeps no per-definition
  /// map nodes.
  const LocalDef **DefByVertex = nullptr;
  std::unordered_map<const ir::Variable *, const LocalDef *> DefOverflow;
  /// Lazy memo table for the dd() closures (still a node-based map: dd()
  /// hands out stable references into DDCache).
  std::unordered_map<const ir::Variable *, Closure> DDCache;
  mutable std::mutex QueryMu; ///< Guards the lazy query caches above.
  size_t EdgeCount = 0;
};

} // namespace pinpoint::seg

#endif // PINPOINT_SEG_SEG_H
