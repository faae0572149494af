//===- smt/Expr.h - Hash-consed symbolic expression DAG ------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbolic expression DAG underlying every condition in the system:
/// SEG edge labels, gated-SSA gates, control dependences, path conditions and
/// function summaries are all `Expr` nodes interned in an `ExprContext`.
///
/// Hash-consing gives the "compact encoding" property the paper claims for
/// the SEG (Section 3.2, feature 1): a condition shared by many edges is one
/// node, and the linear-time solver of Section 3.1.1 memoises its atom sets
/// per node.
///
/// A symbolic variable is just its interned node: its variable id comes
/// from an atomic counter and its sort is the node's kind (BoolVar or
/// IntVar). It has no name; whoever prints one names it (`toString`'s
/// namer, e.g. the IR variable that `ir::SymbolMap::irVar` maps it back
/// to).
///
/// One `ExprContext` is shared by every task of a `--jobs N` run. Interning
/// is sharded: the node hash selects one of a fixed set of shards, each
/// with its own mutex, arena and open-addressed table, so concurrent `mk*`
/// calls on unrelated conditions rarely contend while hash-consing stays
/// global (a condition built by two workers is still one node). The shard
/// locks are the context's only locks. Nodes are trivially destructible
/// and live in the shard arenas; a table slot is a (hash, node) pair, so
/// dropping a context frees a few slabs and arrays per shard, not one heap
/// block per node. Node ids and variable ids each come from one atomic
/// counter — ids are *allocation-order* dependent and therefore not stable
/// across job counts; nothing downstream may key semantic decisions on the
/// numeric id (canonicalisation uses ids only to pick one of two orders of
/// the same pointer pair, which is per-pair deterministic). Node ids are
/// topological, though: every operand is numbered before its parent.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SMT_EXPR_H
#define PINPOINT_SMT_EXPR_H

#include "support/Arena.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace pinpoint::smt {

/// Kinds of expression nodes. Boolean-typed: True..Ge (comparisons produce
/// bool); integer-typed: IntConst..Neg.
enum class ExprKind : uint8_t {
  // Boolean leaves / connectives.
  True,
  False,
  BoolVar,
  Not,
  And,
  Or,
  // Comparisons (boolean-typed, integer operands).
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  // Integer-typed.
  IntConst,
  IntVar,
  Add,
  Sub,
  Mul,
  Neg,
  Ite, ///< if-then-else over integers (bool cond, int, int).
};

/// An immutable, interned expression node. Create via ExprContext only.
class Expr {
public:
  ExprKind kind() const { return Kind; }
  uint32_t id() const { return Id; }

  bool isBool() const {
    return Kind <= ExprKind::Ge; // True..Ge are boolean-typed.
  }
  /// A symbolic variable: its sort is its kind, its identity its varId().
  bool isVar() const {
    return Kind == ExprKind::BoolVar || Kind == ExprKind::IntVar;
  }

  /// For BoolVar / IntVar: the variable id (namespaced per context).
  uint32_t varId() const {
    assert(isVar());
    return VarOrConst.Var;
  }

  /// For IntConst: the value.
  int64_t constValue() const {
    assert(Kind == ExprKind::IntConst);
    return VarOrConst.Const;
  }

  std::span<const Expr *const> operands() const { return {Ops, NumOps}; }
  const Expr *operand(unsigned I) const {
    assert(I < NumOps);
    return Ops[I];
  }
  unsigned numOperands() const { return NumOps; }

  /// An atom is a boolean-typed node that is not a logical connective:
  /// BoolVar, True/False are not counted, comparisons are. This matches the
  /// paper's definition "a bool-type expression without logic operators".
  bool isAtom() const {
    return Kind == ExprKind::BoolVar ||
           (Kind >= ExprKind::Eq && Kind <= ExprKind::Ge);
  }

  bool isTrue() const { return Kind == ExprKind::True; }
  bool isFalse() const { return Kind == ExprKind::False; }

private:
  friend class ExprContext;
  Expr(ExprKind K, uint32_t Id, const Expr *const *Ops, uint8_t NumOps)
      : Kind(K), NumOps(NumOps), Id(Id), Ops(Ops) {
    VarOrConst.Const = 0;
  }

  ExprKind Kind;
  uint8_t NumOps = 0;
  uint32_t Id;
  union {
    uint32_t Var;
    int64_t Const;
  } VarOrConst;
  const Expr *const *Ops = nullptr;
};

/// Working memory for ExprContext::substitute: the variable map and the
/// rewrite's per-node memo, as dense arrays indexed by variable id (a
/// variable node's `varId()`) and by Expr id. Each slot records the epoch
/// it was written in, so clearing is O(1) and an owner that substitutes
/// many times (svfa::ContextTable, one per engine) sizes the arrays once.
/// A one-off caller may use a local scratch; it costs O(largest id
/// touched). Not thread-safe.
class SubstScratch {
public:
  /// Forgets every variable mapping.
  void clearVars() { bump(VarEpoch, Vars); }
  /// Maps variable \p VarId to \p Repl for the following substitute calls.
  void mapVar(uint32_t VarId, const Expr *Repl) {
    if (VarId >= Vars.size())
      Vars.resize(std::max<size_t>(VarId + 1, Vars.size() * 2));
    Vars[VarId] = {Repl, VarEpoch};
  }

private:
  friend class ExprContext;
  struct Slot {
    const Expr *Val = nullptr;
    uint32_t Epoch = 0; ///< Live iff equal to the array's current epoch.
  };

  /// The image of \p VarId, or null when it is not mapped.
  const Expr *mapped(uint32_t VarId) const {
    return VarId < Vars.size() && Vars[VarId].Epoch == VarEpoch
               ? Vars[VarId].Val
               : nullptr;
  }
  /// Starts a rewrite of \p Root: forgets the memo and makes room for
  /// every node under it (ids are topological, so none exceeds Root's).
  void beginRewrite(const Expr *Root) {
    bump(NodeEpoch, Nodes);
    if (Root->id() >= Nodes.size())
      Nodes.resize(std::max<size_t>(Root->id() + 1, Nodes.size() * 2));
  }
  bool done(const Expr *E) const { return Nodes[E->id()].Epoch == NodeEpoch; }
  const Expr *memo(const Expr *E) const { return Nodes[E->id()].Val; }
  void setMemo(const Expr *E, const Expr *V) { Nodes[E->id()] = {V, NodeEpoch}; }

  /// Advances \p Epoch; on wrap-around, really clears \p Slots so no stale
  /// slot can match the restarted epoch.
  static void bump(uint32_t &Epoch, std::vector<Slot> &Slots) {
    if (++Epoch == 0) {
      std::fill(Slots.begin(), Slots.end(), Slot{});
      Epoch = 1;
    }
  }

  std::vector<Slot> Vars, Nodes;
  uint32_t VarEpoch = 1, NodeEpoch = 1;
  std::vector<std::pair<const Expr *, bool>> Stack;
};

/// Owning context: sharded arenas + interning tables, and the counters
/// that number nodes and variables. All Expr pointers remain valid for the
/// lifetime of the context. Thread-safe (see the file comment for the
/// sharding scheme).
class ExprContext {
public:
  ExprContext();
  ExprContext(const ExprContext &) = delete;
  ExprContext &operator=(const ExprContext &) = delete;

  //===--------------------------------------------------------------------===
  // Variables
  //===--------------------------------------------------------------------===

  /// Creates a fresh boolean variable and returns its node.
  const Expr *freshBoolVar() { return freshVar(ExprKind::BoolVar); }
  /// Creates a fresh integer variable and returns its node.
  const Expr *freshIntVar() { return freshVar(ExprKind::IntVar); }
  /// Variables created so far; their ids are [0, numVars()).
  uint32_t numVars() const { return NextVar.load(std::memory_order_relaxed); }

  //===--------------------------------------------------------------------===
  // Constructors (with local simplification + interning)
  //===--------------------------------------------------------------------===

  const Expr *getTrue() const { return TrueExpr; }
  const Expr *getFalse() const { return FalseExpr; }
  const Expr *getBool(bool B) const { return B ? TrueExpr : FalseExpr; }
  const Expr *getInt(int64_t V) { return intern(ExprKind::IntConst, {}, 0, V); }

  const Expr *mkNot(const Expr *A);
  const Expr *mkAnd(const Expr *A, const Expr *B);
  const Expr *mkOr(const Expr *A, const Expr *B);
  const Expr *mkAndN(std::span<const Expr *const> Es);
  const Expr *mkOrN(std::span<const Expr *const> Es);
  const Expr *mkImplies(const Expr *A, const Expr *B) {
    return mkOr(mkNot(A), B);
  }

  const Expr *mkCmp(ExprKind K, const Expr *A, const Expr *B);
  const Expr *mkEq(const Expr *A, const Expr *B) {
    return mkCmp(ExprKind::Eq, A, B);
  }
  const Expr *mkNe(const Expr *A, const Expr *B) {
    return mkCmp(ExprKind::Ne, A, B);
  }

  const Expr *mkArith(ExprKind K, const Expr *A, const Expr *B);
  const Expr *mkNeg(const Expr *A);
  /// if-then-else over integers; also the sound bool→int coercion
  /// (mkIte(b, 1, 0)).
  const Expr *mkIte(const Expr *Cond, const Expr *Then, const Expr *Else);
  /// Coerces a boolean expression to the integer 0/1 domain; identity on
  /// integer expressions.
  const Expr *toIntExpr(const Expr *E) {
    return E->isBool() ? mkIte(E, getInt(1), getInt(0)) : E;
  }
  /// Coerces an integer expression to a boolean (e != 0); identity on
  /// boolean expressions.
  const Expr *toBoolExpr(const Expr *E) {
    return E->isBool() ? E : mkNe(E, getInt(0));
  }
  /// Bool-aware equality: A = B over integers; when either side is
  /// boolean, (A -> B) & (B -> A) over both sides coerced by toBoolExpr.
  const Expr *mkValueEq(const Expr *A, const Expr *B) {
    if (!A->isBool() && !B->isBool())
      return mkEq(A, B);
    const Expr *BA = toBoolExpr(A);
    const Expr *BB = toBoolExpr(B);
    return mkAnd(mkImplies(BA, BB), mkImplies(BB, BA));
  }

  //===--------------------------------------------------------------------===
  // Substitution / cloning
  //===--------------------------------------------------------------------===

  /// Rewrites \p E, replacing each variable that \p S maps (see
  /// SubstScratch::mapVar) with its image. Memoised per call in \p S.
  const Expr *substitute(const Expr *E, SubstScratch &S);

  /// Appends the distinct variable nodes occurring in \p E to \p Out and
  /// sorts it by variable id. Needs no visited set: see the definition.
  void collectVars(const Expr *E, std::vector<const Expr *> &Out) const;

  /// Names a variable node for toString.
  using VarNamer = std::function<std::string(const Expr *Var)>;
  /// Renders \p E as a string (tests & debugging). A variable prints as
  /// \p Name gives it, or as `v<id>` when no namer is given.
  std::string toString(const Expr *E, const VarNamer &Name = {}) const;

  size_t numNodes() const { return NextId.load(std::memory_order_relaxed); }
  size_t bytesUsed() const;

  /// Intern observability (--stats): the node count and the arena bytes
  /// behind the nodes. Reads counters only, one lock per shard.
  struct InternStats {
    size_t Nodes = 0;      ///< Interned expression nodes.
    size_t ArenaBytes = 0; ///< Arena memory backing the nodes.
  };
  InternStats internStats() const {
    return {numNodes(), bytesUsed()};
  }

private:
  const Expr *freshVar(ExprKind K);
  const Expr *intern(ExprKind K, std::span<const Expr *const> Ops,
                     uint32_t Var, int64_t Const);
  uint64_t hashKey(ExprKind K, std::span<const Expr *const> Ops, uint32_t Var,
                   int64_t Const) const;

  /// One interning shard: an open-addressed, linear-probing table of its
  /// nodes and the arena they live in. Each node is created and
  /// deduplicated entirely under the shard's lock.
  struct InternShard {
    struct Slot {
      uint64_t Hash = 0;
      const Expr *E = nullptr; ///< Null marks an empty slot.
    };
    mutable std::mutex Mu;
    std::vector<Slot> Slots; ///< Empty or a power of two; ≤ 3/4 full.
    size_t Used = 0;
    unsigned Shift = 64; ///< 64 - log2(Slots.size()).
    Arena Mem;

    /// First probe position of \p H: a Fibonacci mix of H >> 6. Shard
    /// selection reads bits 0–5 of H xor bits 32–37, so dropping bits 0–5
    /// leaves nothing that is constant within one shard.
    size_t probe(uint64_t H) const {
      return static_cast<size_t>(((H >> 6) * 0x9e3779b97f4a7c15ULL) >> Shift);
    }
    /// Doubles the table (the first call allocates it) and reinserts.
    void grow();
  };
  static constexpr size_t NumInternShards = 64;

  std::array<InternShard, NumInternShards> Shards;
  std::atomic<uint32_t> NextId{0};  ///< The next node id.
  std::atomic<uint32_t> NextVar{0}; ///< The next variable id.
  const Expr *TrueExpr;
  const Expr *FalseExpr;
};

} // namespace pinpoint::smt

#endif // PINPOINT_SMT_EXPR_H
