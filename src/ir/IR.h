//===- ir/IR.h - IR for the paper's call-by-value mini language ----------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The intermediate representation of the call-by-value language of paper
/// Section 3:
///
///   S := v1 ← v2 | v ← φ(v1, v2, …) | v1 ← v2 binop v3 | v1 ← unop v2
///      | v1 ← *(v2, k) | *(v1, k) ← v2 | if (v) S1 else S2 | return v
///      | r ← call f(v1, v2, …) | S1; S2
///
/// realised as a conventional CFG of basic blocks. Branches/sequencing become
/// block structure; every function has a single return statement (paper
/// assumption), which the frontend guarantees by lowering through a unified
/// exit block. After the transformation of Section 3.1.2, returns carry
/// multiple values ({v0, R1, R2, …}) and calls have multiple receivers.
///
/// The frontend unrolls loops once while lowering (the paper's soundiness
/// choice, Section 4.2), so all CFGs here are acyclic; analyses exploit this.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_IR_IR_H
#define PINPOINT_IR_IR_H

#include "support/Arena.h"
#include "support/Casting.h"
#include "support/SourceLoc.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pinpoint::ir {

class BasicBlock;
class Function;
class Module;
class Stmt;

//===----------------------------------------------------------------------===
// Types
//===----------------------------------------------------------------------===

/// The mini language's types: bool, int, and int with k levels of pointers.
class Type {
public:
  static Type boolTy() { return Type(-1); }
  static Type intTy() { return Type(0); }
  static Type ptrTy(int Depth) {
    assert(Depth >= 1);
    return Type(static_cast<int8_t>(Depth));
  }
  static Type voidTy() { return Type(-2); }

  bool isBool() const { return Code == -1; }
  bool isInt() const { return Code == 0; }
  bool isPointer() const { return Code >= 1; }
  bool isVoid() const { return Code == -2; }
  /// Pointer depth; 0 for non-pointers.
  int pointerDepth() const { return Code >= 1 ? Code : 0; }
  /// The type obtained by dereferencing \p Levels times.
  Type deref(int Levels = 1) const {
    assert(pointerDepth() >= Levels && "over-dereference");
    return Code - Levels == 0 ? intTy() : ptrTy(Code - Levels);
  }

  bool operator==(const Type &O) const { return Code == O.Code; }
  bool operator!=(const Type &O) const { return Code != O.Code; }

  std::string str() const;

private:
  explicit Type(int8_t C) : Code(C) {}
  int8_t Code; // -2 void, -1 bool, 0 int, k>=1 pointer depth.
};

//===----------------------------------------------------------------------===
// Values
//===----------------------------------------------------------------------===

/// Base of the value hierarchy: variables and constants.
class Value {
public:
  enum ValueKind : uint8_t { VK_Variable, VK_Constant };

  ValueKind valueKind() const { return Kind; }
  Type type() const { return Ty; }

  std::string str() const;

protected:
  Value(ValueKind K, Type Ty) : Kind(K), Ty(Ty) {}

private:
  ValueKind Kind;
  Type Ty;
};

/// A variable. Before SSA construction a variable may have many defining
/// statements; after it, exactly one (or none, for parameters).
class Variable : public Value {
public:
  static bool classof(const Value *V) {
    return V->valueKind() == VK_Variable;
  }

  const std::string &name() const { return Name; }
  /// Dense id within the parent function (see `Function`).
  uint32_t id() const { return Id; }
  /// Dense id within the module: creation order across all functions.
  uint32_t globalId() const { return GlobalId; }
  Function *parent() const { return Parent; }

  /// The unique defining statement in SSA form; null for parameters.
  Stmt *def() const { return Def; }
  void setDef(Stmt *S) { Def = S; }

  bool isParam() const { return ParamIdx >= 0; }
  /// Index within the (possibly transformed) parameter list, or -1.
  int paramIndex() const { return ParamIdx; }
  void setParamIndex(int I) { ParamIdx = I; }

  /// True for Aux formal parameters introduced by the connector transform.
  bool isAuxParam() const { return AuxParam; }
  void setAuxParam(bool B) { AuxParam = B; }

private:
  friend class Function;
  Variable(Type Ty, std::string Name, uint32_t Id, uint32_t GlobalId,
           Function *Parent)
      : Value(VK_Variable, Ty), Name(std::move(Name)), Id(Id),
        GlobalId(GlobalId), Parent(Parent) {}

  std::string Name;
  uint32_t Id;
  uint32_t GlobalId;
  Function *Parent;
  Stmt *Def = nullptr;
  int ParamIdx = -1;
  bool AuxParam = false;
};

/// An integer (or null-pointer) literal.
class Constant : public Value {
public:
  static bool classof(const Value *V) {
    return V->valueKind() == VK_Constant;
  }

  int64_t value() const { return Val; }
  bool isNull() const { return type().isPointer(); }

private:
  friend class Module;
  Constant(Type Ty, int64_t Val) : Value(VK_Constant, Ty), Val(Val) {}
  int64_t Val;
};

//===----------------------------------------------------------------------===
// Statements
//===----------------------------------------------------------------------===

/// Binary / unary operators.
enum class OpCode : uint8_t {
  Add,
  Sub,
  Mul,
  And,
  Or,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  Neg,
  Not,
};

const char *opCodeName(OpCode Op);

/// Base class of all statements.
class Stmt {
public:
  enum StmtKind : uint8_t {
    SK_Assign,
    SK_Phi,
    SK_BinOp,
    SK_UnOp,
    SK_Load,
    SK_Store,
    SK_Branch,
    SK_Jump,
    SK_Return,
    SK_Call,
  };

  StmtKind stmtKind() const { return Kind; }
  BasicBlock *parent() const { return Parent; }
  void setParent(BasicBlock *B) { Parent = B; }
  SourceLoc loc() const { return Loc; }

  /// True for connector plumbing inserted by the transform (entry stores,
  /// exit loads, call-site mirror loads/stores). Synthetic memory accesses
  /// model callee effects and are not themselves program dereferences.
  bool isSynthetic() const { return Synthetic; }
  void setSynthetic(bool B) { Synthetic = B; }

  /// The variable defined by this statement, or null.
  Variable *definedVar() const;

  bool isTerminator() const {
    return Kind == SK_Branch || Kind == SK_Jump || Kind == SK_Return;
  }

  std::string str() const;

protected:
  Stmt(StmtKind K, SourceLoc Loc) : Kind(K), Loc(Loc) {}

private:
  friend class Function;
  StmtKind Kind;
  bool Synthetic = false;
  SourceLoc Loc;
  /// Position in the function's reverse-post-order numbering
  /// (`Function::renumberStmts`); Unnumbered until the first numbering.
  uint32_t Order = Unnumbered;
  BasicBlock *Parent = nullptr;
  static constexpr uint32_t Unnumbered = UINT32_MAX;
};

/// v1 ← v2
class AssignStmt : public Stmt {
public:
  AssignStmt(Variable *Dst, Value *Src, SourceLoc Loc)
      : Stmt(SK_Assign, Loc), Dst(Dst), Src(Src) {}
  static bool classof(const Stmt *S) { return S->stmtKind() == SK_Assign; }

  Variable *dst() const { return Dst; }
  Value *src() const { return Src; }
  void setDst(Variable *V) { Dst = V; }
  void setSrc(Value *V) { Src = V; }

private:
  Variable *Dst;
  Value *Src;
};

/// v ← φ(v1, v2, …) with per-predecessor incoming values.
class PhiStmt : public Stmt {
public:
  PhiStmt(Variable *Dst, SourceLoc Loc) : Stmt(SK_Phi, Loc), Dst(Dst) {}
  static bool classof(const Stmt *S) { return S->stmtKind() == SK_Phi; }

  Variable *dst() const { return Dst; }
  void setDst(Variable *V) { Dst = V; }

  void addIncoming(BasicBlock *Pred, Value *V) {
    Incoming.push_back({Pred, V});
  }
  const std::vector<std::pair<BasicBlock *, Value *>> &incoming() const {
    return Incoming;
  }
  std::vector<std::pair<BasicBlock *, Value *>> &incoming() {
    return Incoming;
  }

private:
  Variable *Dst;
  std::vector<std::pair<BasicBlock *, Value *>> Incoming;
};

/// v1 ← v2 binop v3
class BinOpStmt : public Stmt {
public:
  BinOpStmt(Variable *Dst, OpCode Op, Value *L, Value *R, SourceLoc Loc)
      : Stmt(SK_BinOp, Loc), Dst(Dst), L(L), R(R), Op(Op) {}
  static bool classof(const Stmt *S) { return S->stmtKind() == SK_BinOp; }

  Variable *dst() const { return Dst; }
  void setDst(Variable *V) { Dst = V; }
  OpCode op() const { return Op; }
  Value *lhs() const { return L; }
  Value *rhs() const { return R; }
  void setLhs(Value *V) { L = V; }
  void setRhs(Value *V) { R = V; }

private:
  Variable *Dst;
  Value *L, *R;
  OpCode Op;
};

/// v1 ← unop v2
class UnOpStmt : public Stmt {
public:
  UnOpStmt(Variable *Dst, OpCode Op, Value *Src, SourceLoc Loc)
      : Stmt(SK_UnOp, Loc), Dst(Dst), Src(Src), Op(Op) {}
  static bool classof(const Stmt *S) { return S->stmtKind() == SK_UnOp; }

  Variable *dst() const { return Dst; }
  void setDst(Variable *V) { Dst = V; }
  OpCode op() const { return Op; }
  Value *src() const { return Src; }
  void setSrc(Value *V) { Src = V; }

private:
  Variable *Dst;
  Value *Src;
  OpCode Op;
};

/// v1 ← *(v2, k)
class LoadStmt : public Stmt {
public:
  LoadStmt(Variable *Dst, Value *Addr, uint32_t Derefs, SourceLoc Loc)
      : Stmt(SK_Load, Loc), Dst(Dst), Addr(Addr), Derefs(Derefs) {
    assert(Derefs >= 1);
  }
  static bool classof(const Stmt *S) { return S->stmtKind() == SK_Load; }

  Variable *dst() const { return Dst; }
  void setDst(Variable *V) { Dst = V; }
  Value *addr() const { return Addr; }
  void setAddr(Value *V) { Addr = V; }
  uint32_t derefs() const { return Derefs; }

private:
  Variable *Dst;
  Value *Addr;
  uint32_t Derefs;
};

/// *(v1, k) ← v2
class StoreStmt : public Stmt {
public:
  StoreStmt(Value *Addr, uint32_t Derefs, Value *Val, SourceLoc Loc)
      : Stmt(SK_Store, Loc), Addr(Addr), Val(Val), Derefs(Derefs) {
    assert(Derefs >= 1);
  }
  static bool classof(const Stmt *S) { return S->stmtKind() == SK_Store; }

  Value *addr() const { return Addr; }
  void setAddr(Value *V) { Addr = V; }
  Value *value() const { return Val; }
  void setValue(Value *V) { Val = V; }
  uint32_t derefs() const { return Derefs; }

private:
  Value *Addr;
  Value *Val;
  uint32_t Derefs;
};

/// if (v) then-block else else-block
class BranchStmt : public Stmt {
public:
  BranchStmt(Value *Cond, BasicBlock *TrueBB, BasicBlock *FalseBB,
             SourceLoc Loc)
      : Stmt(SK_Branch, Loc), Cond(Cond), TrueBB(TrueBB), FalseBB(FalseBB) {}
  static bool classof(const Stmt *S) { return S->stmtKind() == SK_Branch; }

  Value *cond() const { return Cond; }
  void setCond(Value *V) { Cond = V; }
  BasicBlock *trueBlock() const { return TrueBB; }
  BasicBlock *falseBlock() const { return FalseBB; }

private:
  Value *Cond;
  BasicBlock *TrueBB, *FalseBB;
};

/// Unconditional jump.
class JumpStmt : public Stmt {
public:
  JumpStmt(BasicBlock *Target, SourceLoc Loc)
      : Stmt(SK_Jump, Loc), Target(Target) {}
  static bool classof(const Stmt *S) { return S->stmtKind() == SK_Jump; }

  BasicBlock *target() const { return Target; }

private:
  BasicBlock *Target;
};

/// return {v0, R1, R2, …}. Before the connector transform a return carries
/// at most one value; afterwards it also carries the Aux return values.
class ReturnStmt : public Stmt {
public:
  explicit ReturnStmt(SourceLoc Loc) : Stmt(SK_Return, Loc) {}
  static bool classof(const Stmt *S) { return S->stmtKind() == SK_Return; }

  const std::vector<Value *> &values() const { return Vals; }
  std::vector<Value *> &values() { return Vals; }
  void addValue(Value *V) { Vals.push_back(V); }

private:
  std::vector<Value *> Vals;
};

/// {r0, C1, C2, …} ← call f(v1, v2, …). The primary receiver r0 catches the
/// callee's own return value (null when void or unused); aux receivers,
/// added by the connector transform, catch the callee's Aux return values
/// positionally (AuxReceivers[i] ↔ callee's i-th Aux return).
class CallStmt : public Stmt {
public:
  CallStmt(std::string CalleeName, SourceLoc Loc)
      : Stmt(SK_Call, Loc), CalleeName(std::move(CalleeName)) {}
  static bool classof(const Stmt *S) { return S->stmtKind() == SK_Call; }

  const std::string &calleeName() const { return CalleeName; }
  Function *callee() const { return Callee; }
  void setCallee(Function *F) { Callee = F; }

  const std::vector<Value *> &args() const { return Args; }
  std::vector<Value *> &args() { return Args; }
  void addArg(Value *V) { Args.push_back(V); }

  /// The primary receiver r0, or null.
  Variable *receiver() const { return PrimaryRecv; }
  void setReceiver(Variable *V) { PrimaryRecv = V; }

  const std::vector<Variable *> &auxReceivers() const {
    return AuxReceivers;
  }
  std::vector<Variable *> &auxReceivers() { return AuxReceivers; }
  void addAuxReceiver(Variable *V) { AuxReceivers.push_back(V); }

private:
  std::string CalleeName;
  Function *Callee = nullptr;
  std::vector<Value *> Args;
  Variable *PrimaryRecv = nullptr;
  std::vector<Variable *> AuxReceivers;
};

//===----------------------------------------------------------------------===
// Basic blocks, functions, modules
//===----------------------------------------------------------------------===

/// A basic block: a straight-line statement list ending in a terminator.
class BasicBlock {
public:
  const std::string &name() const { return Name; }
  uint32_t id() const { return Id; }
  Function *parent() const { return Parent; }

  const std::vector<Stmt *> &stmts() const { return Stmts; }
  std::vector<Stmt *> &stmts() { return Stmts; }

  void append(Stmt *S) {
    S->setParent(this);
    Stmts.push_back(S);
  }
  /// Inserts \p S before the terminator (or at the end if none yet).
  void insertBeforeTerminator(Stmt *S);
  /// Inserts \p S at the front (after any phis).
  void insertAfterPhis(Stmt *S);

  Stmt *terminator() const {
    return !Stmts.empty() && Stmts.back()->isTerminator() ? Stmts.back()
                                                          : nullptr;
  }

  const std::vector<BasicBlock *> &preds() const { return Preds; }
  const std::vector<BasicBlock *> &succs() const { return Succs; }

private:
  friend class Function;
  BasicBlock(std::string Name, uint32_t Id, Function *Parent)
      : Name(std::move(Name)), Id(Id), Parent(Parent) {}

  std::string Name;
  uint32_t Id;
  Function *Parent;
  std::vector<Stmt *> Stmts;
  std::vector<BasicBlock *> Preds, Succs;
};

/// A function: parameters, blocks, and a single exit block.
///
/// Functions, blocks and variables carry dense ids: a function's id is its
/// position in `Module::functions()`, and block and variable ids count up
/// from 0 per function in creation order. A variable also has a
/// module-wide id (`Variable::globalId`) from one counter in the module,
/// so tables that span functions are indexed without a lock. Analyses
/// index per-entity tables by these ids, never by address, so no order
/// that reaches the output depends on the heap layout.
class Function {
public:
  const std::string &name() const { return Name; }
  uint32_t id() const { return Id; }
  Module *parent() const { return Parent; }
  Type returnType() const { return RetTy; }

  //===--- Parameters ------------------------------------------------------===
  const std::vector<Variable *> &params() const { return Params; }
  Variable *addParam(Type Ty, const std::string &Name);
  /// Appends an Aux formal parameter (connector transform).
  Variable *addAuxParam(Type Ty, const std::string &Name);
  unsigned numOriginalParams() const { return NumOriginalParams; }

  //===--- Blocks & variables ---------------------------------------------===
  BasicBlock *createBlock(const std::string &Name);
  const std::vector<BasicBlock *> &blocks() const { return Blocks; }
  /// One past the largest block id handed out. Removing unreachable blocks
  /// leaves gaps, so this can exceed `blocks().size()`.
  uint32_t blockIdBound() const { return NextBlockId; }
  BasicBlock *entry() const { return Blocks.empty() ? nullptr : Blocks[0]; }
  /// The unique block holding the ReturnStmt.
  BasicBlock *exitBlock() const { return Exit; }
  void setExitBlock(BasicBlock *B) { Exit = B; }

  Variable *createVar(Type Ty, const std::string &Name);
  /// Every variable of the function, indexed by `Variable::id()`.
  const std::vector<Variable *> &vars() const { return Vars; }

  /// The unique return statement (after lowering).
  ReturnStmt *returnStmt() const;

  /// Recomputes pred/succ lists from terminators. Call after CFG mutations.
  void recomputeCFGEdges();

  /// Drops blocks unreachable from the entry (dead code after early
  /// returns) and refreshes CFG edges.
  void removeUnreachableBlocks();

  /// Numbers statements in reverse-post-order execution order; used for
  /// intra-procedural happens-before tests and as the statements' ids.
  void renumberStmts();
  /// One past the largest `stmtOrder`: the size of a table indexed by it.
  uint32_t stmtOrderBound() const { return NumStmts; }
  uint32_t stmtOrder(const Stmt *S) const {
    assert(S->parent() && S->parent()->parent() == this &&
           S->Order != Stmt::Unnumbered && "statement not numbered");
    return S->Order;
  }
  bool hasStmtOrder() const { return Numbered; }

  std::string str() const;

private:
  friend class Module;
  Function(std::string Name, uint32_t Id, Type RetTy, Module *Parent)
      : Name(std::move(Name)), Id(Id), RetTy(RetTy), Parent(Parent) {}

  std::string Name;
  uint32_t Id;
  Type RetTy;
  Module *Parent;
  std::vector<Variable *> Params;
  unsigned NumOriginalParams = 0;
  std::vector<BasicBlock *> Blocks;
  BasicBlock *Exit = nullptr;
  std::vector<Variable *> Vars;
  uint32_t NextBlockId = 0;
  uint32_t NumStmts = 0;
  bool Numbered = false;
};

/// The blocks of \p F in reverse post-order of a depth-first walk that
/// takes edges in list order: successors from the entry or, when
/// \p Backward, predecessors from the exit block. Blocks the walk does not
/// reach are left out.
std::vector<BasicBlock *> reversePostOrder(const Function &F,
                                           bool Backward = false);

/// A module: functions plus ownership of all IR objects.
///
/// Allocation (`make`, the constant pools) is internally locked so
/// concurrent pipeline tasks can materialise aux statements under
/// `--jobs N`. The function list itself is built by the (serial) frontend
/// and read-only during analysis, so `functions()` needs no lock.
class Module {
public:
  Module() = default;
  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;

  Function *createFunction(const std::string &Name, Type RetTy);
  Function *function(const std::string &Name) const;
  const std::vector<Function *> &functions() const { return Functions; }

  Constant *getIntConst(int64_t V);
  Constant *getBoolConst(bool B);
  Constant *getNullConst(Type PtrTy);

  /// Arena for all statements (create via `make<...>`). Thread-safe.
  template <typename T, typename... Args> T *make(Args &&...A) {
    std::lock_guard<std::mutex> L(Mu);
    return Mem.allocObject<T>(std::forward<Args>(A)...);
  }

  size_t bytesUsed() const {
    std::lock_guard<std::mutex> L(Mu);
    return Mem.bytesUsed();
  }

  std::string str() const;

private:
  friend class Function;

  /// For members that already hold Mu (the constant pools).
  template <typename T, typename... Args> T *makeLocked(Args &&...A) {
    return Mem.allocObject<T>(std::forward<Args>(A)...);
  }

  mutable std::mutex Mu; ///< Guards Mem and the interning maps below.
  Arena Mem;
  std::vector<Function *> Functions;
  std::map<std::string, Function *> FunctionMap;
  std::map<int64_t, Constant *> ConstPool;
  std::map<int, Constant *> NullConsts;
  /// Source of `Variable::globalId`: pipeline tasks create aux variables
  /// in different functions at once.
  std::atomic<uint32_t> NextVarId{0};
};

/// Names with built-in semantics for the analyses.
namespace intrinsics {
inline constexpr const char *Malloc = "malloc";
inline constexpr const char *Free = "free";
bool isIntrinsic(const std::string &Name);
} // namespace intrinsics

} // namespace pinpoint::ir

#endif // PINPOINT_IR_IR_H
