//===- ir/IR.cpp -----------------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ir/IR.h"

#include <algorithm>

namespace pinpoint::ir {

//===----------------------------------------------------------------------===
// Type / Value printing
//===----------------------------------------------------------------------===

std::string Type::str() const {
  if (isVoid())
    return "void";
  if (isBool())
    return "bool";
  std::string S = "int";
  for (int I = 0; I < pointerDepth(); ++I)
    S += "*";
  return S;
}

std::string Value::str() const {
  if (const auto *V = dyn_cast<Variable>(this))
    return V->name();
  const auto *C = cast<Constant>(this);
  if (C->isNull())
    return "null";
  return std::to_string(C->value());
}

const char *opCodeName(OpCode Op) {
  switch (Op) {
  case OpCode::Add:
    return "+";
  case OpCode::Sub:
    return "-";
  case OpCode::Mul:
    return "*";
  case OpCode::And:
    return "&&";
  case OpCode::Or:
    return "||";
  case OpCode::Eq:
    return "==";
  case OpCode::Ne:
    return "!=";
  case OpCode::Lt:
    return "<";
  case OpCode::Le:
    return "<=";
  case OpCode::Gt:
    return ">";
  case OpCode::Ge:
    return ">=";
  case OpCode::Neg:
    return "-";
  case OpCode::Not:
    return "!";
  }
  return "?";
}

//===----------------------------------------------------------------------===
// Stmt
//===----------------------------------------------------------------------===

Variable *Stmt::definedVar() const {
  switch (Kind) {
  case SK_Assign:
    return cast<AssignStmt>(this)->dst();
  case SK_Phi:
    return cast<PhiStmt>(this)->dst();
  case SK_BinOp:
    return cast<BinOpStmt>(this)->dst();
  case SK_UnOp:
    return cast<UnOpStmt>(this)->dst();
  case SK_Load:
    return cast<LoadStmt>(this)->dst();
  case SK_Call:
    return cast<CallStmt>(this)->receiver();
  default:
    return nullptr;
  }
}

static std::string derefStr(const Value *V, uint32_t K) {
  std::string S;
  for (uint32_t I = 0; I < K; ++I)
    S += "*";
  return S + V->str();
}

std::string Stmt::str() const {
  switch (Kind) {
  case SK_Assign: {
    const auto *S = cast<AssignStmt>(this);
    return S->dst()->str() + " = " + S->src()->str();
  }
  case SK_Phi: {
    const auto *S = cast<PhiStmt>(this);
    std::string Out = S->dst()->str() + " = phi(";
    bool First = true;
    for (auto &[BB, V] : S->incoming()) {
      if (!First)
        Out += ", ";
      Out += "[" + BB->name() + ": " + V->str() + "]";
      First = false;
    }
    return Out + ")";
  }
  case SK_BinOp: {
    const auto *S = cast<BinOpStmt>(this);
    return S->dst()->str() + " = " + S->lhs()->str() + " " +
           opCodeName(S->op()) + " " + S->rhs()->str();
  }
  case SK_UnOp: {
    const auto *S = cast<UnOpStmt>(this);
    return S->dst()->str() + " = " + std::string(opCodeName(S->op())) +
           S->src()->str();
  }
  case SK_Load: {
    const auto *S = cast<LoadStmt>(this);
    return S->dst()->str() + " = " + derefStr(S->addr(), S->derefs());
  }
  case SK_Store: {
    const auto *S = cast<StoreStmt>(this);
    return derefStr(S->addr(), S->derefs()) + " = " + S->value()->str();
  }
  case SK_Branch: {
    const auto *S = cast<BranchStmt>(this);
    return "br " + S->cond()->str() + ", " + S->trueBlock()->name() + ", " +
           S->falseBlock()->name();
  }
  case SK_Jump:
    return "jmp " + cast<JumpStmt>(this)->target()->name();
  case SK_Return: {
    const auto *S = cast<ReturnStmt>(this);
    std::string Out = "return";
    for (const Value *V : S->values())
      Out += " " + V->str();
    return Out;
  }
  case SK_Call: {
    const auto *S = cast<CallStmt>(this);
    std::string Out;
    bool First = true;
    bool HasRecv = S->receiver() || !S->auxReceivers().empty();
    if (HasRecv) {
      Out += S->receiver() ? S->receiver()->str() : "_";
      First = false;
    }
    for (const Variable *R : S->auxReceivers()) {
      if (!First)
        Out += ", ";
      Out += R ? R->str() : "_";
      First = false;
    }
    if (HasRecv)
      Out += " = ";
    First = true;
    Out += "call " + S->calleeName() + "(";
    First = true;
    for (const Value *A : S->args()) {
      if (!First)
        Out += ", ";
      Out += A->str();
      First = false;
    }
    return Out + ")";
  }
  }
  return "?";
}

//===----------------------------------------------------------------------===
// BasicBlock
//===----------------------------------------------------------------------===

void BasicBlock::insertBeforeTerminator(Stmt *S) {
  S->setParent(this);
  if (terminator())
    Stmts.insert(Stmts.end() - 1, S);
  else
    Stmts.push_back(S);
}

void BasicBlock::insertAfterPhis(Stmt *S) {
  S->setParent(this);
  auto It = Stmts.begin();
  while (It != Stmts.end() && isa<PhiStmt>(*It))
    ++It;
  Stmts.insert(It, S);
}

//===----------------------------------------------------------------------===
// Function
//===----------------------------------------------------------------------===

Variable *Function::addParam(Type Ty, const std::string &Name) {
  Variable *V = createVar(Ty, Name);
  V->setParamIndex(static_cast<int>(Params.size()));
  Params.push_back(V);
  NumOriginalParams = static_cast<unsigned>(Params.size());
  return V;
}

Variable *Function::addAuxParam(Type Ty, const std::string &Name) {
  Variable *V = createVar(Ty, Name);
  V->setParamIndex(static_cast<int>(Params.size()));
  V->setAuxParam(true);
  Params.push_back(V);
  return V;
}

BasicBlock *Function::createBlock(const std::string &Name) {
  BasicBlock *B = Parent->make<BasicBlock>(
      BasicBlock(Name + "." + std::to_string(NextBlockId), NextBlockId,
                 this));
  ++NextBlockId;
  Blocks.push_back(B);
  return B;
}

Variable *Function::createVar(Type Ty, const std::string &Name) {
  uint32_t GlobalId =
      Parent->NextVarId.fetch_add(1, std::memory_order_relaxed);
  Variable *V = Parent->make<Variable>(
      Variable(Ty, Name, Vars.size(), GlobalId, this));
  Vars.push_back(V);
  return V;
}

ReturnStmt *Function::returnStmt() const {
  if (!Exit)
    return nullptr;
  return dyn_cast_or_null<ReturnStmt>(Exit->terminator());
}

void Function::recomputeCFGEdges() {
  for (BasicBlock *B : Blocks) {
    B->Preds.clear();
    B->Succs.clear();
  }
  for (BasicBlock *B : Blocks) {
    Stmt *T = B->terminator();
    if (!T)
      continue;
    if (auto *Br = dyn_cast<BranchStmt>(T)) {
      B->Succs.push_back(Br->trueBlock());
      Br->trueBlock()->Preds.push_back(B);
      if (Br->falseBlock() != Br->trueBlock()) {
        B->Succs.push_back(Br->falseBlock());
        Br->falseBlock()->Preds.push_back(B);
      }
    } else if (auto *J = dyn_cast<JumpStmt>(T)) {
      B->Succs.push_back(J->target());
      J->target()->Preds.push_back(B);
    }
  }
}

void Function::removeUnreachableBlocks() {
  recomputeCFGEdges();
  std::vector<uint8_t> Reachable(NextBlockId, 0);
  for (const BasicBlock *B : reversePostOrder(*this))
    Reachable[B->id()] = 1;
  Blocks.erase(std::remove_if(Blocks.begin(), Blocks.end(),
                              [&](BasicBlock *B) {
                                return !Reachable[B->id()];
                              }),
               Blocks.end());
  recomputeCFGEdges();
}

void Function::renumberStmts() {
  // Block order is creation order, which lowering makes topological for
  // these acyclic CFGs; the RPO walk keeps the numbering right regardless.
  uint32_t N = 0;
  for (BasicBlock *B : reversePostOrder(*this))
    for (Stmt *S : B->stmts())
      S->Order = N++;
  NumStmts = N;
  Numbered = true;
}

std::vector<BasicBlock *> reversePostOrder(const Function &F, bool Backward) {
  std::vector<BasicBlock *> Order;
  BasicBlock *Root = Backward ? F.exitBlock() : F.entry();
  if (!Root)
    return Order;
  // Iterative DFS: chains of blocks can be deeper than the stack.
  std::vector<uint8_t> Visited(F.blockIdBound(), 0);
  std::vector<std::pair<BasicBlock *, size_t>> Stack{{Root, 0}};
  Visited[Root->id()] = 1;
  while (!Stack.empty()) {
    auto &[B, Idx] = Stack.back();
    const std::vector<BasicBlock *> &Out = Backward ? B->preds() : B->succs();
    if (Idx < Out.size()) {
      BasicBlock *Next = Out[Idx++];
      if (!Visited[Next->id()]) {
        Visited[Next->id()] = 1;
        Stack.push_back({Next, 0});
      }
    } else {
      Order.push_back(B);
      Stack.pop_back();
    }
  }
  std::reverse(Order.begin(), Order.end());
  return Order;
}

std::string Function::str() const {
  std::string Out = RetTy.str() + " " + Name + "(";
  bool First = true;
  for (const Variable *P : Params) {
    if (!First)
      Out += ", ";
    Out += P->type().str() + " " + P->name();
    if (P->isAuxParam())
      Out += " /*aux*/";
    First = false;
  }
  Out += ") {\n";
  for (const BasicBlock *B : Blocks) {
    Out += B->name() + ":";
    if (!B->preds().empty()) {
      Out += "  ; preds:";
      for (const BasicBlock *P : B->preds())
        Out += " " + P->name();
    }
    Out += "\n";
    for (const Stmt *S : B->stmts())
      Out += "  " + S->str() + "\n";
  }
  return Out + "}\n";
}

//===----------------------------------------------------------------------===
// Module
//===----------------------------------------------------------------------===

Function *Module::createFunction(const std::string &Name, Type RetTy) {
  std::lock_guard<std::mutex> L(Mu);
  assert(!FunctionMap.count(Name) && "duplicate function");
  Function *F = makeLocked<Function>(
      Function(Name, static_cast<uint32_t>(Functions.size()), RetTy, this));
  Functions.push_back(F);
  FunctionMap[Name] = F;
  return F;
}

Function *Module::function(const std::string &Name) const {
  std::lock_guard<std::mutex> L(Mu);
  auto It = FunctionMap.find(Name);
  return It == FunctionMap.end() ? nullptr : It->second;
}

Constant *Module::getIntConst(int64_t V) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = ConstPool.find(V);
  if (It != ConstPool.end())
    return It->second;
  Constant *C = makeLocked<Constant>(Constant(Type::intTy(), V));
  ConstPool[V] = C;
  return C;
}

Constant *Module::getBoolConst(bool B) {
  // Bool constants are interned alongside ints with shifted keys.
  std::lock_guard<std::mutex> L(Mu);
  int64_t Key = B ? -1000001 : -1000002;
  auto It = ConstPool.find(Key);
  if (It != ConstPool.end())
    return It->second;
  Constant *C = makeLocked<Constant>(Constant(Type::boolTy(), B ? 1 : 0));
  ConstPool[Key] = C;
  return C;
}

Constant *Module::getNullConst(Type PtrTy) {
  assert(PtrTy.isPointer());
  std::lock_guard<std::mutex> L(Mu);
  auto It = NullConsts.find(PtrTy.pointerDepth());
  if (It != NullConsts.end())
    return It->second;
  Constant *C = makeLocked<Constant>(Constant(PtrTy, 0));
  NullConsts[PtrTy.pointerDepth()] = C;
  return C;
}

std::string Module::str() const {
  std::string Out;
  for (const Function *F : Functions)
    Out += F->str() + "\n";
  return Out;
}

namespace intrinsics {
bool isIntrinsic(const std::string &Name) {
  return Name == Malloc || Name == Free;
}
} // namespace intrinsics

} // namespace pinpoint::ir
