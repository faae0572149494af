//===- frontend/Parser.cpp ---------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "frontend/Lexer.h"

#include <map>
#include <optional>

using namespace pinpoint::ir;

namespace pinpoint::frontend {

namespace {

struct FnSig {
  Type RetTy = Type::voidTy();
  std::vector<Type> ParamTys;
};

/// A typed value during lowering.
struct TypedValue {
  Value *V = nullptr;
  Type Ty = Type::intTy();
  bool valid() const { return V != nullptr; }
};

class Parser {
public:
  Parser(std::string_view Source, Module &M, std::vector<Diag> &Diags)
      : Source(Source), Lex(Source), M(M), Diags(Diags) {}

  bool run() {
    collectSignatures();
    while (!Lex.peek().is(TokKind::Eof)) {
      if (!parseFunction())
        return false;
    }
    return Diags.empty();
  }

private:
  //===--- Diagnostics & token helpers -------------------------------------===

  void error(SourceLoc Loc, const std::string &Msg) {
    Diags.push_back({Loc, Msg});
  }

  /// Recursion-depth cap for the mutually recursive expression/statement
  /// grammar: hostile or generated inputs with thousands of nested parens,
  /// unary operators or blocks must produce a diagnostic, never overflow
  /// the stack. The cap bounds *grammar* nesting, far above anything a
  /// legitimate MiniC source reaches.
  static constexpr int MaxNestingDepth = 256;

  struct DepthGuard {
    Parser &P;
    bool Ok;
    DepthGuard(Parser &P, SourceLoc Loc)
        : P(P), Ok(++P.NestingDepth <= MaxNestingDepth) {
      if (!Ok)
        P.error(Loc, "nesting too deep (max " +
                         std::to_string(MaxNestingDepth) + " levels)");
    }
    ~DepthGuard() { --P.NestingDepth; }
  };

  bool expect(TokKind K, const char *What) {
    if (Lex.peek().is(K)) {
      Lex.next();
      return true;
    }
    error(Lex.peek().Loc, std::string("expected ") + What + ", got '" +
                              std::string(Lex.peek().Text) + "'");
    return false;
  }

  bool accept(TokKind K) {
    if (Lex.peek().is(K)) {
      Lex.next();
      return true;
    }
    return false;
  }

  //===--- Signature prepass ----------------------------------------------===

  void collectSignatures() {
    Lexer Pre(Source);
    while (!Pre.peek().is(TokKind::Eof)) {
      // type IDENT ( params ) {
      std::optional<Type> Ty = scanType(Pre);
      if (!Ty || !Pre.peek().is(TokKind::Ident)) {
        Pre.next();
        continue;
      }
      std::string Name(Pre.next().Text);
      if (!Pre.peek().is(TokKind::LParen))
        continue;
      Pre.next();
      FnSig Sig;
      Sig.RetTy = *Ty;
      while (!Pre.peek().is(TokKind::RParen) &&
             !Pre.peek().is(TokKind::Eof)) {
        std::optional<Type> PTy = scanType(Pre);
        if (!PTy)
          break;
        Sig.ParamTys.push_back(*PTy);
        if (Pre.peek().is(TokKind::Ident))
          Pre.next();
        if (!Pre.peek().is(TokKind::Comma))
          break;
        Pre.next();
      }
      Signatures[Name] = Sig;
      // Skip to the end of the body.
      int Depth = 0;
      while (!Pre.peek().is(TokKind::Eof)) {
        TokKind K = Pre.next().Kind;
        if (K == TokKind::LBrace)
          ++Depth;
        else if (K == TokKind::RBrace && --Depth == 0)
          break;
      }
    }
  }

  static std::optional<Type> scanType(Lexer &L) {
    if (L.peek().is(TokKind::KwBool)) {
      L.next();
      return Type::boolTy();
    }
    if (L.peek().is(TokKind::KwVoid)) {
      L.next();
      return Type::voidTy();
    }
    if (!L.peek().is(TokKind::KwInt))
      return std::nullopt;
    L.next();
    int Depth = 0;
    while (L.peek().is(TokKind::Star)) {
      L.next();
      ++Depth;
    }
    return Depth == 0 ? Type::intTy() : Type::ptrTy(Depth);
  }

  //===--- Scopes -----------------------------------------------------------

  Variable *lookup(const std::string &Name) {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
      auto Found = It->find(Name);
      if (Found != It->end())
        return Found->second;
    }
    return nullptr;
  }

  void declare(const std::string &Name, Variable *V, SourceLoc Loc) {
    if (Scopes.back().count(Name))
      error(Loc, "redeclaration of '" + Name + "'");
    Scopes.back()[Name] = V;
  }

  //===--- IR emission helpers ---------------------------------------------===

  void emit(Stmt *S) { CurBB->append(S); }

  Variable *newTemp(Type Ty) {
    return F->createVar(Ty, "t" + std::to_string(TempCount++));
  }

  BasicBlock *newBlock(const std::string &Hint) {
    return F->createBlock(Hint);
  }

  void setBlock(BasicBlock *B) { CurBB = B; }

  void jumpTo(BasicBlock *Target, SourceLoc Loc) {
    if (!CurBB->terminator())
      emit(M.make<JumpStmt>(Target, Loc));
  }

  //===--- Functions --------------------------------------------------------

  bool parseFunction() {
    SourceLoc Loc = Lex.peek().Loc;
    std::optional<Type> RetTy = scanType(Lex);
    if (!RetTy) {
      error(Loc, "expected function return type");
      return false;
    }
    if (!Lex.peek().is(TokKind::Ident)) {
      error(Lex.peek().Loc, "expected function name");
      return false;
    }
    std::string Name(Lex.next().Text);
    if (M.function(Name)) {
      error(Loc, "redefinition of function '" + Name + "'");
      return false;
    }

    F = M.createFunction(Name, *RetTy);
    TempCount = 0;
    Scopes.clear();
    Scopes.emplace_back();

    if (!expect(TokKind::LParen, "'('"))
      return false;
    if (!Lex.peek().is(TokKind::RParen)) {
      do {
        SourceLoc PLoc = Lex.peek().Loc;
        std::optional<Type> PTy = scanType(Lex);
        if (!PTy || PTy->isVoid()) {
          error(PLoc, "expected parameter type");
          return false;
        }
        if (!Lex.peek().is(TokKind::Ident)) {
          error(Lex.peek().Loc, "expected parameter name");
          return false;
        }
        Token PName = Lex.next();
        Variable *P = F->addParam(*PTy, std::string(PName.Text));
        declare(std::string(PName.Text), P, PName.Loc);
      } while (accept(TokKind::Comma));
    }
    if (!expect(TokKind::RParen, "')'"))
      return false;

    // Unified exit block with the single return.
    BasicBlock *Entry = F->createBlock("entry");
    ExitBB = F->createBlock("exit");
    F->setExitBlock(ExitBB);
    RetVar = RetTy->isVoid() ? nullptr : F->createVar(*RetTy, "retval");
    auto *Ret = M.make<ReturnStmt>(Loc);
    if (RetVar)
      Ret->addValue(RetVar);
    ExitBB->append(Ret);

    setBlock(Entry);
    if (!parseBlock())
      return false;
    // Fall-through at the end of the body returns (void or default 0).
    if (!CurBB->terminator()) {
      if (RetVar)
        emit(M.make<AssignStmt>(RetVar, defaultValueFor(RetVar->type()),
                                SourceLoc{}));
      emit(M.make<JumpStmt>(ExitBB, SourceLoc{}));
    }

    F->removeUnreachableBlocks();
    return true;
  }

  Value *defaultValueFor(Type Ty) {
    if (Ty.isPointer())
      return M.getNullConst(Ty);
    if (Ty.isBool())
      return M.getBoolConst(false);
    return M.getIntConst(0);
  }

  //===--- Statements -------------------------------------------------------

  bool parseBlock() {
    if (!expect(TokKind::LBrace, "'{'"))
      return false;
    Scopes.emplace_back();
    while (!Lex.peek().is(TokKind::RBrace)) {
      if (Lex.peek().is(TokKind::Eof)) {
        error(Lex.peek().Loc, "unterminated block");
        return false;
      }
      if (!parseStmt())
        return false;
    }
    Lex.next(); // }
    Scopes.pop_back();
    return true;
  }

  bool parseStmt() {
    DepthGuard G(*this, Lex.peek().Loc);
    if (!G.Ok)
      return false;
    const Token &T = Lex.peek();
    switch (T.Kind) {
    case TokKind::LBrace:
      return parseBlock();
    case TokKind::KwInt:
    case TokKind::KwBool:
      return parseDecl();
    case TokKind::KwIf:
      return parseIf();
    case TokKind::KwWhile:
      return parseWhile();
    case TokKind::KwReturn:
      return parseReturn();
    case TokKind::Star:
      return parseStore();
    case TokKind::Ident: {
      // Assignment or expression statement: decided by one-token lookahead
      // through a sub-lexer is overkill; peek at the text after the ident by
      // re-lexing is avoided by grammar: `IDENT '='` is an assignment.
      return parseAssignOrExpr();
    }
    default:
      return parseExprStmt();
    }
  }

  bool parseDecl() {
    SourceLoc Loc = Lex.peek().Loc;
    std::optional<Type> Ty = scanType(Lex);
    if (!Ty || Ty->isVoid()) {
      error(Loc, "bad declaration type");
      return false;
    }
    if (!Lex.peek().is(TokKind::Ident)) {
      error(Lex.peek().Loc, "expected variable name");
      return false;
    }
    Token Name = Lex.next();
    Variable *V = F->createVar(*Ty, std::string(Name.Text));
    declare(std::string(Name.Text), V, Name.Loc);
    if (accept(TokKind::Assign)) {
      TypedValue Init = parseExpr(*Ty);
      if (!Init.valid())
        return false;
      emit(M.make<AssignStmt>(V, coerce(Init, *Ty, Name.Loc), Name.Loc));
    }
    return expect(TokKind::Semi, "';'");
  }

  bool parseIf() {
    SourceLoc Loc = Lex.next().Loc; // if
    if (!expect(TokKind::LParen, "'('"))
      return false;
    Value *Cond = parseCondition();
    if (!Cond)
      return false;
    if (!expect(TokKind::RParen, "')'"))
      return false;

    BasicBlock *ThenBB = newBlock("then");
    BasicBlock *JoinBB = newBlock("join");
    BasicBlock *ElseBB = JoinBB;

    BasicBlock *CondBB = CurBB;
    setBlock(ThenBB);
    if (!parseStmt())
      return false;
    BasicBlock *ThenEnd = CurBB;

    bool HasElse = Lex.peek().is(TokKind::KwElse);
    if (HasElse) {
      Lex.next();
      ElseBB = newBlock("else");
      setBlock(ElseBB);
      if (!parseStmt())
        return false;
      jumpTo(JoinBB, Loc);
    }

    CondBB->append(M.make<BranchStmt>(Cond, ThenBB, ElseBB, Loc));
    setBlock(ThenEnd);
    jumpTo(JoinBB, Loc);
    setBlock(JoinBB);
    return true;
  }

  bool parseWhile() {
    // Soundiness (paper §4.2): loops are unrolled once — lower
    // `while (c) body` as `if (c) body`.
    SourceLoc Loc = Lex.next().Loc; // while
    if (!expect(TokKind::LParen, "'('"))
      return false;
    Value *Cond = parseCondition();
    if (!Cond)
      return false;
    if (!expect(TokKind::RParen, "')'"))
      return false;

    BasicBlock *BodyBB = newBlock("loopbody");
    BasicBlock *JoinBB = newBlock("loopexit");
    CurBB->append(M.make<BranchStmt>(Cond, BodyBB, JoinBB, Loc));
    setBlock(BodyBB);
    if (!parseStmt())
      return false;
    jumpTo(JoinBB, Loc);
    setBlock(JoinBB);
    return true;
  }

  bool parseReturn() {
    SourceLoc Loc = Lex.next().Loc; // return
    if (!Lex.peek().is(TokKind::Semi)) {
      if (!RetVar) {
        error(Loc, "returning a value from a void function");
        return false;
      }
      TypedValue V = parseExpr(RetVar->type());
      if (!V.valid())
        return false;
      emit(M.make<AssignStmt>(RetVar, coerce(V, RetVar->type(), Loc), Loc));
    } else if (RetVar) {
      emit(M.make<AssignStmt>(RetVar, defaultValueFor(RetVar->type()), Loc));
    }
    if (!expect(TokKind::Semi, "';'"))
      return false;
    emit(M.make<JumpStmt>(ExitBB, Loc));
    // Continue lowering any trailing dead code into a fresh block; it is
    // pruned by removeUnreachableBlocks.
    setBlock(newBlock("dead"));
    return true;
  }

  bool parseStore() {
    SourceLoc Loc = Lex.peek().Loc;
    uint32_t Derefs = 0;
    while (accept(TokKind::Star))
      ++Derefs;
    if (!Lex.peek().is(TokKind::Ident)) {
      error(Lex.peek().Loc, "expected pointer variable after '*'");
      return false;
    }
    Token Name = Lex.next();
    Variable *Ptr = lookup(std::string(Name.Text));
    if (!Ptr) {
      error(Name.Loc, "use of undeclared variable '" +
                          std::string(Name.Text) + "'");
      return false;
    }
    if (Ptr->type().pointerDepth() < static_cast<int>(Derefs)) {
      error(Name.Loc, "cannot dereference '" + Ptr->name() + "' " +
                          std::to_string(Derefs) + " times");
      return false;
    }
    if (!expect(TokKind::Assign, "'='"))
      return false;
    Type ValTy = Ptr->type().deref(static_cast<int>(Derefs));
    TypedValue V = parseExpr(ValTy);
    if (!V.valid())
      return false;
    Value *Stored = coerce(V, ValTy, Loc);
    // Materialise stored null constants through a temporary so the null
    // value participates in value-flow graphs (constants do not flow).
    if (const auto *C = dyn_cast<Constant>(Stored);
        C && C->isNull() && ValTy.isPointer()) {
      Variable *T = newTemp(ValTy);
      emit(M.make<AssignStmt>(T, Stored, Loc));
      Stored = T;
    }
    emit(M.make<StoreStmt>(Ptr, Derefs, Stored, Loc));
    return expect(TokKind::Semi, "';'");
  }

  bool parseAssignOrExpr() {
    Token Name = Lex.peek();
    // Save lexer state is unnecessary: grammar is LL(2) here. We lex the
    // ident, then decide on '='.
    Lex.next();
    if (Lex.peek().is(TokKind::Assign)) {
      Lex.next();
      Variable *V = lookup(std::string(Name.Text));
      if (!V) {
        error(Name.Loc, "use of undeclared variable '" +
                            std::string(Name.Text) + "'");
        return false;
      }
      TypedValue RHS = parseExpr(V->type());
      if (!RHS.valid())
        return false;
      emit(M.make<AssignStmt>(V, coerce(RHS, V->type(), Name.Loc),
                              Name.Loc));
      return expect(TokKind::Semi, "';'");
    }
    // Expression statement beginning with an identifier: only calls have
    // effects, and the grammar only reaches here for them.
    if (Lex.peek().is(TokKind::LParen)) {
      TypedValue V = parseCallAfterName(Name, std::nullopt);
      if (!V.valid() && !CalleeIsVoid)
        return false;
      return expect(TokKind::Semi, "';'");
    }
    error(Lex.peek().Loc, "expected '=' or '(' after identifier");
    return false;
  }

  bool parseExprStmt() {
    TypedValue V = parseExpr(std::nullopt);
    if (!V.valid())
      return false;
    return expect(TokKind::Semi, "';'");
  }

  //===--- Expressions -------------------------------------------------------

  /// Lowers a condition expression to a bool-typed Value.
  Value *parseCondition() {
    TypedValue C = parseExpr(Type::boolTy());
    if (!C.valid())
      return nullptr;
    return coerce(C, Type::boolTy(), Lex.peek().Loc);
  }

  /// Coerces \p V to \p Want: int->bool via (v != 0); null adapts to any
  /// pointer depth. Mismatches diagnose but return something usable.
  Value *coerce(TypedValue V, Type Want, SourceLoc Loc) {
    if (V.Ty == Want)
      return V.V;
    if (Want.isBool() && (V.Ty.isInt() || V.Ty.isPointer())) {
      Variable *T = newTemp(Type::boolTy());
      Value *Zero = V.Ty.isPointer() ? static_cast<Value *>(M.getNullConst(
                                           V.Ty))
                                     : M.getIntConst(0);
      emit(M.make<BinOpStmt>(T, OpCode::Ne, V.V, Zero, Loc));
      return T;
    }
    if (Want.isPointer()) {
      if (const auto *C = dyn_cast<Constant>(V.V); C && C->value() == 0)
        return M.getNullConst(Want);
    }
    if (Want.isInt() && V.Ty.isBool())
      return V.V; // Tolerated: bools are 0/1 ints downstream.
    error(Loc, "type mismatch: have " + V.Ty.str() + ", want " + Want.str());
    return V.V;
  }

  /// expr := or-chain. \p Expected propagates the target type into
  /// context-sensitive leaves (null, malloc, externals).
  TypedValue parseExpr(std::optional<Type> Expected) {
    DepthGuard G(*this, Lex.peek().Loc);
    if (!G.Ok)
      return {};
    TypedValue L = parseAnd(Expected);
    if (!L.valid())
      return {};
    while (Lex.peek().is(TokKind::PipePipe)) {
      SourceLoc Loc = Lex.next().Loc;
      TypedValue R = parseAnd(Type::boolTy());
      if (!R.valid())
        return {};
      Variable *T = newTemp(Type::boolTy());
      emit(M.make<BinOpStmt>(T, OpCode::Or, coerce(L, Type::boolTy(), Loc),
                             coerce(R, Type::boolTy(), Loc), Loc));
      L = {T, Type::boolTy()};
    }
    return L;
  }

  TypedValue parseAnd(std::optional<Type> Expected) {
    TypedValue L = parseCmp(Expected);
    if (!L.valid())
      return {};
    while (Lex.peek().is(TokKind::AmpAmp)) {
      SourceLoc Loc = Lex.next().Loc;
      TypedValue R = parseCmp(Type::boolTy());
      if (!R.valid())
        return {};
      Variable *T = newTemp(Type::boolTy());
      emit(M.make<BinOpStmt>(T, OpCode::And, coerce(L, Type::boolTy(), Loc),
                             coerce(R, Type::boolTy(), Loc), Loc));
      L = {T, Type::boolTy()};
    }
    return L;
  }

  TypedValue parseCmp(std::optional<Type> Expected) {
    TypedValue L = parseAdd(Expected);
    if (!L.valid())
      return {};
    OpCode Op;
    switch (Lex.peek().Kind) {
    case TokKind::EqEq:
      Op = OpCode::Eq;
      break;
    case TokKind::NotEq:
      Op = OpCode::Ne;
      break;
    case TokKind::Lt:
      Op = OpCode::Lt;
      break;
    case TokKind::Le:
      Op = OpCode::Le;
      break;
    case TokKind::Gt:
      Op = OpCode::Gt;
      break;
    case TokKind::Ge:
      Op = OpCode::Ge;
      break;
    default:
      return L;
    }
    SourceLoc Loc = Lex.next().Loc;
    TypedValue R = parseAdd(L.Ty);
    if (!R.valid())
      return {};
    // Pointer comparisons against null/0 are the common pattern (*q != 0).
    Value *RV = R.V;
    if (L.Ty.isPointer() && !R.Ty.isPointer()) {
      if (const auto *C = dyn_cast<Constant>(R.V); C && C->value() == 0)
        RV = M.getNullConst(L.Ty);
      else
        error(Loc, "comparing pointer with non-pointer");
    }
    Variable *T = newTemp(Type::boolTy());
    emit(M.make<BinOpStmt>(T, Op, L.V, RV, Loc));
    return {T, Type::boolTy()};
  }

  TypedValue parseAdd(std::optional<Type> Expected) {
    TypedValue L = parseMul(Expected);
    if (!L.valid())
      return {};
    while (Lex.peek().is(TokKind::Plus) || Lex.peek().is(TokKind::Minus)) {
      OpCode Op = Lex.peek().is(TokKind::Plus) ? OpCode::Add : OpCode::Sub;
      SourceLoc Loc = Lex.next().Loc;
      TypedValue R = parseMul(Type::intTy());
      if (!R.valid())
        return {};
      Variable *T = newTemp(Type::intTy());
      emit(M.make<BinOpStmt>(T, Op, L.V, R.V, Loc));
      L = {T, Type::intTy()};
    }
    return L;
  }

  TypedValue parseMul(std::optional<Type> Expected) {
    TypedValue L = parseUnary(Expected);
    if (!L.valid())
      return {};
    while (Lex.peek().is(TokKind::Star)) {
      SourceLoc Loc = Lex.next().Loc;
      TypedValue R = parseUnary(Type::intTy());
      if (!R.valid())
        return {};
      Variable *T = newTemp(Type::intTy());
      emit(M.make<BinOpStmt>(T, OpCode::Mul, L.V, R.V, Loc));
      L = {T, Type::intTy()};
    }
    return L;
  }

  TypedValue parseUnary(std::optional<Type> Expected) {
    DepthGuard G(*this, Lex.peek().Loc);
    if (!G.Ok)
      return {};
    const Token &T = Lex.peek();
    if (T.is(TokKind::Minus)) {
      SourceLoc Loc = Lex.next().Loc;
      TypedValue V = parseUnary(Type::intTy());
      if (!V.valid())
        return {};
      Variable *Tmp = newTemp(Type::intTy());
      emit(M.make<UnOpStmt>(Tmp, OpCode::Neg, V.V, Loc));
      return {Tmp, Type::intTy()};
    }
    if (T.is(TokKind::Bang)) {
      SourceLoc Loc = Lex.next().Loc;
      TypedValue V = parseUnary(Type::boolTy());
      if (!V.valid())
        return {};
      Variable *Tmp = newTemp(Type::boolTy());
      emit(M.make<UnOpStmt>(Tmp, OpCode::Not,
                            coerce(V, Type::boolTy(), Loc), Loc));
      return {Tmp, Type::boolTy()};
    }
    if (T.is(TokKind::Star)) {
      // Load: *(p, k).
      SourceLoc Loc = T.Loc;
      uint32_t Derefs = 0;
      while (accept(TokKind::Star))
        ++Derefs;
      if (!Lex.peek().is(TokKind::Ident)) {
        error(Lex.peek().Loc, "expected variable after '*'");
        return {};
      }
      Token Name = Lex.next();
      Variable *Ptr = lookup(std::string(Name.Text));
      if (!Ptr) {
        error(Name.Loc, "use of undeclared variable '" +
                            std::string(Name.Text) + "'");
        return {};
      }
      if (Ptr->type().pointerDepth() < static_cast<int>(Derefs)) {
        error(Name.Loc, "cannot dereference '" + Ptr->name() + "' " +
                            std::to_string(Derefs) + " times");
        return {};
      }
      Type ResTy = Ptr->type().deref(static_cast<int>(Derefs));
      Variable *Tmp = newTemp(ResTy);
      emit(M.make<LoadStmt>(Tmp, Ptr, Derefs, Loc));
      return {Tmp, ResTy};
    }
    return parsePrimary(Expected);
  }

  TypedValue parsePrimary(std::optional<Type> Expected) {
    Token T = Lex.peek();
    switch (T.Kind) {
    case TokKind::Number:
      Lex.next();
      return {M.getIntConst(T.Number), Type::intTy()};
    case TokKind::KwTrue:
      Lex.next();
      return {M.getBoolConst(true), Type::boolTy()};
    case TokKind::KwFalse:
      Lex.next();
      return {M.getBoolConst(false), Type::boolTy()};
    case TokKind::KwNull: {
      Lex.next();
      Type Ty = Expected && Expected->isPointer() ? *Expected
                                                  : Type::ptrTy(1);
      return {M.getNullConst(Ty), Ty};
    }
    case TokKind::LParen: {
      Lex.next();
      TypedValue V = parseExpr(Expected);
      if (!V.valid())
        return {};
      if (!expect(TokKind::RParen, "')'"))
        return {};
      return V;
    }
    case TokKind::Ident: {
      Lex.next();
      if (Lex.peek().is(TokKind::LParen))
        return parseCallAfterName(T, Expected);
      Variable *V = lookup(std::string(T.Text));
      if (!V) {
        error(T.Loc,
              "use of undeclared variable '" + std::string(T.Text) + "'");
        return {};
      }
      return {V, V->type()};
    }
    default:
      error(T.Loc, "expected expression, got '" + std::string(T.Text) + "'");
      return {};
    }
  }

  /// Parses `(args)` after a callee name and emits the CallStmt.
  TypedValue parseCallAfterName(const Token &Name,
                                std::optional<Type> Expected) {
    CalleeIsVoid = false;
    expect(TokKind::LParen, "'('");
    std::string Callee(Name.Text);
    auto SigIt = Signatures.find(Callee);

    auto *Call = M.make<CallStmt>(Callee, Name.Loc);
    unsigned ArgIdx = 0;
    if (!Lex.peek().is(TokKind::RParen)) {
      do {
        std::optional<Type> ArgTy;
        if (SigIt != Signatures.end() &&
            ArgIdx < SigIt->second.ParamTys.size())
          ArgTy = SigIt->second.ParamTys[ArgIdx];
        TypedValue A = parseExpr(ArgTy);
        if (!A.valid())
          return {};
        Call->addArg(ArgTy ? coerce(A, *ArgTy, Name.Loc) : A.V);
        ++ArgIdx;
      } while (accept(TokKind::Comma));
    }
    if (!expect(TokKind::RParen, "')'"))
      return {};
    // The connector transform indexes a call's actuals by the callee's
    // parameter positions, so the counts must agree.
    if (SigIt != Signatures.end() &&
        ArgIdx != SigIt->second.ParamTys.size()) {
      error(Name.Loc, "call to '" + Callee + "' passes " +
                          std::to_string(ArgIdx) +
                          " argument(s), but it takes " +
                          std::to_string(SigIt->second.ParamTys.size()));
      return {};
    }

    // Determine the return type: defined functions have signatures;
    // malloc adapts to the expected pointer type; free is void; other
    // externals adapt to the expected type (default int).
    Type RetTy = Type::intTy();
    if (SigIt != Signatures.end()) {
      RetTy = SigIt->second.RetTy;
    } else if (Callee == ir::intrinsics::Malloc) {
      RetTy = Expected && Expected->isPointer() ? *Expected : Type::ptrTy(1);
    } else if (Callee == ir::intrinsics::Free) {
      RetTy = Type::voidTy();
    } else if (Expected) {
      RetTy = *Expected;
    }

    if (RetTy.isVoid()) {
      CalleeIsVoid = true;
      emit(Call);
      return {};
    }
    Variable *Recv = newTemp(RetTy);
    Call->setReceiver(Recv);
    emit(Call);
    return {Recv, RetTy};
  }

  std::string_view Source;
  Lexer Lex;
  Module &M;
  std::vector<Diag> &Diags;

  Function *F = nullptr;
  BasicBlock *CurBB = nullptr;
  BasicBlock *ExitBB = nullptr;
  Variable *RetVar = nullptr;
  unsigned TempCount = 0;
  bool CalleeIsVoid = false;
  int NestingDepth = 0; ///< Current grammar recursion depth (DepthGuard).
  std::vector<std::map<std::string, Variable *>> Scopes;
  std::map<std::string, FnSig> Signatures;
};

} // namespace

bool parseModule(std::string_view Source, Module &M,
                 std::vector<Diag> &Diags) {
  return Parser(Source, M, Diags).run();
}

} // namespace pinpoint::frontend
