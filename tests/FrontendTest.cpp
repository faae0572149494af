//===- tests/FrontendTest.cpp - Lexer & parser tests -----------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace pinpoint::ir;

namespace pinpoint::frontend {
namespace {

//===----------------------------------------------------------------------===
// Lexer
//===----------------------------------------------------------------------===

std::vector<Token> lexAll(std::string_view Src) {
  Lexer L(Src);
  std::vector<Token> Out;
  while (!L.peek().is(TokKind::Eof))
    Out.push_back(L.next());
  return Out;
}

TEST(Lexer, TokenisesPunctuationAndOperators) {
  auto Toks = lexAll("( ) { } , ; = * + - ! && || == != < <= > >=");
  std::vector<TokKind> Kinds;
  for (auto &T : Toks)
    Kinds.push_back(T.Kind);
  std::vector<TokKind> Expected = {
      TokKind::LParen, TokKind::RParen, TokKind::LBrace,  TokKind::RBrace,
      TokKind::Comma,  TokKind::Semi,   TokKind::Assign,  TokKind::Star,
      TokKind::Plus,   TokKind::Minus,  TokKind::Bang,    TokKind::AmpAmp,
      TokKind::PipePipe, TokKind::EqEq, TokKind::NotEq,   TokKind::Lt,
      TokKind::Le,     TokKind::Gt,     TokKind::Ge};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, KeywordsVsIdentifiers) {
  auto Toks = lexAll("int intx if iffy while null");
  EXPECT_EQ(Toks[0].Kind, TokKind::KwInt);
  EXPECT_EQ(Toks[1].Kind, TokKind::Ident);
  EXPECT_EQ(Toks[2].Kind, TokKind::KwIf);
  EXPECT_EQ(Toks[3].Kind, TokKind::Ident);
  EXPECT_EQ(Toks[4].Kind, TokKind::KwWhile);
  EXPECT_EQ(Toks[5].Kind, TokKind::KwNull);
}

TEST(Lexer, NumbersHaveValues) {
  auto Toks = lexAll("0 42 123456");
  EXPECT_EQ(Toks[0].Number, 0);
  EXPECT_EQ(Toks[1].Number, 42);
  EXPECT_EQ(Toks[2].Number, 123456);
}

TEST(Lexer, CommentsAreSkipped) {
  auto Toks = lexAll("a // comment\n b /* block\n comment */ c");
  ASSERT_EQ(Toks.size(), 3u);
  EXPECT_EQ(Toks[0].Text, "a");
  EXPECT_EQ(Toks[1].Text, "b");
  EXPECT_EQ(Toks[2].Text, "c");
}

TEST(Lexer, TracksLineNumbers) {
  auto Toks = lexAll("a\nb\n  c");
  EXPECT_EQ(Toks[0].Loc.Line, 1u);
  EXPECT_EQ(Toks[1].Loc.Line, 2u);
  EXPECT_EQ(Toks[2].Loc.Line, 3u);
  EXPECT_EQ(Toks[2].Loc.Col, 3u);
}

//===----------------------------------------------------------------------===
// Parser
//===----------------------------------------------------------------------===

/// Parses and expects success; returns the module.
std::unique_ptr<Module> parseOK(std::string_view Src) {
  auto M = std::make_unique<Module>();
  std::vector<Diag> Diags;
  bool OK = parseModule(Src, *M, Diags);
  for (auto &D : Diags)
    ADD_FAILURE() << D.str();
  EXPECT_TRUE(OK);
  return M;
}

TEST(Parser, EmptyVoidFunction) {
  auto M = parseOK("void f() { }");
  Function *F = M->function("f");
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(F->returnType().isVoid());
  EXPECT_EQ(verifyModule(*M).size(), 0u);
}

TEST(Parser, ParametersAndTypes) {
  auto M = parseOK("int g(int a, int *p, int **q, bool b) { return a; }");
  Function *F = M->function("g");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(F->params().size(), 4u);
  EXPECT_TRUE(F->params()[0]->type().isInt());
  EXPECT_EQ(F->params()[1]->type().pointerDepth(), 1);
  EXPECT_EQ(F->params()[2]->type().pointerDepth(), 2);
  EXPECT_TRUE(F->params()[3]->type().isBool());
}

TEST(Parser, SingleReturnInvariant) {
  auto M = parseOK(R"(
    int f(int a) {
      if (a > 0) return 1;
      return 2;
    })");
  auto Errs = verifyModule(*M);
  EXPECT_EQ(Errs.size(), 0u) << (Errs.empty() ? "" : Errs[0]);
  // Exactly one ReturnStmt.
  Function *F = M->function("f");
  int Returns = 0;
  for (BasicBlock *B : F->blocks())
    for (Stmt *S : B->stmts())
      if (isa<ReturnStmt>(S))
        ++Returns;
  EXPECT_EQ(Returns, 1);
}

TEST(Parser, IfElseProducesDiamond) {
  auto M = parseOK(R"(
    int f(int a) {
      int x = 0;
      if (a > 1) { x = 1; } else { x = 2; }
      return x;
    })");
  Function *F = M->function("f");
  // entry, then, else, join, exit (dead blocks pruned).
  EXPECT_GE(F->blocks().size(), 5u);
  EXPECT_EQ(verifyModule(*M).size(), 0u);
}

TEST(Parser, WhileIsUnrolledOnce) {
  auto M = parseOK(R"(
    int f(int n) {
      int i = 0;
      while (i < n) { i = i + 1; }
      return i;
    })");
  // Soundiness: the CFG must be acyclic — the verifier checks that.
  EXPECT_EQ(verifyModule(*M).size(), 0u);
}

TEST(Parser, LoadsAndStores) {
  auto M = parseOK(R"(
    int f(int **q) {
      int *p = *q;
      int v = **q;
      *q = p;
      **q = v + 1;
      return v;
    })");
  Function *F = M->function("f");
  int Loads = 0, Stores = 0;
  uint32_t MaxLoadDerefs = 0, MaxStoreDerefs = 0;
  for (BasicBlock *B : F->blocks())
    for (Stmt *S : B->stmts()) {
      if (auto *L = dyn_cast<LoadStmt>(S)) {
        ++Loads;
        MaxLoadDerefs = std::max(MaxLoadDerefs, L->derefs());
      }
      if (auto *St = dyn_cast<StoreStmt>(S)) {
        ++Stores;
        MaxStoreDerefs = std::max(MaxStoreDerefs, St->derefs());
      }
    }
  EXPECT_EQ(Loads, 2);
  EXPECT_EQ(Stores, 2);
  EXPECT_EQ(MaxLoadDerefs, 2u);
  EXPECT_EQ(MaxStoreDerefs, 2u);
}

TEST(Parser, MallocAdaptsToExpectedType) {
  auto M = parseOK("void f() { int **p = malloc(); }");
  Function *F = M->function("f");
  const CallStmt *Call = nullptr;
  for (BasicBlock *B : F->blocks())
    for (Stmt *S : B->stmts())
      if (auto *C = dyn_cast<CallStmt>(S))
        Call = C;
  ASSERT_NE(Call, nullptr);
  ASSERT_NE(Call->receiver(), nullptr);
  EXPECT_EQ(Call->receiver()->type().pointerDepth(), 2);
}

TEST(Parser, FreeIsAVoidCall) {
  auto M = parseOK("void f(int *p) { free(p); }");
  Function *F = M->function("f");
  const CallStmt *Call = nullptr;
  for (BasicBlock *B : F->blocks())
    for (Stmt *S : B->stmts())
      if (auto *C = dyn_cast<CallStmt>(S))
        Call = C;
  ASSERT_NE(Call, nullptr);
  EXPECT_EQ(Call->calleeName(), "free");
  EXPECT_EQ(Call->receiver(), nullptr);
  EXPECT_TRUE(Call->auxReceivers().empty());
}

TEST(Parser, CallsResolveForwardReferences) {
  auto M = parseOK(R"(
    int caller() { int *p = callee(); return *p; }
    int *callee() { return null; }
  )");
  Function *F = M->function("caller");
  const CallStmt *Call = nullptr;
  for (BasicBlock *B : F->blocks())
    for (Stmt *S : B->stmts())
      if (auto *C = dyn_cast<CallStmt>(S))
        Call = C;
  ASSERT_NE(Call, nullptr);
  ASSERT_NE(Call->receiver(), nullptr);
  EXPECT_EQ(Call->receiver()->type().pointerDepth(), 1);
}

TEST(Parser, NullAdaptsToContext) {
  auto M = parseOK("void f() { int **q = null; }");
  Function *F = M->function("f");
  const AssignStmt *A = nullptr;
  for (BasicBlock *B : F->blocks())
    for (Stmt *S : B->stmts())
      if (auto *AS = dyn_cast<AssignStmt>(S))
        A = AS;
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->src()->type().pointerDepth(), 2);
}

TEST(Parser, OperatorPrecedence) {
  // a + b * c < d && e  parses as ((a + (b*c)) < d) && e.
  auto M = parseOK(R"(
    bool f(int a, int b, int c, int d, bool e) {
      return a + b * c < d && e;
    })");
  EXPECT_EQ(verifyModule(*M).size(), 0u);
}

TEST(Parser, SourceLocationsPointAtStatements) {
  auto M = parseOK("void f(int *p) {\n  free(p);\n}");
  Function *F = M->function("f");
  const CallStmt *Call = nullptr;
  for (BasicBlock *B : F->blocks())
    for (Stmt *S : B->stmts())
      if (auto *C = dyn_cast<CallStmt>(S))
        Call = C;
  ASSERT_NE(Call, nullptr);
  EXPECT_EQ(Call->loc().Line, 2u);
}

TEST(Parser, BlockScopingShadowsOuter) {
  auto M = parseOK(R"(
    int f() {
      int x = 1;
      { int y = 2; x = y; }
      return x;
    })");
  EXPECT_EQ(verifyModule(*M).size(), 0u);
}

//===--- Error cases -------------------------------------------------------===

std::vector<Diag> parseErr(std::string_view Src) {
  Module M;
  std::vector<Diag> Diags;
  bool OK = parseModule(Src, M, Diags);
  EXPECT_FALSE(OK);
  return Diags;
}

TEST(ParserErrors, UndeclaredVariable) {
  auto Diags = parseErr("int f() { return zork; }");
  ASSERT_FALSE(Diags.empty());
  EXPECT_NE(Diags[0].Msg.find("undeclared"), std::string::npos);
}

TEST(ParserErrors, Redeclaration) {
  auto Diags = parseErr("void f() { int x = 0; int x = 1; }");
  ASSERT_FALSE(Diags.empty());
  EXPECT_NE(Diags[0].Msg.find("redeclaration"), std::string::npos);
}

TEST(ParserErrors, OverDereference) {
  auto Diags = parseErr("int f(int *p) { return **p; }");
  ASSERT_FALSE(Diags.empty());
  EXPECT_NE(Diags[0].Msg.find("dereference"), std::string::npos);
}

TEST(ParserErrors, ReturnValueFromVoid) {
  auto Diags = parseErr("void f() { return 1; }");
  ASSERT_FALSE(Diags.empty());
}

TEST(ParserErrors, DuplicateFunction) {
  auto Diags = parseErr("void f() {} void f() {}");
  ASSERT_FALSE(Diags.empty());
  EXPECT_NE(Diags[0].Msg.find("redefinition"), std::string::npos);
}

TEST(ParserErrors, UnterminatedBlock) {
  auto Diags = parseErr("void f() { int x = 1; ");
  ASSERT_FALSE(Diags.empty());
}

TEST(ParserErrors, TooFewArguments) {
  auto Diags = parseErr("void setq(int *a, int **pp) { *pp = a; }\n"
                        "int main() { int *x = malloc(); setq(x); return 0; }");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Msg,
            "call to 'setq' passes 1 argument(s), but it takes 2");
  EXPECT_EQ(Diags[0].Loc.Line, 2u);
}

TEST(ParserErrors, TooManyArguments) {
  // A call to a function defined later is checked against its signature
  // too.
  auto Diags = parseErr("int main() { int *x = malloc(); return f(x, x, x); }\n"
                        "int f(int *a) { return *a; }");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Msg, "call to 'f' passes 3 argument(s), but it takes 1");
}

//===----------------------------------------------------------------------===
// Nesting-depth cap (run-lifecycle resilience: adversarial input must be
// diagnosed, never allowed to overflow the recursive-descent stack)
//===----------------------------------------------------------------------===

std::string nestedParens(int N, const std::string &Core) {
  std::string E(N, '(');
  E += Core;
  E += std::string(N, ')');
  return "int f(int a) { return " + E + "; }";
}

std::string nestedBlocks(int N) {
  std::string S = "void f() { int x = 0; ";
  for (int I = 0; I < N; ++I)
    S += "if (x < 1) { ";
  S += "x = 1; ";
  S += std::string(N, '}');
  S += " }";
  return S;
}

TEST(ParserDepth, DeepParensDiagnosedNotCrashed) {
  // 5000 levels would overflow the parse stack without the cap; with it,
  // the parser reports a diagnostic and returns.
  auto Diags = parseErr(nestedParens(5000, "a"));
  ASSERT_FALSE(Diags.empty());
  EXPECT_NE(Diags[0].Msg.find("nesting too deep"), std::string::npos);
}

TEST(ParserDepth, DeepUnaryDiagnosedNotCrashed) {
  std::string E(5000, '!');
  auto Diags =
      parseErr("int f(int a) { return " + E + "(a < 1); }");
  ASSERT_FALSE(Diags.empty());
  EXPECT_NE(Diags[0].Msg.find("nesting too deep"), std::string::npos);
}

TEST(ParserDepth, DeepBlocksDiagnosedNotCrashed) {
  auto Diags = parseErr(nestedBlocks(5000));
  ASSERT_FALSE(Diags.empty());
  EXPECT_NE(Diags[0].Msg.find("nesting too deep"), std::string::npos);
}

TEST(ParserDepth, ShallowNestingStillParses) {
  // Well under the cap (each paren level costs two recursion frames):
  // legitimate code is unaffected.
  Module M1;
  std::vector<Diag> D1;
  EXPECT_TRUE(parseModule(nestedParens(40, "a"), M1, D1)) << nestedParens(40, "a");
  EXPECT_TRUE(D1.empty());

  Module M2;
  std::vector<Diag> D2;
  EXPECT_TRUE(parseModule(nestedBlocks(50), M2, D2));
  EXPECT_TRUE(D2.empty());
}

} // namespace
} // namespace pinpoint::frontend
