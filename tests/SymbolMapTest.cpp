//===- tests/SymbolMapTest.cpp - The lock-free symbol table ---------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// ir::SymbolMap takes no lock: a first use publishes its symbol by CAS on a
// slot indexed by the variable's module-wide id. These tests pin what the
// pipeline and the checkers rely on: one symbol per variable under
// concurrent first uses, symbol ids in first-use order, independent maps
// over one module, and checked errors instead of aliasing or overflow.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "ir/Conditions.h"
#include "ir/SSA.h"
#include "support/SlotTable.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace pinpoint::ir {
namespace {

std::unique_ptr<Module> parseSSA(std::string_view Src) {
  auto M = std::make_unique<Module>();
  std::vector<frontend::Diag> Diags;
  bool OK = frontend::parseModule(Src, *M, Diags);
  for (auto &D : Diags)
    ADD_FAILURE() << D.str();
  EXPECT_TRUE(OK);
  for (Function *F : M->functions()) {
    F->recomputeCFGEdges();
    constructSSA(*F);
  }
  return M;
}

/// \p N functions with bool, int and pointer variables, phis included.
std::string wideSubject(int N) {
  std::string Src;
  for (int I = 0; I < N; ++I) {
    std::string K = std::to_string(I);
    Src += "int f" + K + "(int *p, int a, bool t) {\n"
           "  int x = a + " + K + ";\n"
           "  bool c = a > " + K + ";\n"
           "  if (c) { x = x + 1; }\n"
           "  if (t) { x = *p; } else { x = x - 1; }\n"
           "  return x;\n"
           "}\n";
  }
  return Src;
}

/// Every variable of \p M, indexed by `Variable::globalId()`.
std::vector<const Variable *> varsById(const Module &M) {
  size_t N = 0;
  for (const Function *F : M.functions())
    N += F->vars().size();
  std::vector<const Variable *> Vars(N, nullptr);
  for (const Function *F : M.functions())
    for (const Variable *V : F->vars()) {
      if (V->globalId() >= N) {
        ADD_FAILURE() << "module-wide id past the variable count";
        continue;
      }
      EXPECT_EQ(Vars[V->globalId()], nullptr) << "duplicate module-wide id";
      Vars[V->globalId()] = V;
    }
  for (const Variable *V : Vars)
    EXPECT_NE(V, nullptr) << "module-wide ids are not dense";
  return Vars;
}

bool isSymbolicVar(const smt::Expr *E) {
  return E->kind() == smt::ExprKind::BoolVar ||
         E->kind() == smt::ExprKind::IntVar;
}

TEST(SymbolMapTest, ConcurrentFirstUsesMintOneSymbolPerVariable) {
  auto M = parseSSA(wideSubject(64));
  ASSERT_GE(M->functions().size(), 50u);
  const std::vector<const Variable *> Vars = varsById(*M);

  // Eight orders that overlap closely: one shuffle of all variables, then
  // each thread reshuffles it within windows of 8, so the threads reach
  // most variables at about the same time and race on their first use.
  constexpr unsigned Threads = 8;
  std::vector<const Variable *> Base = Vars;
  std::shuffle(Base.begin(), Base.end(), std::mt19937(20261018));
  std::vector<std::vector<const Variable *>> Orders(Threads, Base);
  for (unsigned T = 0; T < Threads; ++T) {
    std::mt19937 Rng(T + 1);
    for (size_t I = 0; I < Base.size(); I += 8)
      std::shuffle(Orders[T].begin() + I,
                   Orders[T].begin() + std::min(I + 8, Base.size()), Rng);
  }

  // A few rounds, each over a fresh map, so that some first uses race.
  for (int Round = 0; Round < 4; ++Round) {
    smt::ExprContext Ctx;
    SymbolMap Syms(*M, Ctx);
    // Per thread, per module-wide id: the symbol it got, and (odd
    // threads) the IR variable irVar returned for it.
    std::vector<std::vector<const smt::Expr *>> Got(
        Threads, std::vector<const smt::Expr *>(Vars.size(), nullptr));
    std::vector<std::vector<const Variable *>> Back(
        Threads, std::vector<const Variable *>(Vars.size(), nullptr));
    std::atomic<unsigned> Arrived{0};
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T < Threads; ++T)
      Pool.emplace_back([&, T] {
        Arrived.fetch_add(1);
        while (Arrived.load() < Threads)
          std::this_thread::yield();
        for (const Variable *V : Orders[T]) {
          const smt::Expr *E = Syms[V];
          Got[T][V->globalId()] = E;
          if (T % 2)
            Back[T][V->globalId()] = Syms.irVar(E->varId());
        }
      });
    for (std::thread &Th : Pool)
      Th.join();

    std::vector<const Variable *> OwnerOfSym(Ctx.numVars(), nullptr);
    for (const Variable *V : Vars) {
      const uint32_t G = V->globalId();
      const smt::Expr *E = Got[0][G];
      ASSERT_NE(E, nullptr);
      for (unsigned T = 1; T < Threads; ++T)
        ASSERT_EQ(Got[T][G], E) << "two symbols for " << V->parent()->name()
                                << "::" << V->name() << " in round " << Round;
      for (unsigned T = 1; T < Threads; T += 2)
        EXPECT_EQ(Back[T][G], V);
      EXPECT_EQ(Syms[V], E);
      EXPECT_EQ(Syms.irVar(E->varId()), V);
      ASSERT_TRUE(isSymbolicVar(E));
      EXPECT_EQ(E->isBool(), V->type().isBool());
      ASSERT_LT(E->varId(), OwnerOfSym.size());
      EXPECT_EQ(OwnerOfSym[E->varId()], nullptr)
          << "one symbol, two variables";
      OwnerOfSym[E->varId()] = V;
    }
  }
}

TEST(SymbolMapTest, TwoMapsOverOneModuleStayIndependent) {
  auto M = parseSSA("int f(int a, bool t) { int x = a; if (t) { x = 1; } "
                    "return x; }\n"
                    "int g(int *p, int b) { return b; }");
  const std::vector<const Variable *> Vars = varsById(*M);
  const Function *G = M->function("g");

  // Two contexts: B's context mints an unrelated variable first, and B
  // symbolises only g, so each map sees symbol ids the other minted.
  smt::ExprContext CtxA, CtxB;
  const uint32_t Unrelated = CtxB.freshIntVar()->varId();
  SymbolMap A(*M, CtxA), B(*M, CtxB);
  for (const Variable *V : Vars)
    EXPECT_EQ(A.irVar(A[V]->varId()), V);
  for (const Variable *V : G->vars())
    EXPECT_EQ(B.irVar(B[V]->varId()), V);
  EXPECT_EQ(B.irVar(Unrelated), nullptr);
  for (uint32_t Id = CtxB.numVars(); Id < CtxA.numVars(); ++Id) {
    EXPECT_NE(A.irVar(Id), nullptr);
    EXPECT_EQ(B.irVar(Id), nullptr) << "id " << Id << " was never minted";
  }
  EXPECT_EQ(A.irVar(CtxA.numVars()), nullptr);

  // A second map on A's context (a re-analysis over an already symbolised
  // function): fresh symbols, and neither map resolves the other's.
  SymbolMap C(*M, CtxA);
  for (const Variable *V : Vars) {
    const smt::Expr *EA = A[V], *EC = C[V];
    EXPECT_NE(EA, EC);
    EXPECT_EQ(C.irVar(EC->varId()), V);
    EXPECT_EQ(A.irVar(EC->varId()), nullptr);
    EXPECT_EQ(C.irVar(EA->varId()), nullptr);
  }
}

TEST(SymbolMapTest, SymbolIdsFollowFirstUseOrder) {
  auto M = parseSSA("int f(int a, int b, bool c) { return a; }");
  const std::vector<Variable *> &P = M->function("f")->params();
  smt::ExprContext Ctx;
  const uint32_t Base = Ctx.numVars();
  SymbolMap Syms(*M, Ctx);
  std::vector<uint32_t> Ids;
  for (const Variable *V : {P[2], P[0], P[2], P[1]})
    Ids.push_back(Syms[V]->varId());
  EXPECT_EQ(Ids, (std::vector<uint32_t>{Base, Base + 1, Base, Base + 2}));
  EXPECT_EQ(Ctx.numVars(), Base + 3);
}

TEST(SymbolMapTest, VariableOfAnotherModuleIsRejected) {
  auto M1 = parseSSA("int f(int a) { return a; }");
  auto M2 = parseSSA("int g(int b) { return b; }");
  smt::ExprContext Ctx;
  SymbolMap Syms(*M1, Ctx);
  // Both parameters have module-wide id 0.
  const Variable *A = M1->function("f")->params()[0];
  const Variable *B = M2->function("g")->params()[0];
  ASSERT_EQ(A->globalId(), B->globalId());
  const smt::Expr *EA = Syms[A];
  EXPECT_THROW(Syms[B], std::invalid_argument);
  EXPECT_EQ(Syms[A], EA);
  EXPECT_EQ(Syms.irVar(EA->varId()), A);
}

TEST(AtomicSlotTable, IdPastCapacityIsChecked) {
  using Table = AtomicSlotTable<int>;
  Table T;
  int X = 1, Y = 2;
  EXPECT_EQ(T.get(5), nullptr);
  std::atomic<int *> &S5 = T.slot(5);
  S5.store(&X);
  // The last id touches another chunk; S5 does not move.
  T.slot(Table::Capacity - 1).store(&Y);
  EXPECT_EQ(&T.slot(5), &S5);
  EXPECT_EQ(T.get(5), &X);
  EXPECT_EQ(T.get(Table::Capacity - 1), &Y);
  EXPECT_EQ(T.get(4), nullptr);
  EXPECT_EQ(T.get(Table::Capacity), nullptr);
  EXPECT_THROW(T.slot(Table::Capacity), std::length_error);
  EXPECT_THROW(T.slot(SIZE_MAX), std::length_error);
  static_assert(Table::Capacity == size_t(1) << 28);
}

} // namespace
} // namespace pinpoint::ir
