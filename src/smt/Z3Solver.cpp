//===- smt/Z3Solver.cpp - Z3 backend ---------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translates the interned Expr DAG into Z3 ASTs (via the C API) and asks Z3
/// for satisfiability — the same backend the paper's implementation uses.
/// Translation is memoised per node so shared subformulas are translated
/// once.
///
/// Each backend instance keeps one incremental Z3 solver for its lifetime
/// and brackets every query in push/pop. The staged design (paper §3.1.1)
/// only sends the backend small QF_LIA path conditions, and on those the
/// solving is the cheap part: a fresh default solver (Z3's combined solver)
/// probes the logic and builds its tactic pipeline on every first check,
/// ≈11 ms per trivial query against ≈0.07 ms for the solve itself. The
/// plain SMT core (`Z3_mk_simple_solver`) skips that pipeline, and reusing
/// one across queries also skips solver construction (DESIGN.md §11 has the
/// per-call costs). The context's `timeout` parameter bounds every check.
///
/// The context itself is made on the first query, not at construction.
/// Every checker's engine owns a backend, most engines never send it a
/// query (the linear filter or a missing event decides everything), and a
/// context with its solver costs a few milliseconds and tens of megabytes.
///
//===----------------------------------------------------------------------===//

#include "smt/Solver.h"

#if PINPOINT_HAS_Z3

#include <cassert>
#include <string>
#include <unordered_map>
#include <vector>
#include <z3.h>

namespace pinpoint::smt {
namespace {

class Z3Solver : public Solver {
public:
  explicit Z3Solver(const SolverConfig &SC) : TimeoutMs(SC.TimeoutMs) {}

  ~Z3Solver() override {
    if (!Z)
      return; // Never queried: nothing was made.
    Z3_solver_dec_ref(Z, S);
    Z3_del_context(Z);
  }
  Z3Solver(const Z3Solver &) = delete;
  Z3Solver &operator=(const Z3Solver &) = delete;

  SatResult checkSat(const Expr *E) override {
    if (!Z)
      open();
    // Translate before opening the scope, for two reasons. The memo's
    // allocations may throw, and a scope left open would keep this query's
    // assertion under every later query, turning their answers into false
    // Unsats. And Z3 documents that, in a context from Z3_mk_context, an AST
    // made inside a scope is not valid past its pop; the memo keeps ASTs
    // across queries, so they are all made at scope level 0.
    Z3_ast A = translate(E);
    Z3_solver_push(Z, S);
    Z3_solver_assert(Z, S, A);
    Z3_lbool R = Z3_solver_check(Z, S);
    Z3_solver_pop(Z, S, 1);
    assert(Z3_solver_get_num_scopes(Z, S) == 0 && "query scope outlived it");
    if (R == Z3_L_TRUE)
      return SatResult::Sat;
    if (R == Z3_L_FALSE)
      return SatResult::Unsat;
    return SatResult::Unknown;
  }

  const char *name() const override { return "z3"; }

private:
  /// Makes the context, the sorts and the one solver: the first query's
  /// set-up.
  void open() {
    Z3_config Cfg = Z3_mk_config();
    // Per-query timeout in ms. Z3 applies no limit while `timeout` is unset,
    // which is what a non-positive budget means.
    if (TimeoutMs > 0)
      Z3_set_param_value(Cfg, "timeout", std::to_string(TimeoutMs).c_str());
    Z = Z3_mk_context(Cfg);
    Z3_del_config(Cfg);
    IntSort = Z3_mk_int_sort(Z);
    BoolSort = Z3_mk_bool_sort(Z);
    S = Z3_mk_simple_solver(Z);
    Z3_solver_inc_ref(Z, S);
  }

  Z3_ast translate(const Expr *E) {
    auto It = Memo.find(E);
    if (It != Memo.end())
      return It->second;

    // Iterative post-order; condition DAGs can be deep.
    std::vector<std::pair<const Expr *, bool>> Stack{{E, false}};
    while (!Stack.empty()) {
      auto [Cur, Visited] = Stack.back();
      Stack.pop_back();
      if (Memo.count(Cur))
        continue;
      if (!Visited) {
        Stack.push_back({Cur, true});
        for (const Expr *Op : Cur->operands())
          if (!Memo.count(Op))
            Stack.push_back({Op, false});
        continue;
      }
      Memo[Cur] = translateNode(Cur);
    }
    return Memo[E];
  }

  Z3_ast translateNode(const Expr *E) {
    auto Op = [&](unsigned I) { return Memo[E->operand(I)]; };
    switch (E->kind()) {
    case ExprKind::True:
      return Z3_mk_true(Z);
    case ExprKind::False:
      return Z3_mk_false(Z);
    case ExprKind::BoolVar:
    case ExprKind::IntVar:
      // A variable is its id and its sort is its kind. Z3 takes integer
      // symbols below 2^30; SymbolMap's reverse table throws at 2^28.
      assert(E->varId() < (1u << 30) && "variable id past Z3's int symbols");
      return Z3_mk_const(Z, Z3_mk_int_symbol(Z, static_cast<int>(E->varId())),
                         E->isBool() ? BoolSort : IntSort);
    case ExprKind::IntConst:
      return Z3_mk_int64(Z, E->constValue(), IntSort);
    case ExprKind::Not:
      return Z3_mk_not(Z, Op(0));
    case ExprKind::And: {
      Z3_ast Args[2] = {Op(0), Op(1)};
      return Z3_mk_and(Z, 2, Args);
    }
    case ExprKind::Or: {
      Z3_ast Args[2] = {Op(0), Op(1)};
      return Z3_mk_or(Z, 2, Args);
    }
    case ExprKind::Eq:
      return Z3_mk_eq(Z, Op(0), Op(1));
    case ExprKind::Ne:
      return Z3_mk_not(Z, Z3_mk_eq(Z, Op(0), Op(1)));
    case ExprKind::Lt:
      return Z3_mk_lt(Z, Op(0), Op(1));
    case ExprKind::Le:
      return Z3_mk_le(Z, Op(0), Op(1));
    case ExprKind::Gt:
      return Z3_mk_gt(Z, Op(0), Op(1));
    case ExprKind::Ge:
      return Z3_mk_ge(Z, Op(0), Op(1));
    case ExprKind::Add: {
      Z3_ast Args[2] = {Op(0), Op(1)};
      return Z3_mk_add(Z, 2, Args);
    }
    case ExprKind::Sub: {
      Z3_ast Args[2] = {Op(0), Op(1)};
      return Z3_mk_sub(Z, 2, Args);
    }
    case ExprKind::Mul: {
      Z3_ast Args[2] = {Op(0), Op(1)};
      return Z3_mk_mul(Z, 2, Args);
    }
    case ExprKind::Neg:
      return Z3_mk_unary_minus(Z, Op(0));
    case ExprKind::Ite:
      return Z3_mk_ite(Z, Op(0), Op(1), Op(2));
    }
    return Z3_mk_true(Z); // Unreachable; all kinds covered.
  }

  int TimeoutMs;
  Z3_context Z = nullptr; ///< Null until the first query.
  Z3_solver S = nullptr;  ///< The one solver; no scope is open between queries.
  Z3_sort IntSort = nullptr, BoolSort = nullptr;
  std::unordered_map<const Expr *, Z3_ast> Memo;
};

} // namespace

std::unique_ptr<Solver> createZ3Solver(ExprContext &,
                                       const SolverConfig &Cfg) {
  return std::make_unique<Z3Solver>(Cfg);
}

} // namespace pinpoint::smt

#else // !PINPOINT_HAS_Z3

namespace pinpoint::smt {
std::unique_ptr<Solver> createZ3Solver(ExprContext &, const SolverConfig &) {
  return nullptr;
}
} // namespace pinpoint::smt

#endif
