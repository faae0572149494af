//===- svfa/Context.cpp ------------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "svfa/Context.h"

using namespace pinpoint::ir;

namespace pinpoint::svfa {

const Context *ContextTable::push(const Context *Parent,
                                  const CallStmt *Site) {
  auto Key = std::make_pair(Parent, Site);
  auto It = Interned.find(Key);
  if (It != Interned.end())
    return It->second.get();
  auto C = std::make_unique<Context>();
  C->Parent = Parent;
  C->Site = Site;
  C->Depth = depth(Parent) + 1;
  C->Id = NextId++;
  const Context *Raw = C.get();
  Interned.emplace(Key, std::move(C));
  return Raw;
}

const smt::Expr *ContextTable::mappedVar(const smt::Expr *Var,
                                         const Function *Callee,
                                         const Context *C) {
  const uint64_t Key = static_cast<uint64_t>(C->Id) << 32 | Var->varId();
  if (const smt::Expr *const *Known = Clones.find(Key))
    return *Known;

  const smt::Expr *Repl = nullptr;
  const Variable *IRVar = Syms.irVar(Var->varId());

  // Formal parameter of the callee: map to the caller-side symbol of the
  // actual argument (Equation (3)'s vi@si = M(vi@si)).
  if (IRVar && IRVar->parent() == Callee && IRVar->isParam() && C->Site &&
      static_cast<size_t>(IRVar->paramIndex()) < C->Site->args().size()) {
    const Value *Actual = C->Site->args()[IRVar->paramIndex()];
    const Function *Caller = C->Site->parent()->parent();
    Repl = symbolIn(Actual, Caller, C->Parent);
    // Coerce to the formal's sort (e.g. boolean formal, constant actual).
    Repl = Var->isBool() ? Ctx.toBoolExpr(Repl) : Ctx.toIntExpr(Repl);
  } else {
    // Any other variable: α-rename into this context.
    Repl = Var->isBool() ? Ctx.freshBoolVar() : Ctx.freshIntVar();
  }
  Clones.insert(Key, Repl);
  return Repl;
}

const smt::Expr *ContextTable::instantiate(const smt::Expr *E,
                                           const Function *Callee,
                                           const Context *C) {
  if (!C)
    return E; // Top context: identity.
  // A leaf is its own rewrite. This is also the only way mappedVar ->
  // symbolIn re-enters (a symbol is a leaf), so Vars and Scratch below are
  // never in use twice.
  if (E->numOperands() == 0)
    return E->isVar() ? mappedVar(E, Callee, C) : E;
  Vars.clear();
  Ctx.collectVars(E, Vars);
  if (Vars.empty())
    return E;
  Scratch.clearVars();
  for (const smt::Expr *V : Vars)
    Scratch.mapVar(V->varId(), mappedVar(V, Callee, C));
  return Ctx.substitute(E, Scratch);
}

const smt::Expr *ContextTable::symbolIn(const Value *V,
                                        const Function *Owner,
                                        const Context *C) {
  const smt::Expr *Sym = Syms[V];
  if (!C || isa<Constant>(V))
    return Sym;
  return instantiate(Sym, Owner, C);
}

} // namespace pinpoint::svfa
