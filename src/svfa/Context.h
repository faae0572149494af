//===- svfa/Context.h - Calling contexts & constraint instantiation -------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cloning-based context sensitivity (paper Section 3.3.1(2)): when a
/// callee's constraints are used at a call site they are α-renamed into a
/// fresh variable space per calling context, with the callee's formal
/// parameters mapped to the caller-side symbols of the actual arguments —
/// exactly the bold "constraints from the callee" parts of Equations (2)
/// and (3).
///
/// Calling contexts form an interned chain of call sites, bounded by the
/// engine's depth limit (six nested calls in the paper's evaluation).
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SVFA_CONTEXT_H
#define PINPOINT_SVFA_CONTEXT_H

#include "ir/Conditions.h"
#include "ir/IR.h"
#include "smt/Expr.h"
#include "support/FlatMap.h"

#include <map>
#include <vector>

namespace pinpoint::svfa {

/// A calling context: a chain of call sites. The null context is the
/// top level (the function currently being analysed).
struct Context {
  const Context *Parent = nullptr;
  const ir::CallStmt *Site = nullptr;
  int Depth = 0;
  uint32_t Id = 0;
};

/// Interns contexts and instantiates callee expressions into caller ones.
class ContextTable {
public:
  ContextTable(smt::ExprContext &Ctx, ir::SymbolMap &Syms)
      : Ctx(Ctx), Syms(Syms) {}

  /// The top-level (identity) context.
  const Context *top() { return nullptr; }

  /// Extends \p Parent with \p Site.
  const Context *push(const Context *Parent, const ir::CallStmt *Site);

  static int depth(const Context *C) { return C ? C->Depth : 0; }

  /// Rewrites \p E (an expression over the callee's symbols) into \p C:
  /// callee formal parameters become the caller-side symbols of the actual
  /// arguments (themselves instantiated into the parent context); all other
  /// variables get fresh clones, cached per (context, variable).
  /// \p Callee is the function the expression belongs to. Two phases, in
  /// this order: map the variables in id order (which mints the clones),
  /// then rewrite \p E bottom-up; both reuse the table's one scratch.
  const smt::Expr *instantiate(const smt::Expr *E, const ir::Function *Callee,
                               const Context *C);

  /// The symbol of \p V as seen under context \p C (clone or actual-param
  /// mapping applied). For the top context this is just the symbol.
  const smt::Expr *symbolIn(const ir::Value *V, const ir::Function *Owner,
                            const Context *C);

private:
  /// The image of variable node \p Var under \p C (see instantiate).
  const smt::Expr *mappedVar(const smt::Expr *Var, const ir::Function *Callee,
                             const Context *C);

  smt::ExprContext &Ctx;
  ir::SymbolMap &Syms;
  std::map<std::pair<const Context *, const ir::CallStmt *>,
           std::unique_ptr<Context>>
      Interned;
  struct KeyHash {
    uint64_t operator()(uint64_t K) const { return K; }
  };
  /// Clone cache: (context id << 32 | symbolic var id) -> replacement
  /// expression. Context ids start at 1, so no key is the empty key 0.
  FlatMap<uint64_t, const smt::Expr *, KeyHash> Clones;
  /// instantiate()'s working memory (it explains why one copy suffices).
  std::vector<const smt::Expr *> Vars;
  smt::SubstScratch Scratch;
  uint32_t NextId = 1;
};

} // namespace pinpoint::svfa

#endif // PINPOINT_SVFA_CONTEXT_H
