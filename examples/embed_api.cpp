//===- examples/embed_api.cpp - Layer-by-layer tour of the library ---------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Uses each layer of the library directly instead of the one-call
/// checkModule facade: the constraint DAG and solvers, the frontend and
/// SSA, the quasi path-sensitive points-to analysis, the connector
/// interfaces, and SEG constraint queries. This is the embedding guide for
/// building new analyses on top of the substrate.
///
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "ir/SSA.h"
#include "smt/LinearSolver.h"
#include "smt/Solver.h"
#include "svfa/Pipeline.h"

#include <cstdio>

using namespace pinpoint;

int main() {
  //===--- Layer 1: the constraint DAG + staged solving -------------------===
  smt::ExprContext Ctx;
  const smt::Expr *T = Ctx.freshBoolVar("theta");
  const smt::Expr *X = Ctx.freshIntVar("x");
  const smt::Expr *Easy = Ctx.mkAnd(T, Ctx.mkNot(T)); // folds to false
  const smt::Expr *Hard =
      Ctx.mkAnd(Ctx.mkCmp(smt::ExprKind::Gt, X, Ctx.getInt(5)),
                Ctx.mkCmp(smt::ExprKind::Lt, X, Ctx.getInt(2)));

  smt::LinearSolver Linear(Ctx);
  smt::StagedSolver Solver(Ctx, smt::createDefaultSolver(Ctx));
  std::printf("layer 1 (smt): easy contradiction folds to '%s'; "
              "hard one is %s by the backend\n",
              Ctx.toString(Easy).c_str(),
              smt::toString(Solver.checkSat(Hard)));

  //===--- Layer 2: frontend + SSA ----------------------------------------===
  const char *Source = R"(
    int pick(int *p, int *q, bool sel) {
      int **cell = malloc();
      *cell = p;
      if (sel) {
        *cell = q;
      }
      int *chosen = *cell;
      return *chosen;
    }
  )";
  ir::Module M;
  std::vector<frontend::Diag> Diags;
  if (!frontend::parseModule(Source, M, Diags))
    return 1;
  std::printf("layer 2 (ir): parsed %zu function(s)\n",
              M.functions().size());

  //===--- Layer 3: the full pipeline (PTA, connectors, SEG) --------------===
  svfa::AnalyzedModule AM(M, Ctx);
  ir::Function *F = M.function("pick");
  const auto &Info = AM.info(F);

  // Quasi path-sensitive points-to: the load *cell sees {q under sel,
  // p under !sel}. The pipeline folds these dependences into the SEG and
  // keeps no points-to result, so the final pass re-runs here with the
  // function's connector bindings.
  pta::PTAConfig Cfg;
  Cfg.AuxParams = Info.Interface.auxBindings();
  pta::PointsToResult PTA =
      pta::runPointsTo(*F, AM.symbols(), *Info.Conds, Cfg);
  const ir::LoadStmt *Load = nullptr;
  for (ir::BasicBlock *B : F->blocks())
    for (ir::Stmt *S : B->stmts())
      if (auto *L = dyn_cast<ir::LoadStmt>(S))
        if (L->derefs() == 1 && !L->isSynthetic() && !Load)
          Load = L; // First real load: the read of *cell.
  std::printf("layer 3 (pta): the load of *cell may observe:\n");
  for (const auto &[CV, Cond] : PTA.loadDeps(Load))
    std::printf("   %s under %s\n",
                CV.isInitial() ? "<initial>" : CV.V->str().c_str(),
                Ctx.toString(Cond).c_str());

  // Connector interface: pick REFs *(p,1)/*(q,1) through the deref of the
  // chosen pointer.
  std::printf("layer 3 (connectors): %zu aux param(s), %zu aux return(s)\n",
              Info.Interface.RefPaths.size(),
              Info.Interface.ModPaths.size());

  //===--- Layer 4: SEG constraint queries --------------------------------===
  // DD closure of the returned value: its symbolic definition chain,
  // with the function's parameters left open (Example 3.7 of the paper).
  const ir::ReturnStmt *Ret = F->returnStmt();
  const auto *RetVal = dyn_cast<ir::Variable>(Ret->values()[0]);
  const seg::Closure &DD = Info.Seg->dd(RetVal);
  std::printf("layer 4 (seg): DD(retval) has %zu open parameter(s); "
              "constraint size %u node(s)\n",
              DD.OpenParams.size(), DD.C->id());
  return 0;
}
