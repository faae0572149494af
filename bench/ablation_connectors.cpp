//===- bench/ablation_connectors.cpp - Connector model vs summary cloning -===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quantifies Section 3.1.2's argument for the connector model: the
/// conventional approach clones each callee's MOD/REF summary into every
/// caller, so summary size compounds along call chains and "can quickly
/// explode"; connectors keep the side effects on the interface instead.
/// We compare, on one subject:
///
///  * connector cost — the number of Aux parameters/returns actually added;
///  * cloning cost — the size of the transitive MOD/REF summary that would
///    have been instantiated at every call site.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "svfa/Pipeline.h"

#include <map>

using namespace pinpoint;
using namespace pinpoint::bench;

int main() {
  double Scale = workload::benchScaleFromEnv(0.02);
  header("Ablation: connector model vs MOD/REF summary cloning",
         "Section 3.1.2 of PLDI'18 Pinpoint");

  workload::WorkloadConfig Cfg;
  Cfg.Seed = 0xC0;
  Cfg.TargetLoC = static_cast<size_t>(500 * 1000 * Scale);
  Cfg.FeasibleUAF = 4;
  Cfg.AliasNoise = static_cast<int>(Cfg.TargetLoC / 200);
  Cfg.CallDepth = 6;
  workload::Workload W = workload::generate(Cfg);
  auto M = parseWorkload(W);
  std::printf("subject: %zu generated LoC\n\n", W.LoC);

  smt::ExprContext Ctx;
  svfa::AnalyzedModule AM(*M, Ctx);

  // Connector cost: aux params + aux returns per function, plus the
  // mirrored plumbing at call sites (one load/store per connector per
  // site) — paid once, regardless of how deep the function sits.
  size_t ConnectorVars = 0, CallSitePlumbing = 0;
  // Cloning cost: summary-inlining instantiates each callee's transitive
  // MOD/REF summary on *every call path* (Saturn/Calysto style), so a
  // function inlined along N call paths pays N times. Computed top-down
  // over the acyclic call DAG as inline multiplicity x transitive size.
  std::map<const ir::Function *, double> TransitiveSummary;
  std::map<const ir::Function *, double> InlineCount;
  double CloningCost = 0;

  for (ir::Function *F : AM.bottomUpOrder()) {
    const auto &I = AM.interfaceOf(F);
    size_t Own = I.RefPaths.size() + I.ModPaths.size();
    ConnectorVars += Own;
    double Transitive = static_cast<double>(Own);
    for (ir::BasicBlock *B : F->blocks())
      for (ir::Stmt *S : B->stmts())
        if (auto *Call = dyn_cast<ir::CallStmt>(S))
          if (ir::Function *Callee = Call->callee()) {
            auto It = TransitiveSummary.find(Callee);
            if (It != TransitiveSummary.end()) {
              Transitive += It->second;
              const auto &CI = AM.interfaceOf(Callee);
              CallSitePlumbing += CI.RefPaths.size() + CI.ModPaths.size();
            }
          }
    TransitiveSummary[F] = Transitive;
  }
  // Inline multiplicity, top-down (callers before callees).
  const auto &Order = AM.bottomUpOrder();
  for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
    ir::Function *F = *It;
    double Count = std::max(1.0, InlineCount[F]);
    for (ir::BasicBlock *B : F->blocks())
      for (ir::Stmt *S : B->stmts())
        if (auto *Call = dyn_cast<ir::CallStmt>(S))
          if (ir::Function *Callee = Call->callee())
            InlineCount[Callee] += Count;
  }
  for (auto &[F, Count] : InlineCount)
    CloningCost += std::max(1.0, Count) * TransitiveSummary[F];

  std::printf("connector model : %zu aux interface variables, %zu call-site "
              "plumbing statements\n",
              ConnectorVars, CallSitePlumbing);
  std::printf("summary cloning : %.0f summary entries instantiated along "
              "call paths (inline multiplicity x transitive MOD/REF)\n",
              CloningCost);
  double Ratio = ConnectorVars + CallSitePlumbing
                     ? CloningCost / (ConnectorVars + CallSitePlumbing)
                     : 0;
  std::printf("cloning/connector cost ratio: %.1fx\n", Ratio);
  std::printf("\nPaper: side-effect summaries 'can quickly explode' when "
              "cloned into callers; connectors pay once per interface.\n");
  return 0;
}
