//===- transform/Connectors.h - The connector model (paper Fig. 3) --------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The semantic-preserving function transformation of Section 3.1.2. For
/// each function the Mod/Ref results of the local points-to analysis are
/// materialised on the interface:
///
///  * every REF'd access path *(p, k) rooted at a formal parameter becomes
///    an **Aux formal parameter** F with an entry store `*(p,k) ← F`;
///  * every MOD'd access path *(q, r) becomes an **Aux return value** R with
///    a pre-return load `R ← *(q,r)` appended to the return bundle;
///  * call sites of transformed callees get the mirrored plumbing:
///    `A ← *(u,k)` loads before the call (passed as extra arguments) and
///    `*(u,r) ← C` stores of the extra receivers after it (Fig. 3(b)).
///
/// These input/output connectors are what lets values of interest flow in
/// and out of a function scope on demand, instead of cloning MOD/REF
/// summaries into every caller.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_TRANSFORM_CONNECTORS_H
#define PINPOINT_TRANSFORM_CONNECTORS_H

#include "ir/CallGraph.h"
#include "ir/IR.h"
#include "pta/PointsTo.h"

#include <vector>

namespace pinpoint::transform {

/// The connector interface of a transformed function.
struct FunctionInterface {
  /// REF'd access paths, ordered by (parameter index, level); parallel to
  /// AuxParams.
  std::vector<pta::ParamPath> RefPaths;
  std::vector<ir::Variable *> AuxParams; ///< The F_i.

  /// MOD'd access paths, same ordering; parallel to AuxReturns and to the
  /// extra entries of the return bundle.
  std::vector<pta::ParamPath> ModPaths;
  std::vector<ir::Variable *> AuxReturns; ///< The R_p.

  /// Bindings for the second points-to pass: F_i ↦ *(root, level).
  pta::AuxBindings auxBindings() const {
    pta::AuxBindings Out;
    for (size_t I = 0; I < RefPaths.size(); ++I)
      Out[AuxParams[I]] = {RefPaths[I].first, RefPaths[I].second};
    return Out;
  }
};

/// Completed `FunctionInterface`s, one slot per function, indexed by
/// `Function::id()` and pre-sized so concurrent pipeline tasks never resize
/// shared storage. A slot stays empty (no connectors) until its function's
/// task fills it, exactly once. Cross-thread visibility is the scheduler's
/// obligation: a caller's task only starts after all its callee tasks
/// finished (the dependency-count decrement is an acquire/release edge),
/// so no per-slot synchronisation is needed.
using InterfaceMap = std::vector<FunctionInterface>;

/// Applies Fig. 3(a) to \p F (already in SSA): adds Aux formal parameters
/// and Aux return values for the REF/MOD sets in \p PTA, inserting the
/// entry stores and exit loads. Returns the new interface.
FunctionInterface applyInterfaceTransform(ir::Function &F,
                                          const pta::PointsToResult &PTA);

/// Replay overload for the incremental summary cache: applies the exact same
/// transform from pre-resolved path lists instead of a points-to result.
/// Both lists must already be in the canonical (parameter index, level)
/// order — the cache stores them in the order the original transform
/// produced, so a cached function's replayed IR is bit-identical to the
/// from-scratch build.
FunctionInterface
applyInterfaceTransform(ir::Function &F, std::vector<pta::ParamPath> RefPaths,
                        std::vector<pta::ParamPath> ModPaths);

/// Applies Fig. 3(b) to every call in \p F whose callee has an interface in
/// \p Interfaces. Intra-SCC (recursive) calls are left untouched — the
/// paper unrolls call-graph cycles once. Returns the number of rewritten
/// call sites.
unsigned rewriteCallSites(ir::Function &F, const ir::CallGraph &CG,
                          const InterfaceMap &Interfaces);

} // namespace pinpoint::transform

#endif // PINPOINT_TRANSFORM_CONNECTORS_H
