//===- ir/CallGraph.h - Call graph with bottom-up ordering -----------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The module call graph, kept as its condensation. Pinpoint's whole
/// pipeline is bottom-up (callees before callers); recursion cycles are
/// collapsed into SCCs and, matching the paper's soundiness choice of
/// unrolling call-graph cycles once, intra-SCC call edges are treated as
/// opaque by the analyses. Nothing after construction asks for a
/// function's callers or callees, so neither list is kept.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_IR_CALLGRAPH_H
#define PINPOINT_IR_CALLGRAPH_H

#include "ir/IR.h"
#include "support/Span.h"

#include <cstdint>
#include <vector>

namespace pinpoint::ir {

/// The bottom-up order, each function's SCC id and, per SCC, its members
/// and distinct callee SCCs. A call's resolved target is
/// `CallStmt::callee()`, which the constructor sets. Every table here is
/// indexed by `Function::id()` or SCC id, and every list follows function
/// ids, so the bottom-up order, the SCC ids and everything derived from
/// them depend on the program text only.
class CallGraph {
public:
  explicit CallGraph(Module &M);

  /// Functions in bottom-up order: every (non-SCC) callee precedes its
  /// callers; members of one SCC appear consecutively.
  const std::vector<Function *> &bottomUpOrder() const { return BottomUp; }

  /// True if \p A and \p B belong to the same (recursion) SCC.
  bool inSameSCC(const Function *A, const Function *B) const {
    return SCCIndex[A->id()] == SCCIndex[B->id()];
  }

  size_t numSCCs() const { return SCCs.size(); }

  /// One node of the call-graph condensation (the DAG the parallel
  /// scheduler walks). SCC ids are Tarjan completion order, which is
  /// topological: every cross-SCC callee has a smaller id than its caller,
  /// so iterating SCCs by id with `Members` in order replays exactly
  /// `bottomUpOrder()`. Tarjan starts from the functions in id order and
  /// walks callees in id order. `Members` is the SCC's run of
  /// `bottomUpOrder()`; the callee rows are frozen into the graph's arena
  /// at construction (the condensation is immutable once built), packed
  /// the same way as the SEG's CSR rows, and their bytes show up in the
  /// `cg.csr-bytes` counter.
  struct SCCNode {
    Span<Function *> Members;   ///< In bottom-up (stack pop) order.
    Span<uint32_t> CalleeSCCs;  ///< Distinct cross-SCC callee ids, sorted.
  };

  /// The condensation, indexed by SCC id.
  const std::vector<SCCNode> &sccs() const { return SCCs; }
  size_t sccOf(const Function *F) const { return SCCIndex[F->id()]; }

private:
  /// Resolved callees per function id, distinct and in id order.
  using CalleeRows = std::vector<std::vector<Function *>>;

  void tarjan(const Module &M, const CalleeRows &Callees);
  void buildCalleeSCCs(const CalleeRows &Callees);

  std::vector<Function *> BottomUp;
  std::vector<uint32_t> SCCIndex;
  std::vector<SCCNode> SCCs;
  /// Backs the frozen CalleeSCCs arrays. Not reported to the MemStats arena
  /// ledger: condensation bytes are tracked via the cg.csr-bytes counter.
  Arena Mem{/*Reported=*/false};
};

} // namespace pinpoint::ir

#endif // PINPOINT_IR_CALLGRAPH_H
