//===- ir/CallGraph.h - Call graph with bottom-up ordering -----------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The module call graph. Pinpoint's whole pipeline is bottom-up (callees
/// before callers); recursion cycles are collapsed into SCCs and, matching
/// the paper's soundiness choice of unrolling call-graph cycles once,
/// intra-SCC call edges are treated as opaque by the analyses.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_IR_CALLGRAPH_H
#define PINPOINT_IR_CALLGRAPH_H

#include "ir/IR.h"
#include "support/Span.h"

#include <cstdint>
#include <map>
#include <set>
#include <vector>

namespace pinpoint::ir {

class CallGraph {
public:
  explicit CallGraph(Module &M);

  /// Resolved callees of \p F (unresolved externals are not listed).
  const std::set<Function *> &callees(Function *F) const {
    return Callees.at(F);
  }
  const std::set<Function *> &callers(Function *F) const {
    return Callers.at(F);
  }

  /// Functions in bottom-up order: every (non-SCC) callee precedes its
  /// callers; members of one SCC appear consecutively.
  const std::vector<Function *> &bottomUpOrder() const { return BottomUp; }

  /// True if \p A and \p B belong to the same (recursion) SCC.
  bool inSameSCC(const Function *A, const Function *B) const {
    return SCCIndex.at(const_cast<Function *>(A)) ==
           SCCIndex.at(const_cast<Function *>(B));
  }

  size_t numSCCs() const { return NumSCCs; }

  /// One node of the call-graph condensation (the DAG the parallel
  /// scheduler walks). SCC ids are Tarjan completion order, which is
  /// topological: every cross-SCC callee has a smaller id than its caller,
  /// so iterating SCCs by id with `Members` in order replays exactly
  /// `bottomUpOrder()`. The membership and adjacency arrays are frozen
  /// into the graph's arena at construction (the condensation is immutable
  /// once built), packed the same way as the SEG's CSR rows; their bytes
  /// show up in the `cg.csr-bytes` counter.
  struct SCCNode {
    Span<Function *> Members;   ///< In bottom-up (stack pop) order.
    Span<uint32_t> CalleeSCCs;  ///< Distinct cross-SCC callee ids, sorted.
  };

  /// The condensation, indexed by SCC id.
  const std::vector<SCCNode> &sccs() const { return SCCs; }
  size_t sccOf(const Function *F) const {
    return SCCIndex.at(const_cast<Function *>(F));
  }

private:
  void tarjan(Function *F);
  void buildCondensation();

  std::map<Function *, std::set<Function *>> Callees, Callers;
  std::vector<Function *> BottomUp;
  std::map<Function *, size_t> SCCIndex;
  std::vector<SCCNode> SCCs;
  size_t NumSCCs = 0;
  /// Backs the frozen SCCNode arrays. Not reported to the MemStats arena
  /// ledger: condensation bytes are tracked via the cg.csr-bytes counter.
  Arena Mem{/*Reported=*/false};

  // Tarjan state.
  std::map<Function *, int> Index, Low;
  std::vector<Function *> Stack;
  std::set<Function *> OnStack;
  int NextIndex = 0;
};

} // namespace pinpoint::ir

#endif // PINPOINT_IR_CALLGRAPH_H
