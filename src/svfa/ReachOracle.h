//===- svfa/ReachOracle.h - CFG reachability with topological pruning -----===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-function CFG reachability oracle: can control reach statement B
/// strictly after statement A? Used by temporal checkers (use-after-free)
/// to order source events before sink uses.
///
/// Two layers, both exact:
///
///  1. Statement order answers most queries O(1): `Function::stmtOrder` is
///     a reverse-post-order numbering from the entry, and subject CFGs are
///     acyclic (loops unroll at lowering; the verifier rejects cycles), so
///     every CFG path leads to larger numbers — a target numbered below
///     the source is unreachable without touching a bitset.
///
///  2. Only forward cross-block queries fall through to the bitset DFS —
///     and its rows are built lazily, one row per *queried* source block,
///     so functions whose events never consult the oracle (or consult it
///     from few blocks) never pay the O(B^2/8) matrix. Row builds count
///     into the `svfa.lazy-reach-rows` stat.
///
/// Construction itself is lazy too: the row table is sized at the first
/// query that needs a row, not when the oracle object is made — a
/// non-temporal checker (or a function whose queries statement order
/// answers alone) never pays it. Builds count into
/// `svfa.reach-oracles-built`. Rows and bits are indexed by block id.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SVFA_REACHORACLE_H
#define PINPOINT_SVFA_REACHORACLE_H

#include "ir/IR.h"

#include <cstdint>
#include <vector>

namespace pinpoint::svfa {

class ReachOracle {
public:
  explicit ReachOracle(const ir::Function &F) : F(F) {}

  /// True when control can reach \p B strictly after \p A. Not const: the
  /// first query from a block materialises that block's row (the engine's
  /// candidate generation is serial, so no locking is needed).
  bool reaches(const ir::Stmt *A, const ir::Stmt *B);

private:
  void buildRow(const ir::BasicBlock *From);

  const ir::Function &F;
  /// One bitset row per *queried* source block, indexed by block id; the
  /// table is sized at the first query that needs a row, and an empty row
  /// is one not built yet.
  std::vector<std::vector<uint64_t>> Rows;
};

} // namespace pinpoint::svfa

#endif // PINPOINT_SVFA_REACHORACLE_H
