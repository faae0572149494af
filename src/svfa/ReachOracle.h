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
/// Construction itself is lazy too: the block index is built at the first
/// query that needs a row, not when the oracle object is made — a
/// non-temporal checker (or a function whose queries statement order
/// answers alone) never pays it. Builds count into
/// `svfa.reach-oracles-built`.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SVFA_REACHORACLE_H
#define PINPOINT_SVFA_REACHORACLE_H

#include "ir/IR.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace pinpoint::svfa {

class ReachOracle {
public:
  explicit ReachOracle(const ir::Function &F);

  /// True when control can reach \p B strictly after \p A. Not const: the
  /// first query from a block materialises that block's row (the engine's
  /// candidate generation is serial, so no locking is needed).
  bool reaches(const ir::Stmt *A, const ir::Stmt *B);

private:
  /// Runs the deferred block indexing on the first query that needs a row.
  void ensureBuilt();
  void buildRow(uint32_t Row);

  bool Built = false;
  const ir::Function &F;
  std::unordered_map<const ir::BasicBlock *, uint32_t> Index;
  /// One bitset row per *queried* source block; unqueried rows stay
  /// unallocated.
  std::vector<std::vector<uint64_t>> Rows;
  std::vector<uint8_t> RowBuilt; ///< Which rows are materialised.
  size_t Words = 0;              ///< Words per row.
};

} // namespace pinpoint::svfa

#endif // PINPOINT_SVFA_REACHORACLE_H
