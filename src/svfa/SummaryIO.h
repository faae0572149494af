//===- svfa/SummaryIO.h - Pipeline artifacts ⇄ cache payloads -------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialises one function's per-function pipeline artifacts for the
/// persistent summary cache, and replays them on a cache hit. What is
/// stored is exactly the pipeline state the two points-to passes produce
/// and everything downstream consumes:
///
///  * the connector interface as (parameter index, level) access paths —
///    replayed through the same `applyInterfaceTransform`, so the function
///    IR after a hit is bit-identical to a from-scratch build;
///  * the per-load data dependences (the SEG's only points-to input):
///    value + condition per entry, with conditions stored as a
///    topologically-ordered expression-node table whose variables are
///    references to IR variables (symbolic ids are allocation-order
///    dependent and never serialised);
///  * the deterministic degradation facts (points-to truncation), replayed
///    into the governor log so a warm run's log matches a cold run's.
///
/// Decoding is split in two: `decodeFunctionSummary` +
/// `validateSummary` are pure (the function IR is untouched, so any
/// failure falls back to a clean full rebuild), while
/// `replayFunctionSummary` mutates the function and throws on residual
/// mismatches — the pipeline's per-function isolation catch turns that into
/// the standard conservative fallback.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SVFA_SUMMARYIO_H
#define PINPOINT_SVFA_SUMMARYIO_H

#include "ir/Conditions.h"
#include "ir/IR.h"
#include "pta/PointsTo.h"
#include "transform/Connectors.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pinpoint::svfa {

/// A decoded cache payload: structurally validated, not yet resolved
/// against live IR.
struct FunctionSummaryEntry {
  /// Replay a PTATruncated degradation note (a deterministic consequence of
  /// the configured step budget, so it is cacheable).
  bool NoteTruncated = false;

  /// Access paths as (original parameter index, deref level).
  std::vector<std::pair<uint32_t, uint32_t>> RefPaths, ModPaths;

  /// Loads in the fully-transformed function, for replay validation.
  uint32_t NumLoads = 0;

  struct ExprNode {
    uint8_t Kind; ///< smt::ExprKind.
    uint32_t VarId = 0;  ///< BoolVar/IntVar: function-local IR variable id.
    std::string VarName; ///< BoolVar/IntVar: IR variable name (validation).
    int64_t Const = 0;   ///< IntConst.
    std::vector<uint32_t> Ops; ///< Operand node indices (strictly smaller).
  };
  std::vector<ExprNode> Nodes;

  struct DepVal {
    uint8_t Tag; ///< 1=variable, 2=int const, 3=bool const, 4=null const.
    uint32_t VarId = 0;
    std::string VarName;
    int64_t IntVal = 0;
    uint8_t PtrDepth = 0;
    uint32_t CondIdx = 0; ///< Index into Nodes.
  };
  struct LoadEntry {
    uint32_t LoadIdx; ///< Position in block-order load enumeration.
    std::vector<DepVal> Vals;
  };
  std::vector<LoadEntry> Loads;
};

/// Encodes \p F's connector interface and points-to pass 2's result
/// \p Final (the function must be fully transformed). Returns false when
/// the artifacts are not representable — e.g. a load-dep condition
/// mentions a symbolic variable with no IR backing — in which case the
/// function is simply not cached.
bool encodeFunctionSummary(const ir::Function &F,
                           const transform::FunctionInterface &Interface,
                           const pta::PointsToResult &Final,
                           const ir::SymbolMap &Syms, bool NoteTruncated,
                           std::vector<uint8_t> &Out);

/// Decodes \p Payload. Returns false (with \p Err) on malformed bytes.
bool decodeFunctionSummary(const std::vector<uint8_t> &Payload,
                           FunctionSummaryEntry &Out, std::string &Err);

/// Pure structural validation against the *untransformed* \p F: path
/// indices name original parameters with sufficient pointer depth, node
/// kinds and arities are sound, operand references are topological.
/// Returns false (with \p Err) when the entry cannot be replayed; \p F is
/// never touched.
bool validateSummary(const FunctionSummaryEntry &E, const ir::Function &F,
                     std::string &Err);

/// Replays \p E onto \p F (call-site rewriting must already have run):
/// applies the interface transform and rebuilds the per-load dependences
/// with their conditions, which is all the SEG reads. Throws
/// std::runtime_error on a residual mismatch (stale-but-key-matching entry,
/// i.e. a hash collision).
void replayFunctionSummary(ir::Function &F, const FunctionSummaryEntry &E,
                           ir::SymbolMap &Syms,
                           transform::FunctionInterface &InterfaceOut,
                           pta::LoadDepMap &LoadDepsOut);

} // namespace pinpoint::svfa

#endif // PINPOINT_SVFA_SUMMARYIO_H
