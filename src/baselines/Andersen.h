//===- baselines/Andersen.h - Global inclusion-based points-to ------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A whole-program, flow- and context-insensitive, inclusion-based
/// (Andersen-style) points-to analysis. This is the "independent global
/// points-to analysis" of the conventional *layered* SVFA design the paper
/// argues against (Figure 1): it is what our SVF-like FSVFG baseline builds
/// its value-flow graph from.
///
/// Field-insensitive object model: every abstract object has one contents
/// node. Multi-level loads/stores are desugared through temporary nodes.
/// Pointer parameters of every function are seeded with outside-world
/// objects so the analysis is sound for library-style modules.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_BASELINES_ANDERSEN_H
#define PINPOINT_BASELINES_ANDERSEN_H

#include "ir/IR.h"

#include <cstdint>
#include <map>
#include <set>
#include <vector>

namespace pinpoint::baselines {

/// Node ids in the constraint graph.
using NodeId = uint32_t;

class Andersen {
public:
  struct Budget {
    uint64_t MaxIterations = UINT64_MAX; ///< Propagation work units before bail-out.
    Budget() {}
    explicit Budget(uint64_t Max) : MaxIterations(Max) {}
  };

  explicit Andersen(ir::Module &M, Budget B = {});

  /// Runs to fixpoint (or budget). Returns false when the budget was hit.
  bool solve();

  /// Points-to set of a variable (object node ids).
  const std::set<NodeId> &pointsTo(const ir::Variable *V) const;

  /// True when two pointers may alias (points-to sets intersect).
  bool mayAlias(const ir::Variable *A, const ir::Variable *B) const;

  /// The contents node of an object (for clients chasing indirection).
  NodeId contentsOf(NodeId Obj) const { return Contents[Obj]; }

  size_t numNodes() const { return NumNodes; }
  uint64_t iterations() const { return Iterations; }
  /// Total points-to set cardinality (memory proxy).
  size_t totalPtsSize() const;

private:
  NodeId varNode(const ir::Variable *V);
  NodeId valueNode(const ir::Value *V);
  NodeId newObject();
  /// Ensures a chain of outside-world objects for a pointer of depth D.
  void seedOutsideWorld(NodeId Node, int Depth);
  void addCopy(NodeId From, NodeId To);
  void generateConstraints(ir::Module &M);

  struct ComplexConstraint {
    enum Kind : uint8_t { Load, Store } K;
    NodeId Ptr;   ///< The dereferenced pointer node.
    NodeId Other; ///< Load: destination; Store: stored value.
  };

  ir::Module &M;
  Budget B;
  uint32_t NumNodes = 0;
  std::map<const ir::Variable *, NodeId> VarNodes;
  std::vector<NodeId> Contents; ///< Object -> contents node (0 if none).
  std::vector<bool> IsObject;
  std::vector<std::set<NodeId>> Pts;        ///< Per pointer node.
  std::vector<std::vector<NodeId>> Copies;  ///< Adjacency: copy edges.
  std::vector<ComplexConstraint> Complex;
  std::vector<std::vector<uint32_t>> ComplexOf; ///< Ptr node -> complex idx.
  uint64_t Iterations = 0;
  NodeId NullNode = 0;
  bool NullNodeValid = false;
  std::set<std::pair<NodeId, NodeId>> MaterialisedCopies;
  std::set<NodeId> Empty;
};

} // namespace pinpoint::baselines

#endif // PINPOINT_BASELINES_ANDERSEN_H
