//===- pta/Memory.h - Abstract memory objects ------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract memory objects for the intra-procedural points-to analysis:
///
///  * `Alloc` — one cell per malloc() call site;
///  * `Root`  — the non-local location reached by the access path
///    `*(root, level)`. When `root` is a formal parameter these are the
///    locations whose REF/MOD status drives the connector transformation
///    (paper Definition 3.1); when it is an opaque call receiver they model
///    callee-returned memory soundily.
///
/// Contents of objects are `ContentVal`s: either a real IR value or the
/// object's *initial* value (what the location held at function entry) —
/// the thing the connector transform later materialises as an Aux formal
/// parameter.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_PTA_MEMORY_H
#define PINPOINT_PTA_MEMORY_H

#include "ir/IR.h"
#include "smt/Expr.h"
#include "support/Arena.h"

#include <vector>

namespace pinpoint::pta {

/// An abstract memory object.
class MemObject {
public:
  enum Kind : uint8_t { Alloc, Root };

  Kind kind() const { return TheKind; }

  /// Creation order within the function's `MemObjectTable`: the order in
  /// which the analysis walks objects.
  uint32_t id() const { return Id; }

  /// Root: the pointer variable the access path is rooted at.
  const ir::Variable *root() const {
    assert(TheKind == Root);
    return RootVar;
  }
  /// Root: the dereference level (k in *(p,k)).
  int level() const {
    assert(TheKind == Root);
    return Level;
  }

  /// True when this is `*(param, k)` for a formal parameter — the objects
  /// that participate in Mod/Ref and the connector transform.
  bool isParamPath() const {
    return TheKind == Root && RootVar->isParam() && !RootVar->isAuxParam();
  }

  /// The static type of values stored in this object.
  ir::Type contentType() const { return ContentTy; }

private:
  friend class MemObjectTable;
  MemObject(uint32_t Id, ir::Type ContentTy)
      : TheKind(Alloc), Id(Id), ContentTy(ContentTy) {}
  MemObject(uint32_t Id, const ir::Variable *RootVar, int Level,
            ir::Type ContentTy)
      : TheKind(Root), Id(Id), RootVar(RootVar), Level(Level),
        ContentTy(ContentTy) {}

  Kind TheKind;
  uint32_t Id;
  const ir::Variable *RootVar = nullptr;
  int Level = 0;
  ir::Type ContentTy = ir::Type::intTy();
};

/// The memory objects of one analysed function, owned by its arena and
/// numbered in creation order; looked up by the malloc call's statement
/// number, or by the root variable's id and the level.
class MemObjectTable {
public:
  explicit MemObjectTable(const ir::Function &F)
      : Allocs(F.stmtOrderBound(), nullptr), Roots(F.vars().size()) {}

  MemObject *allocObject(const ir::CallStmt *Site, ir::Type ContentTy);
  MemObject *rootObject(const ir::Variable *Root, int Level);

private:
  Arena Mem;
  uint32_t NumObjects = 0;
  std::vector<MemObject *> Allocs;
  std::vector<std::vector<MemObject *>> Roots; ///< [variable id][level - 1]
};

/// A value possibly held in memory: a real IR value, or the initial value
/// of an object (null IR value).
struct ContentVal {
  const ir::Value *V = nullptr; ///< Null means "initial value of Origin".
  const MemObject *Origin = nullptr; ///< Set when V is null.

  bool isInitial() const { return V == nullptr; }
  bool operator==(const ContentVal &O) const {
    return V == O.V && Origin == O.Origin;
  }
};

/// A conditional points-to / content entry.
template <typename T> struct CondEntry {
  T Item;
  const smt::Expr *Cond;
};

using PtsSet = std::vector<CondEntry<const MemObject *>>;
using ValSet = std::vector<CondEntry<ContentVal>>;

} // namespace pinpoint::pta

#endif // PINPOINT_PTA_MEMORY_H
