//===- pta/Memory.cpp --------------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "pta/Memory.h"

namespace pinpoint::pta {

MemObject *MemObjectTable::allocObject(const ir::CallStmt *Site,
                                       ir::Type ContentTy) {
  MemObject *&Slot = Allocs[Site->parent()->parent()->stmtOrder(Site)];
  if (!Slot)
    Slot = Mem.allocObject<MemObject>(MemObject(NumObjects++, ContentTy));
  return Slot;
}

MemObject *MemObjectTable::rootObject(const ir::Variable *Root, int Level) {
  assert(Level >= 1 && Root->type().pointerDepth() >= Level &&
         "over-deep access path");
  std::vector<MemObject *> &Levels = Roots[Root->id()];
  if (Levels.empty())
    Levels.resize(Root->type().pointerDepth(), nullptr);
  MemObject *&Slot = Levels[Level - 1];
  if (!Slot)
    Slot = Mem.allocObject<MemObject>(
        MemObject(NumObjects++, Root, Level, Root->type().deref(Level)));
  return Slot;
}

} // namespace pinpoint::pta
