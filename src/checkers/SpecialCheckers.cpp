//===- checkers/SpecialCheckers.cpp ------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "checkers/SpecialCheckers.h"

#include <vector>

using namespace pinpoint::ir;

namespace pinpoint::checkers {

CheckerSpec nullDerefChecker() {
  CheckerSpec S;
  S.Name = "null-deref";
  S.NullConstIsSource = true;
  S.SourceRetFns = {"maybe_alloc", "find_entry", "lookup"};
  S.DerefIsSink = true;
  S.TemporalOrder = true;
  S.FlowThroughOperators = false;
  return S;
}

std::vector<svfa::Report> checkMemoryLeaks(svfa::AnalyzedModule &AM) {
  std::vector<svfa::Report> Out;

  for (const Function *F : AM.bottomUpOrder()) {
    if (!AM.info(F).Seg)
      continue; // Pipeline-degraded function: nothing to scan.
    seg::SEG &Seg = *AM.info(F).Seg;
    for (const CallStmt *Call : Seg.calls()) {
      if (Call->calleeName() != intrinsics::Malloc || !Call->receiver())
        continue;

      // Closure of the allocated value over direct flow edges.
      std::vector<uint8_t> InClosure(F->vars().size(), 0);
      InClosure[Call->receiver()->id()] = 1;
      std::vector<const Variable *> Work{Call->receiver()};
      bool Consumed = false;
      while (!Work.empty() && !Consumed) {
        const Variable *V = Work.back();
        Work.pop_back();
        for (const seg::Use &U : Seg.usesOf(V)) {
          switch (U.Kind) {
          case seg::UseKind::CallArg:
            // Freed, or escapes into a callee that may keep it.
            Consumed = true;
            break;
          case seg::UseKind::RetVal:
            Consumed = true; // Ownership handed to the caller.
            break;
          case seg::UseKind::StoreVal:
            Consumed = true; // Stored into memory that may outlive us.
            break;
          default:
            break; // Local deref/compare: not a consumption.
          }
          if (Consumed)
            break;
        }
        if (Consumed)
          break;
        for (const seg::FlowEdge &E : Seg.flowsOut(V))
          if (E.Direct && !InClosure[E.To->id()]) {
            InClosure[E.To->id()] = 1;
            Work.push_back(E.To);
          }
      }

      if (!Consumed) {
        svfa::Report R;
        R.Checker = "memory-leak";
        R.SourceFn = F->name();
        R.Source = Call->loc();
        R.Sink = F->exitBlock() && F->exitBlock()->terminator()
                     ? F->exitBlock()->terminator()->loc()
                     : Call->loc();
        R.SinkFn = F->name();
        R.Path = {"allocated at " + F->name() + ":" + Call->loc().str(),
                  "never freed, returned, stored, or passed on"};
        Out.push_back(std::move(R));
      }
    }
  }
  return Out;
}

} // namespace pinpoint::checkers
