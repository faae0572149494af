//===- ir/CallGraph.cpp ------------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ir/CallGraph.h"
#include "support/Statistics.h"

#include <algorithm>

namespace pinpoint::ir {

CallGraph::CallGraph(Module &M) {
  CalleeRows Callees(M.functions().size());
  for (Function *F : M.functions())
    for (BasicBlock *B : F->blocks())
      for (Stmt *S : B->stmts())
        if (auto *Call = dyn_cast<CallStmt>(S)) {
          Function *Callee = M.function(Call->calleeName());
          Call->setCallee(Callee);
          if (Callee)
            Callees[F->id()].push_back(Callee);
        }
  // Callees are appended in call order; Tarjan walks them distinct and in
  // id order.
  for (std::vector<Function *> &Row : Callees) {
    std::sort(Row.begin(), Row.end(), [](const Function *A, const Function *B) {
      return A->id() < B->id();
    });
    Row.erase(std::unique(Row.begin(), Row.end()), Row.end());
  }

  tarjan(M, Callees);
  buildCalleeSCCs(Callees);
}

void CallGraph::buildCalleeSCCs(const CalleeRows &Callees) {
  // Gather in transient per-SCC vectors, then freeze into arena-backed
  // arrays: the condensation never changes after construction, and packed
  // rows drop the per-vector header/capacity overhead of node-per-entry
  // storage for the many singleton SCCs of typical subjects.
  const size_t NumSCCs = SCCs.size();
  std::vector<std::vector<uint32_t>> CalleeIds(NumSCCs);
  for (Function *F : BottomUp) {
    uint32_t Id = SCCIndex[F->id()];
    for (Function *C : Callees[F->id()]) {
      uint32_t CalleeId = SCCIndex[C->id()];
      if (CalleeId != Id)
        CalleeIds[Id].push_back(CalleeId);
    }
  }

  for (size_t I = 0; I < NumSCCs; ++I) {
    std::vector<uint32_t> &CS = CalleeIds[I];
    std::sort(CS.begin(), CS.end());
    CS.erase(std::unique(CS.begin(), CS.end()), CS.end());
    uint32_t *CRow = Mem.allocArray<uint32_t>(CS.size());
    if (CRow)
      std::copy(CS.begin(), CS.end(), CRow);
    SCCs[I].CalleeSCCs = Span<uint32_t>(CRow, CS.size());
  }
  Counters::get().add("cg.csr-bytes", static_cast<int64_t>(Mem.bytesUsed()));
}

void CallGraph::tarjan(const Module &M, const CalleeRows &Callees) {
  // Iterative Tarjan (call chains can be deeper than the stack), started
  // from each unvisited function in id order. The stack-pop order yields
  // bottom-up (callees first); SCCs are numbered as they complete, and
  // each one's members are the run of BottomUp it appends. BottomUp never
  // reallocates, so those runs are its Members spans.
  const size_t N = M.functions().size();
  BottomUp.reserve(N);
  constexpr uint32_t Unvisited = UINT32_MAX;
  std::vector<uint32_t> Index(N, Unvisited), Low(N, 0);
  std::vector<uint8_t> OnStack(N, 0);
  std::vector<Function *> Stack;
  uint32_t NextIndex = 0;
  SCCIndex.assign(N, 0);

  struct Frame {
    Function *F;
    uint32_t Next; ///< Position in F's callee row.
  };
  std::vector<Frame> Frames;
  auto push = [&](Function *G) {
    Index[G->id()] = Low[G->id()] = NextIndex++;
    Stack.push_back(G);
    OnStack[G->id()] = 1;
    Frames.push_back({G, 0});
  };

  for (Function *Root : M.functions()) {
    if (Index[Root->id()] != Unvisited)
      continue;
    push(Root);
    while (!Frames.empty()) {
      Frame &Top = Frames.back();
      const uint32_t Id = Top.F->id();
      const std::vector<Function *> &Row = Callees[Id];
      if (Top.Next < Row.size()) {
        Function *Next = Row[Top.Next++];
        if (Index[Next->id()] == Unvisited)
          push(Next);
        else if (OnStack[Next->id()])
          Low[Id] = std::min(Low[Id], Index[Next->id()]);
        continue;
      }
      // Finished Top.F.
      Frames.pop_back();
      if (!Frames.empty()) {
        uint32_t &ParentLow = Low[Frames.back().F->id()];
        ParentLow = std::min(ParentLow, Low[Id]);
      }
      if (Low[Id] != Index[Id])
        continue;
      const uint32_t SCC = static_cast<uint32_t>(SCCs.size());
      const size_t First = BottomUp.size();
      while (true) {
        Function *Member = Stack.back();
        Stack.pop_back();
        OnStack[Member->id()] = 0;
        SCCIndex[Member->id()] = SCC;
        BottomUp.push_back(Member);
        if (Member->id() == Id)
          break;
      }
      SCCs.push_back({Span<Function *>(BottomUp.data() + First,
                                       BottomUp.size() - First),
                      {}});
    }
  }
}

} // namespace pinpoint::ir
