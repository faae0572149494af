//===- seg/SEGPrinter.cpp -----------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "seg/SEGPrinter.h"

#include <sstream>
#include <vector>

using namespace pinpoint::ir;

namespace pinpoint::seg {

namespace {

/// Escapes a label for dot.
std::string escape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (C == '\n') {
      Out += "\\l";
      continue;
    }
    Out += C;
  }
  return Out;
}

} // namespace

std::string printCFG(const Function &F) {
  std::ostringstream OS;
  OS << "digraph \"CFG." << F.name() << "\" {\n"
     << "  node [shape=box, fontname=\"monospace\"];\n";
  for (const BasicBlock *B : F.blocks()) {
    std::string Label = B->name() + ":\\l";
    for (const Stmt *S : B->stmts())
      Label += "  " + S->str() + "\\l";
    OS << "  \"" << B->name() << "\" [label=\"" << escape(Label) << "\"];\n";
    for (const BasicBlock *Succ : B->succs())
      OS << "  \"" << B->name() << "\" -> \"" << Succ->name() << "\";\n";
  }
  OS << "}\n";
  return OS.str();
}

std::string printSEG(const SEG &G) {
  const Function &F = G.function();
  std::ostringstream OS;
  OS << "digraph \"SEG." << F.name() << "\" {\n"
     << "  rankdir=LR;\n"
     << "  node [shape=ellipse, fontname=\"monospace\"];\n";

  // Emit each variable once, with flow edges carrying condition labels.
  std::vector<uint8_t> Emitted(F.vars().size(), 0);
  auto node = [&](const Variable *V) {
    if (!Emitted[V->id()]) {
      Emitted[V->id()] = 1;
      const char *Shape = V->isParam()
                              ? (V->isAuxParam() ? "doublecircle" : "diamond")
                              : "ellipse";
      OS << "  \"" << V->name() << "\" [shape=" << Shape << "];\n";
    }
  };

  for (const BasicBlock *B : F.blocks())
    for (const Stmt *S : B->stmts())
      if (const Variable *D = S->definedVar())
        node(D);
  for (const Variable *P : F.params())
    node(P);

  // Walk flow edges from the vertices emitted so far, in id order
  // (snapshot: every flow target is itself a defined variable or
  // parameter, so this is complete).
  std::vector<const Variable *> Snapshot;
  for (const Variable *V : F.vars())
    if (Emitted[V->id()])
      Snapshot.push_back(V);
  for (const Variable *V : Snapshot) {
    for (const FlowEdge &E : G.flowsOut(V)) {
      node(E.To);
      OS << "  \"" << V->name() << "\" -> \"" << E.To->name() << "\"";
      std::string Attr;
      if (!E.Cond->isTrue()) {
        // Conditions need the symbol table to print; keep labels short.
        Attr += "label=\"[cond]\"";
      }
      if (!E.Direct)
        Attr += std::string(Attr.empty() ? "" : ", ") + "style=dashed";
      if (!Attr.empty())
        OS << " [" << Attr << "]";
      OS << ";\n";
    }
  }
  OS << "}\n";
  return OS.str();
}

} // namespace pinpoint::seg
