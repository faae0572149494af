//===- svfa/SummaryIO.cpp ----------------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "svfa/SummaryIO.h"
#include "support/Serializer.h"

#include <stdexcept>
#include <unordered_map>

using namespace pinpoint::ir;

namespace pinpoint::svfa {

namespace {

// DepVal tags.
constexpr uint8_t TagVariable = 1;
constexpr uint8_t TagIntConst = 2;
constexpr uint8_t TagBoolConst = 3;
constexpr uint8_t TagNullConst = 4;

constexpr uint8_t MaxExprKind = static_cast<uint8_t>(smt::ExprKind::Ite);

/// Loads of \p F in deterministic block/statement order. The same
/// enumeration runs at encode time (fully transformed F) and at replay time
/// (after call-site rewriting + interface replay), so indices line up.
std::vector<const LoadStmt *> loadsInOrder(const Function &F) {
  std::vector<const LoadStmt *> Out;
  for (const BasicBlock *B : F.blocks())
    for (const Stmt *S : B->stmts())
      if (const auto *L = dyn_cast<LoadStmt>(S))
        Out.push_back(L);
  return Out;
}

/// Post-order DFS over a condition DAG, assigning each distinct node an
/// index such that operands always precede their users.
class ExprTable {
public:
  explicit ExprTable(const ir::SymbolMap &Syms, const Function &F)
      : Syms(Syms), F(F) {}

  /// Returns the node index of \p E, or false if E (or a descendant) is not
  /// serialisable (a symbolic variable without IR backing in this function).
  bool add(const smt::Expr *E, uint32_t &IdxOut) {
    auto It = Index.find(E);
    if (It != Index.end()) {
      IdxOut = It->second;
      return true;
    }
    FunctionSummaryEntry::ExprNode N;
    N.Kind = static_cast<uint8_t>(E->kind());
    switch (E->kind()) {
    case smt::ExprKind::True:
    case smt::ExprKind::False:
      break;
    case smt::ExprKind::BoolVar:
    case smt::ExprKind::IntVar: {
      const Variable *V = Syms.irVar(E->varId());
      if (!V || V->parent() != &F)
        return false;
      N.VarId = V->id();
      N.VarName = V->name();
      break;
    }
    case smt::ExprKind::IntConst:
      N.Const = E->constValue();
      break;
    default:
      for (const smt::Expr *Op : E->operands()) {
        uint32_t OpIdx;
        if (!add(Op, OpIdx))
          return false;
        N.Ops.push_back(OpIdx);
      }
      break;
    }
    IdxOut = static_cast<uint32_t>(Nodes.size());
    Nodes.push_back(std::move(N));
    Index.emplace(E, IdxOut);
    return true;
  }

  std::vector<FunctionSummaryEntry::ExprNode> take() {
    return std::move(Nodes);
  }

private:
  const ir::SymbolMap &Syms;
  const Function &F;
  std::unordered_map<const smt::Expr *, uint32_t> Index;
  std::vector<FunctionSummaryEntry::ExprNode> Nodes;
};

unsigned expectedArity(smt::ExprKind K) {
  switch (K) {
  case smt::ExprKind::Not:
  case smt::ExprKind::Neg:
    return 1;
  case smt::ExprKind::Eq:
  case smt::ExprKind::Ne:
  case smt::ExprKind::Lt:
  case smt::ExprKind::Le:
  case smt::ExprKind::Gt:
  case smt::ExprKind::Ge:
  case smt::ExprKind::Add:
  case smt::ExprKind::Sub:
  case smt::ExprKind::Mul:
    return 2;
  case smt::ExprKind::Ite:
    return 3;
  default:
    return 0; // And/Or are n-ary, leaves are 0-ary; checked separately.
  }
}

} // namespace

bool encodeFunctionSummary(const Function &F,
                           const transform::FunctionInterface &Interface,
                           const pta::PointsToResult &Final,
                           const ir::SymbolMap &Syms, bool NoteTruncated,
                           std::vector<uint8_t> &Out) {
  std::vector<const LoadStmt *> Loads = loadsInOrder(F);

  // Pass 1: collect the load-dep entries and their condition DAGs.
  ExprTable Table(Syms, F);
  struct PendingVal {
    FunctionSummaryEntry::DepVal V;
  };
  std::vector<FunctionSummaryEntry::LoadEntry> Entries;
  for (uint32_t LI = 0; LI < Loads.size(); ++LI) {
    const pta::ValSet &Deps = Final.loadDeps(Loads[LI]);
    FunctionSummaryEntry::LoadEntry LE;
    LE.LoadIdx = LI;
    for (const auto &CE : Deps) {
      // Opaque initial-content entries reference per-run memory objects and
      // have no SEG consumer (SEG::build skips them); they are not stored.
      if (CE.Item.isInitial())
        continue;
      FunctionSummaryEntry::DepVal DV;
      if (const auto *Var = dyn_cast<Variable>(CE.Item.V)) {
        if (Var->parent() != &F)
          return false;
        DV.Tag = TagVariable;
        DV.VarId = Var->id();
        DV.VarName = Var->name();
      } else {
        const auto *C = cast<Constant>(CE.Item.V);
        if (C->isNull()) {
          DV.Tag = TagNullConst;
          DV.PtrDepth = static_cast<uint8_t>(C->type().pointerDepth());
        } else if (C->type().isBool()) {
          DV.Tag = TagBoolConst;
          DV.IntVal = C->value() != 0;
        } else {
          DV.Tag = TagIntConst;
          DV.IntVal = C->value();
        }
      }
      if (!Table.add(CE.Cond, DV.CondIdx))
        return false;
      LE.Vals.push_back(std::move(DV));
    }
    if (!LE.Vals.empty())
      Entries.push_back(std::move(LE));
  }
  std::vector<FunctionSummaryEntry::ExprNode> Nodes = Table.take();

  // Pass 2: serialise.
  ByteWriter W;
  W.boolean(NoteTruncated);
  W.boolean(Final.truncated());

  auto writePaths = [&](const std::vector<pta::ParamPath> &Paths) {
    W.u32(static_cast<uint32_t>(Paths.size()));
    for (const pta::ParamPath &P : Paths) {
      W.u32(static_cast<uint32_t>(P.first->paramIndex()));
      W.u32(static_cast<uint32_t>(P.second));
    }
  };
  writePaths(Interface.RefPaths);
  writePaths(Interface.ModPaths);

  W.u32(static_cast<uint32_t>(Loads.size()));

  W.u32(static_cast<uint32_t>(Nodes.size()));
  for (const auto &N : Nodes) {
    W.u8(N.Kind);
    switch (static_cast<smt::ExprKind>(N.Kind)) {
    case smt::ExprKind::True:
    case smt::ExprKind::False:
      break;
    case smt::ExprKind::BoolVar:
    case smt::ExprKind::IntVar:
      W.u32(N.VarId);
      W.str(N.VarName);
      break;
    case smt::ExprKind::IntConst:
      W.i64(N.Const);
      break;
    default:
      W.u32(static_cast<uint32_t>(N.Ops.size()));
      for (uint32_t Op : N.Ops)
        W.u32(Op);
      break;
    }
  }

  W.u32(static_cast<uint32_t>(Entries.size()));
  for (const auto &LE : Entries) {
    W.u32(LE.LoadIdx);
    W.u32(static_cast<uint32_t>(LE.Vals.size()));
    for (const auto &DV : LE.Vals) {
      W.u8(DV.Tag);
      switch (DV.Tag) {
      case TagVariable:
        W.u32(DV.VarId);
        W.str(DV.VarName);
        break;
      case TagIntConst:
      case TagBoolConst:
        W.i64(DV.IntVal);
        break;
      case TagNullConst:
        W.u8(DV.PtrDepth);
        break;
      }
      W.u32(DV.CondIdx);
    }
  }

  Out = W.take();
  return true;
}

bool decodeFunctionSummary(const std::vector<uint8_t> &Payload,
                           FunctionSummaryEntry &Out, std::string &Err) {
  try {
    ByteReader R(Payload);
    // A count is never trusted past the bytes left: each counted item
    // takes at least \p MinBytes, so a larger count is corrupt, never an
    // allocation.
    auto count = [&](size_t MinBytes, const char *What) {
      uint32_t N = R.u32();
      if (N > R.remaining() / MinBytes)
        throw SerializationError(std::string(What) +
                                 " count exceeds the payload");
      return N;
    };
    Out.NoteTruncated = R.boolean();
    // Pass 2's own truncation flag: part of the format, never replayed
    // (nothing downstream of the SEG reads it).
    (void)R.boolean();

    auto readPaths = [&](std::vector<std::pair<uint32_t, uint32_t>> &Paths) {
      uint32_t N = count(8, "access path");
      Paths.reserve(N);
      for (uint32_t I = 0; I < N; ++I) {
        uint32_t Idx = R.u32(), Level = R.u32();
        Paths.emplace_back(Idx, Level);
      }
    };
    readPaths(Out.RefPaths);
    readPaths(Out.ModPaths);

    Out.NumLoads = R.u32();

    uint32_t NumNodes = count(1, "expr node");
    Out.Nodes.reserve(NumNodes);
    for (uint32_t I = 0; I < NumNodes; ++I) {
      FunctionSummaryEntry::ExprNode N;
      N.Kind = R.u8();
      if (N.Kind > MaxExprKind) {
        Err = "invalid expr kind";
        return false;
      }
      switch (static_cast<smt::ExprKind>(N.Kind)) {
      case smt::ExprKind::True:
      case smt::ExprKind::False:
        break;
      case smt::ExprKind::BoolVar:
      case smt::ExprKind::IntVar:
        N.VarId = R.u32();
        N.VarName = R.str();
        break;
      case smt::ExprKind::IntConst:
        N.Const = R.i64();
        break;
      default: {
        uint32_t NumOps = count(4, "operand");
        N.Ops.reserve(NumOps);
        for (uint32_t J = 0; J < NumOps; ++J)
          N.Ops.push_back(R.u32());
        break;
      }
      }
      Out.Nodes.push_back(std::move(N));
    }

    uint32_t NumEntries = count(8, "load entry");
    Out.Loads.reserve(NumEntries);
    for (uint32_t I = 0; I < NumEntries; ++I) {
      FunctionSummaryEntry::LoadEntry LE;
      LE.LoadIdx = R.u32();
      // The smallest value is a null constant: tag, depth, condition.
      uint32_t NumVals = count(6, "dependence value");
      LE.Vals.reserve(NumVals);
      for (uint32_t J = 0; J < NumVals; ++J) {
        FunctionSummaryEntry::DepVal DV;
        DV.Tag = R.u8();
        switch (DV.Tag) {
        case TagVariable:
          DV.VarId = R.u32();
          DV.VarName = R.str();
          break;
        case TagIntConst:
        case TagBoolConst:
          DV.IntVal = R.i64();
          break;
        case TagNullConst:
          DV.PtrDepth = R.u8();
          break;
        default:
          Err = "invalid dep-value tag";
          return false;
        }
        DV.CondIdx = R.u32();
        LE.Vals.push_back(std::move(DV));
      }
      Out.Loads.push_back(std::move(LE));
    }

    if (!R.atEnd()) {
      Err = "trailing bytes";
      return false;
    }
    return true;
  } catch (const SerializationError &Ex) {
    Err = Ex.what();
    return false;
  }
}

bool validateSummary(const FunctionSummaryEntry &E, const Function &F,
                     std::string &Err) {
  auto checkPaths =
      [&](const std::vector<std::pair<uint32_t, uint32_t>> &Paths) {
        for (const auto &[Idx, Level] : Paths) {
          if (Idx >= F.numOriginalParams())
            return false;
          const Variable *P = F.params()[Idx];
          if (Level < 1 ||
              static_cast<uint32_t>(P->type().pointerDepth()) < Level)
            return false;
        }
        return true;
      };
  if (!checkPaths(E.RefPaths) || !checkPaths(E.ModPaths)) {
    Err = "interface path out of range";
    return false;
  }

  for (uint32_t I = 0; I < E.Nodes.size(); ++I) {
    const auto &N = E.Nodes[I];
    auto K = static_cast<smt::ExprKind>(N.Kind);
    unsigned Arity = expectedArity(K);
    bool Nary = K == smt::ExprKind::And || K == smt::ExprKind::Or;
    if (Nary ? N.Ops.size() < 2 : N.Ops.size() != Arity) {
      Err = "expr node arity mismatch";
      return false;
    }
    for (uint32_t Op : N.Ops)
      if (Op >= I) {
        Err = "non-topological expr operand";
        return false;
      }
  }

  for (const auto &LE : E.Loads) {
    if (LE.LoadIdx >= E.NumLoads) {
      Err = "load index out of range";
      return false;
    }
    for (const auto &DV : LE.Vals) {
      if (DV.CondIdx >= E.Nodes.size()) {
        Err = "condition index out of range";
        return false;
      }
      if (DV.Tag == TagNullConst && DV.PtrDepth < 1) {
        Err = "null constant without pointer depth";
        return false;
      }
    }
  }
  return true;
}

void replayFunctionSummary(Function &F, const FunctionSummaryEntry &E,
                           ir::SymbolMap &Syms,
                           transform::FunctionInterface &InterfaceOut,
                           pta::LoadDepMap &LoadDepsOut) {
  smt::ExprContext &Ctx = Syms.context();
  Module &M = *F.parent();

  auto resolvePaths =
      [&](const std::vector<std::pair<uint32_t, uint32_t>> &In) {
        std::vector<pta::ParamPath> Out;
        Out.reserve(In.size());
        for (const auto &[Idx, Level] : In)
          Out.emplace_back(F.params()[Idx], static_cast<int>(Level));
        return Out;
      };
  std::vector<pta::ParamPath> RefV = resolvePaths(E.RefPaths);
  std::vector<pta::ParamPath> ModV = resolvePaths(E.ModPaths);

  InterfaceOut = transform::applyInterfaceTransform(F, RefV, ModV);

  std::vector<const LoadStmt *> Loads = loadsInOrder(F);
  if (Loads.size() != E.NumLoads)
    throw std::runtime_error("summary replay: load count mismatch in " +
                             F.name());

  // Function-local variable resolution; ids are creation order and the
  // replayed transform re-creates aux variables in the original order, so
  // cached ids land on the same variables.
  auto resolveVar = [&](uint32_t Id, const std::string &Name) {
    if (Id >= F.vars().size() || F.vars()[Id]->name() != Name)
      throw std::runtime_error("summary replay: variable mismatch in " +
                               F.name());
    return F.vars()[Id];
  };

  // Rebuild the condition DAG bottom-up through the interning constructors.
  std::vector<const smt::Expr *> NodeExprs;
  NodeExprs.reserve(E.Nodes.size());
  for (const auto &N : E.Nodes) {
    auto K = static_cast<smt::ExprKind>(N.Kind);
    std::vector<const smt::Expr *> Ops;
    Ops.reserve(N.Ops.size());
    for (uint32_t Op : N.Ops)
      Ops.push_back(NodeExprs[Op]);
    const smt::Expr *Built = nullptr;
    switch (K) {
    case smt::ExprKind::True:
      Built = Ctx.getTrue();
      break;
    case smt::ExprKind::False:
      Built = Ctx.getFalse();
      break;
    case smt::ExprKind::BoolVar:
    case smt::ExprKind::IntVar: {
      const Variable *V = resolveVar(N.VarId, N.VarName);
      Built = Syms[V];
      if ((K == smt::ExprKind::BoolVar) != Built->isBool())
        throw std::runtime_error("summary replay: symbol type mismatch in " +
                                 F.name());
      break;
    }
    case smt::ExprKind::IntConst:
      Built = Ctx.getInt(N.Const);
      break;
    case smt::ExprKind::Not:
      Built = Ctx.mkNot(Ops[0]);
      break;
    case smt::ExprKind::And:
      Built = Ctx.mkAndN(Ops);
      break;
    case smt::ExprKind::Or:
      Built = Ctx.mkOrN(Ops);
      break;
    case smt::ExprKind::Eq:
    case smt::ExprKind::Ne:
    case smt::ExprKind::Lt:
    case smt::ExprKind::Le:
    case smt::ExprKind::Gt:
    case smt::ExprKind::Ge:
      Built = Ctx.mkCmp(K, Ops[0], Ops[1]);
      break;
    case smt::ExprKind::Add:
    case smt::ExprKind::Sub:
    case smt::ExprKind::Mul:
      Built = Ctx.mkArith(K, Ops[0], Ops[1]);
      break;
    case smt::ExprKind::Neg:
      Built = Ctx.mkNeg(Ops[0]);
      break;
    case smt::ExprKind::Ite:
      Built = Ctx.mkIte(Ops[0], Ops[1], Ops[2]);
      break;
    }
    NodeExprs.push_back(Built);
  }

  LoadDepsOut.assign(F.stmtOrderBound(), {});
  for (const auto &LE : E.Loads) {
    pta::ValSet VS;
    VS.reserve(LE.Vals.size());
    for (const auto &DV : LE.Vals) {
      pta::ContentVal CV;
      switch (DV.Tag) {
      case TagVariable:
        CV.V = resolveVar(DV.VarId, DV.VarName);
        break;
      case TagIntConst:
        CV.V = M.getIntConst(DV.IntVal);
        break;
      case TagBoolConst:
        CV.V = M.getBoolConst(DV.IntVal != 0);
        break;
      case TagNullConst:
        CV.V = M.getNullConst(Type::ptrTy(DV.PtrDepth));
        break;
      }
      VS.push_back({CV, NodeExprs[DV.CondIdx]});
    }
    LoadDepsOut[F.stmtOrder(Loads[LE.LoadIdx])] = std::move(VS);
  }
}

} // namespace pinpoint::svfa
