//===- support/ResourceGovernor.cpp ----------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/ResourceGovernor.h"
#include "support/Statistics.h"

namespace pinpoint {

const char *toString(DegradationKind K) {
  switch (K) {
  case DegradationKind::SolverUnknown:
    return "solver-unknown";
  case DegradationKind::ClosureTruncated:
    return "closure-truncated";
  case DegradationKind::PTATruncated:
    return "pta-truncated";
  case DegradationKind::FunctionOversized:
    return "fn-oversized";
  case DegradationKind::FunctionBudgetExceeded:
    return "fn-budget-exceeded";
  case DegradationKind::FunctionFailed:
    return "fn-failed";
  case DegradationKind::FunctionSkipped:
    return "fn-skipped";
  case DegradationKind::CheckerFailed:
    return "checker-failed";
  case DegradationKind::RunBudgetExhausted:
    return "run-budget-exhausted";
  case DegradationKind::InjectedFault:
    return "injected-fault";
  case DegradationKind::CacheCorrupt:
    return "cache-corrupt";
  case DegradationKind::MemoryPressure:
    return "memory-pressure";
  case DegradationKind::Cancelled:
    return "cancelled";
  case DegradationKind::SolverTransient:
    return "solver-transient";
  case DegradationKind::NumKinds:
    break;
  }
  return "unknown";
}

void DegradationLog::note(DegradationKind K, std::string Stage,
                          std::string Function, std::string Detail) {
  Counts[static_cast<size_t>(K)].fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> L(Mu);
  if (Events.size() < MaxStoredEvents)
    Events.push_back({K, std::move(Stage), std::move(Function),
                      std::move(Detail)});
}

uint64_t DegradationLog::total() const {
  uint64_t N = 0;
  for (const auto &C : Counts)
    N += C.load(std::memory_order_relaxed);
  return N;
}

std::string DegradationLog::summary() const {
  std::string Out = "degradations=" + std::to_string(total());
  for (size_t I = 0; I < Counts.size(); ++I) {
    uint64_t C = Counts[I].load(std::memory_order_relaxed);
    if (C > 0)
      Out += " " + std::string(toString(static_cast<DegradationKind>(I))) +
             "=" + std::to_string(C);
  }
  return Out;
}

void ResourceGovernor::note(DegradationKind K, std::string Stage,
                            std::string Function, std::string Detail) {
  Log.note(K, std::move(Stage), std::move(Function), std::move(Detail));
}

bool ResourceGovernor::memHardExceeded() const {
  return B.MemBudgetMB > 0 &&
         MemStats::get().liveBytes() > B.MemBudgetMB * 1024 * 1024;
}

ResourceGovernor &ResourceGovernor::ungoverned() {
  static ResourceGovernor G;
  return G;
}

} // namespace pinpoint
