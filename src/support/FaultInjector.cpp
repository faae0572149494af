//===- support/FaultInjector.cpp -------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"

#include <cerrno>
#include <cstdlib>

namespace pinpoint {

namespace {

bool parseU64(const std::string &S, uint64_t &Out) {
  if (S.empty())
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S.c_str(), &End, 10);
  if (errno != 0 || End != S.c_str() + S.size() || S[0] == '-')
    return false;
  Out = V;
  return true;
}

} // namespace

bool FaultInjector::parse(const std::string &Spec, std::string &Err) {
  *this = FaultInjector();
  uint64_t Seed = 1;

  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Spec.size();
    std::string Item = Spec.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    if (Item.empty())
      continue;

    size_t Eq = Item.find('=');
    if (Eq == std::string::npos || Eq == 0 || Eq + 1 == Item.size()) {
      Err = "malformed fault-inject item (expected key=value): " + Item;
      return false;
    }
    std::string Key = Item.substr(0, Eq), Val = Item.substr(Eq + 1);

    if (Key == "seed") {
      if (!parseU64(Val, Seed)) {
        Err = "invalid seed: " + Val;
        return false;
      }
    } else if (Key == "solver-unknown") {
      if (!parseU64(Val, SolverUnknownPct) || SolverUnknownPct > 100) {
        Err = "invalid solver-unknown percentage (0-100): " + Val;
        return false;
      }
    } else if (Key == "pace-fn-ms") {
      if (!parseU64(Val, PaceFnMs) || PaceFnMs == 0 || PaceFnMs > 60000) {
        Err = "invalid pace-fn-ms (1-60000): " + Val;
        return false;
      }
    } else if (Key == "throw-fn") {
      ThrowFn = Val;
    } else if (Key == "pipeline-throw-fn") {
      PipelineThrowFn = Val;
    } else if (Key == "throw-checker") {
      ThrowChecker = Val;
    } else if (Key == "cache-read") {
      CacheReadFn = Val;
    } else {
      Err = "unknown fault-inject key: " + Key;
      return false;
    }
  }

  Rng = RNG(Seed);
  Enabled = true;
  return true;
}

} // namespace pinpoint
