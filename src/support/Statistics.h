//===- support/Statistics.h - Counters, memory and time accounting -------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight global statistics used by the evaluation harnesses:
///  * named counters (e.g. "smt.linear.unsat", "seg.vertices");
///  * live arena-byte accounting, with a high-water mark, used to reproduce
///    the paper's memory figures (Figs. 8-10, Table 2) deterministically;
///  * peak-RSS probing from /proc for sanity cross-checks.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SUPPORT_STATISTICS_H
#define PINPOINT_SUPPORT_STATISTICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace pinpoint {

/// Global named counters. Thread-safe: `add` may be called concurrently
/// from pipeline/checker tasks under `--jobs N` (the name is hashed to one
/// of a fixed set of internally-locked shards, so unrelated counters do
/// not contend). `value` takes the shard lock and is linearizable per
/// counter; read several counters when the pool is quiescent for exact
/// totals.
class Counters {
public:
  static Counters &get();

  void add(const std::string &Name, int64_t Delta = 1) {
    Shard &S = shardFor(Name);
    std::lock_guard<std::mutex> L(S.Mu);
    S.Map[Name] += Delta;
  }

  int64_t value(const std::string &Name) const {
    const Shard &S = shardFor(Name);
    std::lock_guard<std::mutex> L(S.Mu);
    auto It = S.Map.find(Name);
    return It == S.Map.end() ? 0 : It->second;
  }

  void clear() {
    for (Shard &S : Shards) {
      std::lock_guard<std::mutex> L(S.Mu);
      S.Map.clear();
    }
  }

private:
  struct Shard {
    mutable std::mutex Mu;
    std::map<std::string, int64_t> Map;
  };
  static constexpr size_t NumShards = 16;

  Shard &shardFor(const std::string &Name) {
    return Shards[hashName(Name) % NumShards];
  }
  const Shard &shardFor(const std::string &Name) const {
    return Shards[hashName(Name) % NumShards];
  }
  static size_t hashName(const std::string &Name) {
    // FNV-1a; stable across runs so shard assignment is deterministic.
    uint64_t H = 1469598103934665603ull;
    for (char C : Name)
      H = (H ^ static_cast<unsigned char>(C)) * 1099511628211ull;
    return static_cast<size_t>(H);
  }

  std::array<Shard, NumShards> Shards;
};

/// Tracks bytes held by all live arenas, with a resettable high-water mark.
/// Thread-safe: arenas on concurrent analysis tasks report through atomics
/// (the peak is maintained with a CAS loop, so it never under-reports).
///
/// This is also the ledger the memory governor (`--mem-budget-mb`) polls.
/// The IR and every function's SEG live in reported arenas, and an arena
/// discharges its own bytes when it is destroyed, so the ledger balances
/// without any bookkeeping by the arenas' owners.
class MemStats {
public:
  static MemStats &get();

  void noteArenaBytes(int64_t Delta) {
    int64_t Now = Live.fetch_add(Delta, std::memory_order_relaxed) + Delta;
    int64_t Seen = Peak.load(std::memory_order_relaxed);
    while (Now > Seen && !Peak.compare_exchange_weak(
                             Seen, Now, std::memory_order_relaxed)) {
    }
  }
  int64_t liveBytes() const { return Live.load(std::memory_order_relaxed); }
  int64_t peakBytes() const { return Peak.load(std::memory_order_relaxed); }
  /// Rebases the high-water mark to the current live total, so a harness
  /// phase reports its own peak.
  void resetPeak() { Peak.store(liveBytes(), std::memory_order_relaxed); }

  /// Reads VmHWM (peak resident set) from /proc/self/status, in bytes.
  /// Returns 0 if unavailable.
  static int64_t processPeakRSS();

private:
  std::atomic<int64_t> Live{0};
  std::atomic<int64_t> Peak{0};
};

} // namespace pinpoint

#endif // PINPOINT_SUPPORT_STATISTICS_H
