//===- support/Interrupt.h - Cooperative cancellation ----------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cancellation half of the run-lifecycle resilience layer (DESIGN.md
/// section 12). A `CancelToken` is a lock-free flag that long-running stages
/// poll at task boundaries: the pipeline's SCC tasks, the global SVFA's
/// per-function loop and per-candidate SMT discharge, and the checker
/// fan-out all check it and unwind cleanly — results computed so far are
/// kept, remaining work degrades exactly like a budget hit, and the driver
/// can still flush a partial report, stats, the degradation log and every
/// completed-SCC cache entry.
///
/// `installSignalHandlers` wires `SIGINT`/`SIGTERM` to the process-wide
/// token. The handler body is async-signal-safe: it stores into two
/// lock-free atomics and nothing else; everything that allocates, locks or
/// prints happens later on the polling threads.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SUPPORT_INTERRUPT_H
#define PINPOINT_SUPPORT_INTERRUPT_H

#include <atomic>

namespace pinpoint {

/// A one-way cooperative cancellation flag. `cancel()` may be called from
/// any thread — or, for the process-wide instance, from a signal handler —
/// and is observed by polling `cancelled()`. Once set it stays set until
/// `reset()` (tests only; production runs exit instead).
class CancelToken {
public:
  constexpr CancelToken() = default;
  CancelToken(const CancelToken &) = delete;
  CancelToken &operator=(const CancelToken &) = delete;

  void cancel() noexcept { Flag.store(true, std::memory_order_release); }
  bool cancelled() const noexcept {
    return Flag.load(std::memory_order_acquire);
  }
  void reset() noexcept { Flag.store(false, std::memory_order_release); }

private:
  std::atomic<bool> Flag{false};
};

namespace interrupt {

/// The process-wide token `SIGINT`/`SIGTERM` cancel. Stages never reach for
/// this directly — the driver hands it to the `ResourceGovernor`, keeping
/// library-level runs free to use their own tokens.
CancelToken &processToken();

/// Installs `SIGINT` and `SIGTERM` handlers that cancel `processToken()`.
/// Returns false if installation failed (the run proceeds uninterruptible).
bool installSignalHandlers();

/// The signal number that cancelled `processToken()`, or 0 if none did.
int lastSignal();

/// Clears the process token and the recorded signal (tests only).
void resetForTesting();

} // namespace interrupt

} // namespace pinpoint

#endif // PINPOINT_SUPPORT_INTERRUPT_H
