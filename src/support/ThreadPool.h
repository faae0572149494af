//===- support/ThreadPool.h - Shared-FIFO worker pool with task groups ----===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution substrate of the parallel analysis engine (`--jobs N`).
/// A `ThreadPool` owns a fixed set of worker threads draining one shared
/// FIFO queue; work is submitted through `TaskGroup`s, which scope a batch
/// of tasks so the submitter can wait for exactly its own work.
///
/// Group semantics:
///
///  * `spawn` never blocks — tasks queue and run as workers free up;
///  * `wait` is a *helping* wait: while its group has pending tasks, the
///    waiting thread pops and runs queued tasks inline instead of idling.
///    This makes nested waits deadlock-free — a task running on the last
///    worker can spawn subtasks into a fresh group and wait on them (the
///    reentrancy guard the scheduler and the checker fan-out rely on).
///    While a shutdown is pending (`requestStop`), helping narrows to the
///    waiter's *own* group: running another group's backlog inline would
///    delay the cancel drain (the SIGINT path wants each waiter to finish
///    just its own stragglers and return);
///  * the first exception thrown by a task of a group is captured and
///    rethrown from that group's `wait()`; remaining tasks still run
///    (analysis tasks isolate their own failures — a group-level throw is
///    an engine bug, not a degradation path).
///
/// Tasks leave the queue in spawn order (apart from a restricted helper
/// skipping other groups' tasks); completion order is nondeterministic.
/// Callers that need deterministic output write results into pre-sized
/// slots indexed by task and merge after `wait()` (see svfa/Pipeline.cpp
/// and tools/PinpointTool.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SUPPORT_THREADPOOL_H
#define PINPOINT_SUPPORT_THREADPOOL_H

#include "support/Interrupt.h"

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pinpoint {

class ThreadPool {
public:
  /// Starts \p Workers worker threads (at least one).
  explicit ThreadPool(unsigned Workers);
  /// Joins the workers. All TaskGroups must have completed their waits.
  ~ThreadPool();
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned workers() const { return static_cast<unsigned>(Threads.size()); }

  /// std::thread::hardware_concurrency(), never 0.
  static unsigned hardwareConcurrency();

  /// Cancels the shutdown token and wakes every worker — the single drain
  /// path shared by destructor teardown and explicit cancellation. Workers
  /// exit at their next task boundary; queued tasks still drain through
  /// helping waits (`TaskGroup::wait`), so pending groups complete — each
  /// waiter running only its own group's tasks once the stop is pending.
  void requestStop();

  /// The token the worker loops observe. Exposed so lifecycle tests can
  /// assert the drain path; cancelling it directly is equivalent to
  /// `requestStop()` minus the wakeup (prefer `requestStop`).
  const CancelToken &shutdownToken() const { return Shutdown; }

  /// Scheduling counters, monotone over the pool's lifetime. They reflect
  /// nondeterministic interleaving (like the SMT acceleration counters),
  /// are exempt from the cross-run determinism contract, and feed the
  /// `[sched]` stats line.
  struct SchedStats {
    uint64_t LocalPops = 0; ///< Always 0: workers own no local queue.
    uint64_t InboxPops = 0; ///< Tasks popped from the shared queue.
    uint64_t Steals = 0;    ///< Always 0: there is nothing to steal from.
  };
  SchedStats schedStats() const;

  /// A batch of tasks that can be waited on together. Not thread-safe
  /// itself: spawn/wait from one owner thread (tasks may spawn into their
  /// own group's pool via a nested TaskGroup).
  class TaskGroup {
  public:
    explicit TaskGroup(ThreadPool &Pool) : Pool(Pool) {}
    /// Waits for stragglers; exceptions are swallowed here — call wait()
    /// explicitly to observe them.
    ~TaskGroup();
    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /// Enqueues \p Fn; never blocks. Safe to call from inside a task.
    void spawn(std::function<void()> Fn);

    /// Blocks until every task spawned into this group has finished,
    /// helping to drain queued tasks meanwhile (restricted to this group's
    /// tasks while a pool shutdown is pending). Rethrows the first
    /// exception any task of this group threw.
    void wait();

  private:
    friend class ThreadPool;
    ThreadPool &Pool;
    size_t Pending = 0;     ///< Guarded by Pool.Mu.
    std::exception_ptr Err; ///< Guarded by Pool.Mu; first failure wins.
  };

private:
  struct Task {
    std::function<void()> Fn;
    TaskGroup *Group;
  };

  void workerLoop();
  void runTask(Task T);
  /// Dequeues the oldest task; when \p Only is non-null, the oldest task of
  /// that group (the shutdown-pending restriction of helping waits).
  /// Returns false when no task qualifies.
  bool pop(TaskGroup *Only, Task &Out);
  bool queueEmpty() const;

  std::mutex Mu; ///< Guards Pending/Err/Epoch; sleep lock.
  std::condition_variable Cv;
  uint64_t Epoch = 0; ///< Bumped (under Mu) after every push; wakeup token.
  mutable std::mutex QueueMu;
  std::deque<Task> Queue; ///< Guarded by QueueMu.
  uint64_t Pops = 0;      ///< Guarded by QueueMu.
  std::vector<std::thread> Threads;
  /// Worker shutdown signal. A CancelToken instead of a plain flag so
  /// teardown reuses the same cancellation primitive the rest of the
  /// lifecycle layer polls; it is still flipped under Mu (and observed
  /// under Mu in the wait predicate) to keep the no-missed-wakeup protocol.
  CancelToken Shutdown;
};

} // namespace pinpoint

#endif // PINPOINT_SUPPORT_THREADPOOL_H
