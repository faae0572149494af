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
///    waiting thread pops and runs queued tasks inline (of any group)
///    instead of idling. This makes nested waits deadlock-free — a task
///    running on the last worker can spawn subtasks into a fresh group and
///    wait on them (the reentrancy guard the scheduler and the checker
///    fan-out rely on);
///  * the first exception thrown by a task of a group is captured and
///    rethrown from that group's `wait()`; remaining tasks still run
///    (analysis tasks isolate their own failures — a group-level throw is
///    an engine bug, not a degradation path).
///
/// One mutex guards the queue, the pop count, every group's ledger and the
/// stop flag, and one condition variable carries every wakeup: workers
/// sleep until the queue is non-empty or the pool stops, a helping wait
/// until its group drains or the queue is non-empty.
///
/// Tasks leave the queue in spawn order; completion order is
/// nondeterministic. Code that needs deterministic output writes results
/// into pre-sized slots indexed by task and merge after `wait()` (see
/// svfa/Pipeline.cpp and tools/PinpointTool.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SUPPORT_THREADPOOL_H
#define PINPOINT_SUPPORT_THREADPOOL_H

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

  /// Scheduling counters, monotone over the pool's lifetime. They reflect
  /// nondeterministic interleaving, are exempt from the cross-run
  /// determinism contract, and feed the `[sched]` stats line.
  struct SchedStats {
    uint64_t LocalPops = 0; ///< Always 0: workers own no local queue.
    uint64_t InboxPops = 0; ///< Tasks popped from the shared queue.
    uint64_t Steals = 0;    ///< Always 0: there is nothing to steal from.
  };
  SchedStats schedStats() const;

  /// A batch of tasks that can be waited on together. `spawn` may be
  /// called by the owner and by the group's own tasks; only the owner
  /// calls `wait`.
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
    /// helping to drain queued tasks meanwhile. Rethrows the first
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
  /// Pops the oldest task and runs it with \p L released. Returns with \p L
  /// held and the task's group ledger updated. The queue must be non-empty.
  void runNext(std::unique_lock<std::mutex> &L);

  mutable std::mutex Mu; ///< Guards Queue, Pops, Stop and group ledgers.
  std::condition_variable Cv;
  std::deque<Task> Queue;
  uint64_t Pops = 0;
  bool Stop = false; ///< Set once, by the destructor.
  std::vector<std::thread> Threads;
};

} // namespace pinpoint

#endif // PINPOINT_SUPPORT_THREADPOOL_H
