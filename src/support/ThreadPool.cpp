//===- support/ThreadPool.cpp ----------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <cassert>

namespace pinpoint {

ThreadPool::ThreadPool(unsigned Workers) {
  if (Workers == 0)
    Workers = 1;
  Threads.reserve(Workers);
  for (unsigned I = 0; I < Workers; ++I)
    Threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  assert(queueEmpty() && "destroying pool with queued tasks");
  requestStop();
  for (std::thread &T : Threads)
    T.join();
}

void ThreadPool::requestStop() {
  {
    // Flipped under Mu: a worker that just evaluated the wait predicate
    // false still holds the lock until it blocks, so the cancel cannot slip
    // into that window and lose its wakeup.
    std::lock_guard<std::mutex> L(Mu);
    Shutdown.cancel();
  }
  Cv.notify_all();
}

unsigned ThreadPool::hardwareConcurrency() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

ThreadPool::SchedStats ThreadPool::schedStats() const {
  SchedStats S;
  std::lock_guard<std::mutex> L(QueueMu);
  S.InboxPops = Pops;
  return S;
}

bool ThreadPool::queueEmpty() const {
  std::lock_guard<std::mutex> L(QueueMu);
  return Queue.empty();
}

bool ThreadPool::pop(TaskGroup *Only, Task &Out) {
  std::lock_guard<std::mutex> L(QueueMu);
  for (auto It = Queue.begin(); It != Queue.end(); ++It) {
    if (Only && It->Group != Only)
      continue;
    Out = std::move(*It);
    Queue.erase(It);
    ++Pops;
    return true;
  }
  return false;
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> L(Mu);
  while (true) {
    // Task-boundary poll: the shutdown token is checked between tasks,
    // never inside one — a running task finishes (or polls its own run
    // token) before the worker exits.
    if (Shutdown.cancelled())
      return;
    const uint64_t E = Epoch;
    L.unlock();
    Task T;
    if (pop(nullptr, T)) {
      runTask(std::move(T));
      L.lock();
      continue;
    }
    L.lock();
    // Epoch is bumped (under Mu) after every push, so a push that landed
    // after our scan flips the predicate and a push that landed before it
    // was visible to the scan: no task is ever slept past.
    Cv.wait(L, [this, E] { return Shutdown.cancelled() || Epoch != E; });
  }
}

void ThreadPool::runTask(Task T) {
  std::exception_ptr E;
  try {
    T.Fn();
  } catch (...) {
    E = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> L(Mu);
    if (E && !T.Group->Err)
      T.Group->Err = E;
    --T.Group->Pending;
  }
  // Wakes both idle workers (new tasks may have been spawned by T) and
  // helping waiters (whose group may just have drained).
  Cv.notify_all();
}

void ThreadPool::TaskGroup::spawn(std::function<void()> Fn) {
  {
    // Pending is raised before the task becomes poppable so a completion
    // can never underflow the ledger.
    std::lock_guard<std::mutex> L(Pool.Mu);
    ++Pending;
  }
  {
    std::lock_guard<std::mutex> L(Pool.QueueMu);
    Pool.Queue.push_back({std::move(Fn), this});
  }
  {
    // The epoch bump is ordered after the push: a sleeper whose scan
    // missed this task observes Epoch != E and rescans.
    std::lock_guard<std::mutex> L(Pool.Mu);
    ++Pool.Epoch;
  }
  Pool.Cv.notify_all();
}

void ThreadPool::TaskGroup::wait() {
  std::unique_lock<std::mutex> L(Pool.Mu);
  while (Pending > 0) {
    const uint64_t E = Pool.Epoch;
    // While a shutdown is pending, help only with *this* group's tasks:
    // running another group's backlog here would delay the cancel drain
    // (each waiter finishes just its own stragglers and returns).
    const bool Restricted = Pool.Shutdown.cancelled();
    L.unlock();
    Task T;
    if (Pool.pop(Restricted ? this : nullptr, T)) {
      Pool.runTask(std::move(T));
      L.lock();
      continue;
    }
    L.lock();
    Pool.Cv.wait(L, [this, E, Restricted] {
      return Pending == 0 || Pool.Epoch != E ||
             Pool.Shutdown.cancelled() != Restricted;
    });
  }
  std::exception_ptr E = Err;
  Err = nullptr;
  L.unlock();
  if (E)
    std::rethrow_exception(E);
}

ThreadPool::TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
    // Destructor-swallowed; observe exceptions via an explicit wait().
  }
}

} // namespace pinpoint
