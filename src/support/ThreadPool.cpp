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
  {
    std::lock_guard<std::mutex> L(Mu);
    assert(Queue.empty() && "destroying pool with queued tasks");
    Stop = true;
  }
  Cv.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

unsigned ThreadPool::hardwareConcurrency() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

ThreadPool::SchedStats ThreadPool::schedStats() const {
  SchedStats S;
  std::lock_guard<std::mutex> L(Mu);
  S.InboxPops = Pops;
  return S;
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> L(Mu);
  while (true) {
    Cv.wait(L, [this] { return Stop || !Queue.empty(); });
    // Stop is checked between tasks, never inside one.
    if (Stop)
      return;
    runNext(L);
  }
}

void ThreadPool::runNext(std::unique_lock<std::mutex> &L) {
  Task T = std::move(Queue.front());
  Queue.pop_front();
  ++Pops;
  L.unlock();
  std::exception_ptr E;
  try {
    T.Fn();
  } catch (...) {
    E = std::current_exception();
  }
  T.Fn = nullptr; // The task's captures are destroyed outside the lock.
  L.lock();
  if (E && !T.Group->Err)
    T.Group->Err = E;
  // Only a drained group changes a sleeper's predicate: workers wait for
  // the queue, and a helping wait for its own Pending to reach 0.
  if (--T.Group->Pending == 0)
    Cv.notify_all();
}

void ThreadPool::TaskGroup::spawn(std::function<void()> Fn) {
  {
    std::lock_guard<std::mutex> L(Pool.Mu);
    Pool.Queue.push_back({std::move(Fn), this});
    ++Pending;
  }
  // Workers and helping waiters share Cv; wake them all.
  Pool.Cv.notify_all();
}

void ThreadPool::TaskGroup::wait() {
  std::unique_lock<std::mutex> L(Pool.Mu);
  while (true) {
    Pool.Cv.wait(L, [this] { return Pending == 0 || !Pool.Queue.empty(); });
    if (Pending == 0)
      break;
    Pool.runNext(L);
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
