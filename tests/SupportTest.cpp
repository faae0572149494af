//===- tests/SupportTest.cpp - Unit tests for src/support ------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"
#include "support/Casting.h"
#include "support/Interrupt.h"
#include "support/RNG.h"
#include "support/SourceLoc.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

namespace pinpoint {
namespace {

//===----------------------------------------------------------------------===
// Arena
//===----------------------------------------------------------------------===

TEST(Arena, AllocatesAlignedMemory) {
  Arena A;
  void *P1 = A.allocate(13, 8);
  void *P2 = A.allocate(7, 16);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P1) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P2) % 16, 0u);
  EXPECT_NE(P1, P2);
  EXPECT_EQ(A.bytesUsed(), 20u);
}

TEST(Arena, GrowsAcrossSlabs) {
  Arena A;
  // Allocate more than one slab's worth.
  for (int I = 0; I < 40; ++I) {
    void *P = A.allocate(100 * 1024);
    ASSERT_NE(P, nullptr);
  }
  EXPECT_GE(A.bytesReserved(), A.bytesUsed());
  EXPECT_EQ(A.bytesUsed(), 40u * 100 * 1024);
}

TEST(Arena, LargeSingleAllocation) {
  Arena A;
  void *P = A.allocate(8 << 20); // Bigger than the default slab.
  ASSERT_NE(P, nullptr);
}

TEST(Arena, RunsDestructorsOfNonTrivialObjects) {
  static int Destroyed = 0;
  struct Tracked {
    std::string Payload = "payload"; // Non-trivially destructible.
    ~Tracked() { ++Destroyed; }
  };
  {
    Arena A;
    A.allocObject<Tracked>();
    A.allocObject<Tracked>();
    EXPECT_EQ(Destroyed, 0);
  }
  EXPECT_EQ(Destroyed, 2);
}

TEST(Arena, ResetReclaimsAccounting) {
  int64_t Before = MemStats::get().liveBytes();
  {
    Arena A;
    A.allocate(3 << 20);
    EXPECT_GT(MemStats::get().liveBytes(), Before);
  }
  EXPECT_EQ(MemStats::get().liveBytes(), Before);
}

//===----------------------------------------------------------------------===
// Casting
//===----------------------------------------------------------------------===

struct Base {
  enum Kind { K_A, K_B } TheKind;
  explicit Base(Kind K) : TheKind(K) {}
};
struct DerivedA : Base {
  DerivedA() : Base(K_A) {}
  static bool classof(const Base *B) { return B->TheKind == K_A; }
};
struct DerivedB : Base {
  DerivedB() : Base(K_B) {}
  static bool classof(const Base *B) { return B->TheKind == K_B; }
};

TEST(Casting, IsaAndDynCast) {
  DerivedA A;
  Base *B = &A;
  EXPECT_TRUE(isa<DerivedA>(B));
  EXPECT_FALSE(isa<DerivedB>(B));
  EXPECT_NE(dyn_cast<DerivedA>(B), nullptr);
  EXPECT_EQ(dyn_cast<DerivedB>(B), nullptr);
  EXPECT_EQ(cast<DerivedA>(B), &A);
}

TEST(Casting, DynCastOrNullToleratesNull) {
  Base *B = nullptr;
  EXPECT_EQ(dyn_cast_or_null<DerivedA>(B), nullptr);
}

//===----------------------------------------------------------------------===
// RNG
//===----------------------------------------------------------------------===

TEST(RNG, DeterministicForSameSeed) {
  RNG A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RNG, DifferentSeedsDiverge) {
  RNG A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 5);
}

TEST(RNG, BelowStaysInRange) {
  RNG R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.below(17), 17u);
}

TEST(RNG, RangeIsInclusive) {
  RNG R(9);
  std::set<int64_t> Seen;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = R.range(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 7u); // All values hit.
}

TEST(RNG, ForkProducesIndependentStream) {
  RNG A(5);
  RNG C = A.fork(1);
  RNG A2(5);
  RNG C2 = A2.fork(1);
  for (int I = 0; I < 50; ++I)
    EXPECT_EQ(C.next(), C2.next());
}

//===----------------------------------------------------------------------===
// Statistics
//===----------------------------------------------------------------------===

TEST(Statistics, CountersAccumulate) {
  Counters::get().clear();
  Counters::get().add("test.counter", 3);
  Counters::get().add("test.counter");
  EXPECT_EQ(Counters::get().value("test.counter"), 4);
  EXPECT_EQ(Counters::get().value("test.missing"), 0);
}

TEST(Statistics, PeakTracksHighWaterMark) {
  MemStats &M = MemStats::get();
  M.resetPeak();
  int64_t Base = M.liveBytes();
  M.noteArenaBytes(1000);
  M.noteArenaBytes(-1000);
  EXPECT_EQ(M.liveBytes(), Base);
  EXPECT_GE(M.peakBytes(), Base + 1000);
}

TEST(Statistics, ProcessPeakRSSReadable) {
  EXPECT_GT(MemStats::processPeakRSS(), 0);
}

TEST(SourceLoc, Formatting) {
  SourceLoc L{12, 5};
  EXPECT_TRUE(L.isValid());
  EXPECT_EQ(L.str(), "12:5");
  EXPECT_FALSE(SourceLoc().isValid());
}

//===----------------------------------------------------------------------===
// CancelToken / cooperative cancellation
//===----------------------------------------------------------------------===

TEST(CancelToken, OneWayUntilReset) {
  CancelToken T;
  EXPECT_FALSE(T.cancelled());
  T.cancel();
  EXPECT_TRUE(T.cancelled());
  T.cancel(); // Idempotent.
  EXPECT_TRUE(T.cancelled());
  T.reset();
  EXPECT_FALSE(T.cancelled());
}

TEST(CancelToken, VisibleAcrossThreads) {
  CancelToken T;
  std::atomic<bool> Seen{false};
  std::thread Poller([&] {
    while (!T.cancelled())
      std::this_thread::yield();
    Seen.store(true);
  });
  T.cancel();
  Poller.join();
  EXPECT_TRUE(Seen.load());
}

TEST(ProcessToken, RecordsAndResets) {
  interrupt::resetForTesting();
  EXPECT_FALSE(interrupt::processToken().cancelled());
  EXPECT_EQ(interrupt::lastSignal(), 0);
  interrupt::processToken().cancel();
  EXPECT_TRUE(interrupt::processToken().cancelled());
  interrupt::resetForTesting();
  EXPECT_FALSE(interrupt::processToken().cancelled());
  EXPECT_EQ(interrupt::lastSignal(), 0);
}

} // namespace
} // namespace pinpoint
