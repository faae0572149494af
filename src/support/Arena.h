//===- support/Arena.h - Bump-pointer arena with byte accounting ---------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer arena allocator. All IR, SEG and constraint objects are
/// arena-allocated so that (a) allocation is cheap and (b) the benchmark
/// harness can report per-phase memory the same way the paper's Figures 8/9
/// report it, via exact byte accounting.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SUPPORT_ARENA_H
#define PINPOINT_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace pinpoint {

/// A simple bump-pointer arena. Objects allocated here are never individually
/// freed; destructors of trivially destructible payloads are skipped, others
/// must be registered via `allocObject`.
class Arena {
public:
  Arena() = default;
  /// \p Reported controls whether slab bytes flow into the global
  /// `MemStats` arena ledger, which `--mem-budget-mb` and the arena-peak
  /// statistics read. Pass false for arenas that are not governed memory
  /// (the linear-filter memo, the engine's frozen summaries, the call-graph
  /// condensation).
  explicit Arena(bool Reported) : Reported(Reported) {}
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;
  /// Takes over \p O's objects, which keep their addresses; \p O is left
  /// empty.
  Arena(Arena &&O) noexcept
      : Slabs(std::move(O.Slabs)), Dtors(std::move(O.Dtors)),
        Cur(std::exchange(O.Cur, 0)), End(std::exchange(O.End, 0)),
        BytesUsed(std::exchange(O.BytesUsed, 0)),
        BytesReserved(std::exchange(O.BytesReserved, 0)),
        Reported(O.Reported) {}
  ~Arena() { reset(); }

  /// Allocates \p Size bytes aligned to \p Align.
  void *allocate(size_t Size, size_t Align = alignof(std::max_align_t)) {
    size_t P = (Cur + Align - 1) & ~(Align - 1);
    if (P + Size > End) {
      newSlab(Size + Align);
      P = (Cur + Align - 1) & ~(Align - 1);
    }
    Cur = P + Size;
    BytesUsed += Size;
    return reinterpret_cast<void *>(P);
  }

  /// Allocates and constructs a T. If T has a non-trivial destructor it is
  /// registered to run at arena destruction.
  template <typename T, typename... Args> T *allocObject(Args &&...A) {
    void *Mem = allocate(sizeof(T), alignof(T));
    T *Obj = new (Mem) T(std::forward<Args>(A)...);
    if constexpr (!std::is_trivially_destructible_v<T>)
      Dtors.push_back({Obj, [](void *P) { static_cast<T *>(P)->~T(); }});
    return Obj;
  }

  /// Allocates an uninitialised array of \p N trivially-destructible Ts.
  /// Returns nullptr for N == 0 so empty CSR rows cost nothing.
  template <typename T> T *allocArray(size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "allocArray cannot register element destructors");
    if (N == 0)
      return nullptr;
    return static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
  }

  /// Moves the contents of \p Src into arena storage and returns the new
  /// base pointer; elements with non-trivial destructors are registered
  /// individually. \p Src is left empty.
  template <typename T> T *allocMove(std::vector<T> &&Src) {
    if (Src.empty())
      return nullptr;
    T *Base = static_cast<T *>(allocate(Src.size() * sizeof(T), alignof(T)));
    for (size_t I = 0; I < Src.size(); ++I) {
      T *Obj = new (Base + I) T(std::move(Src[I]));
      if constexpr (!std::is_trivially_destructible_v<T>)
        Dtors.push_back({Obj, [](void *P) { static_cast<T *>(P)->~T(); }});
    }
    Src.clear();
    return Base;
  }

  /// Total payload bytes handed out (excludes slab slack).
  size_t bytesUsed() const { return BytesUsed; }
  /// Total bytes reserved from the system.
  size_t bytesReserved() const { return BytesReserved; }

  /// Destroys registered objects and releases all slabs.
  void reset();

private:
  void newSlab(size_t MinSize);

  struct DtorEntry {
    void *Obj;
    void (*Fn)(void *);
  };

  std::vector<char *> Slabs;
  std::vector<DtorEntry> Dtors;
  uintptr_t Cur = 0, End = 0;
  size_t BytesUsed = 0, BytesReserved = 0;
  bool Reported = true;
  /// Slabs grow geometrically from MinSlabSize to MaxSlabSize so that many
  /// small arenas (one per analysed function) stay cheap.
  static constexpr size_t MinSlabSize = 4 << 10;
  static constexpr size_t MaxSlabSize = 1 << 20;
};

} // namespace pinpoint

#endif // PINPOINT_SUPPORT_ARENA_H
