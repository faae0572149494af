//===- support/FlatMap.h - Open-addressed insert-only hash map ------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An insert-only hash map for small, trivially copyable keys and values:
/// one power-of-two array of slots, linear probing, doubled at 3/4 load.
/// It backs the engine's long-lived memos (the linear filter's atom sets,
/// the context clone cache), for which a node-based map would allocate one
/// heap block per entry and free each one again at teardown.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SUPPORT_FLATMAP_H
#define PINPOINT_SUPPORT_FLATMAP_H

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace pinpoint {

/// \p Hash maps a key to 64 bits; the table applies its own Fibonacci mix,
/// so a dense id is a fine hash. The value-initialised key (null, 0) marks
/// an empty slot and may not be inserted.
template <typename K, typename V, typename Hash> class FlatMap {
  static_assert(std::is_trivially_copyable_v<K> &&
                std::is_trivially_copyable_v<V>);

public:
  /// The value of \p Key, or null. The pointer is invalidated by the next
  /// insert (slots move when the array grows).
  const V *find(K Key) const {
    if (Slots.empty())
      return nullptr;
    const size_t Mask = Slots.size() - 1;
    for (size_t Pos = probe(Key); Slots[Pos].Key != K{};
         Pos = (Pos + 1) & Mask)
      if (Slots[Pos].Key == Key)
        return &Slots[Pos].Val;
    return nullptr;
  }

  /// Adds \p Key, which must not be present yet.
  void insert(K Key, V Val) {
    assert(Key != K{} && "the empty key marks free slots");
    if ((Used + 1) * 4 > Slots.size() * 3)
      grow();
    place({Key, Val});
    ++Used;
  }

  size_t size() const { return Used; }

private:
  struct Slot {
    K Key{};
    V Val{};
  };

  size_t probe(K Key) const {
    return static_cast<size_t>((Hash()(Key) * 0x9e3779b97f4a7c15ULL) >> Shift);
  }
  void place(const Slot &S) {
    const size_t Mask = Slots.size() - 1;
    size_t Pos = probe(S.Key);
    while (Slots[Pos].Key != K{})
      Pos = (Pos + 1) & Mask;
    Slots[Pos] = S;
  }
  /// Doubles the array; the first one is small, since some owners (the
  /// points-to analysis's per-function filter) see only a few keys.
  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    const size_t Cap = Old.empty() ? 8 : Old.size() * 2;
    Slots.assign(Cap, Slot{});
    Shift = 64 - static_cast<unsigned>(std::countr_zero(Cap));
    for (const Slot &S : Old)
      if (S.Key != K{})
        place(S);
  }

  std::vector<Slot> Slots; ///< Empty or a power of two; at most 3/4 full.
  size_t Used = 0;
  unsigned Shift = 64; ///< 64 - log2(Slots.size()).
};

} // namespace pinpoint

#endif // PINPOINT_SUPPORT_FLATMAP_H
