//===- support/SlotTable.h - Lock-free pointer slots by dense id ----------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A grow-only table of atomic pointer slots indexed by a dense id, read
/// and written by many threads without a lock. It backs `ir::SymbolMap`,
/// which every pipeline and checker task consults.
///
/// The slots live in fixed-size chunks of 2^14, allocated on first touch
/// and published into a fixed directory of 2^14 chunk pointers by
/// compare-and-swap; a thread that loses the swap frees its chunk and uses
/// the winner's. A chunk never moves or shrinks, so a slot reference stays
/// valid for the table's lifetime while other threads add chunks. The
/// capacity is 2^28 ids: setting the slot of an id past it throws
/// `std::length_error`, and reading it yields null.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SUPPORT_SLOTTABLE_H
#define PINPOINT_SUPPORT_SLOTTABLE_H

#include <atomic>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>

namespace pinpoint {

template <typename T> class AtomicSlotTable {
  static constexpr unsigned ChunkBits = 14;
  static constexpr size_t ChunkSize = size_t(1) << ChunkBits;
  static constexpr size_t DirSize = size_t(1) << 14;

public:
  using Slot = std::atomic<T *>;
  static constexpr size_t Capacity = ChunkSize * DirSize;

  AtomicSlotTable() : Dir(new std::atomic<Slot *>[DirSize]()) {}
  AtomicSlotTable(const AtomicSlotTable &) = delete;
  AtomicSlotTable &operator=(const AtomicSlotTable &) = delete;
  ~AtomicSlotTable() {
    for (size_t I = 0; I < DirSize; ++I)
      delete[] Dir[I].load(std::memory_order_relaxed);
  }

  /// The slot of \p Id, allocating its chunk on first touch. Slots start
  /// null. Throws std::length_error when \p Id is past the capacity.
  Slot &slot(size_t Id) {
    if (Id >= Capacity)
      throw std::length_error("slot table: id " + std::to_string(Id) +
                              " past capacity " + std::to_string(Capacity));
    std::atomic<Slot *> &Entry = Dir[Id >> ChunkBits];
    Slot *Chunk = Entry.load(std::memory_order_acquire);
    if (!Chunk) {
      Slot *Fresh = new Slot[ChunkSize]();
      if (Entry.compare_exchange_strong(Chunk, Fresh,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire))
        Chunk = Fresh;
      else
        delete[] Fresh; // Chunk now holds the winner's.
    }
    return Chunk[Id & (ChunkSize - 1)];
  }

  /// The pointer in the slot of \p Id (an acquire load), or null when the
  /// slot was never set, its chunk never touched, or \p Id is past the
  /// capacity. Allocates nothing.
  T *get(size_t Id) const {
    if (Id >= Capacity)
      return nullptr;
    const Slot *Chunk = Dir[Id >> ChunkBits].load(std::memory_order_acquire);
    return Chunk ? Chunk[Id & (ChunkSize - 1)].load(std::memory_order_acquire)
                 : nullptr;
  }

private:
  std::unique_ptr<std::atomic<Slot *>[]> Dir;
};

} // namespace pinpoint

#endif // PINPOINT_SUPPORT_SLOTTABLE_H
