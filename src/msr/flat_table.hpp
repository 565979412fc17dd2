// FlatTable: an open-addressing hash table over non-zero 64-bit keys.
//
// The MSR bookkeeping keeps one entry per tracked block in several
// tables (id -> block record, frozen id -> slot, restore binding, owned
// allocations). Node-based containers pay one allocation and one cache
// line per entry for each of them; this table is one flat array of
// {key, value} slots, linear probing, key 0 = empty, and backward-shift
// deletion (no tombstones, so probe chains never decay under churn). It
// grows by doubling and keeps the load at or below one half.
//
// The slot function is a policy: BlockIdSlots keeps ids local (see
// below), PointerSlots mixes addresses multiplicatively.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "msr/block.hpp"

namespace hpm::msr {

/// Home slot of a block id. Sequence numbers are dense per segment, so an
/// identity-like hash keeps consecutive ids in consecutive slots; the
/// segment tag is rotated into the two low bits so each segment owns its
/// own residue class mod 4. A run of 262k heap ids therefore never becomes
/// the probe chain of a stack or global id.
struct BlockIdSlots {
  static std::size_t home(std::uint64_t id, std::size_t mask) noexcept {
    return static_cast<std::size_t>((id << 2) | (id >> 56)) & mask;
  }
};

/// Home slot of an allocation address (16-byte aligned): Fibonacci hashing
/// of the granule number, taking the high product bits.
struct PointerSlots {
  static std::size_t home(std::uint64_t addr, std::size_t mask) noexcept {
    const std::uint64_t h = (addr >> 4) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h >> 32) & mask;
  }
};

/// Empty value type for set usage; takes no space in a slot.
struct NoValue {};

template <typename Value, typename Slots>
class FlatTable {
 public:
  FlatTable() = default;
  FlatTable(FlatTable&& other) noexcept { swap(other); }
  FlatTable& operator=(FlatTable&& other) noexcept {
    FlatTable(std::move(other)).swap(*this);
    return *this;
  }
  FlatTable(const FlatTable&) = delete;
  FlatTable& operator=(const FlatTable&) = delete;

  /// Value stored under `key`, or nullptr.
  Value* find(std::uint64_t key) noexcept {
    if (size_ == 0 || key == 0) return nullptr;
    for (std::size_t i = Slots::home(key, mask_);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == 0) return nullptr;
    }
  }
  const Value* find(std::uint64_t key) const noexcept {
    return const_cast<FlatTable*>(this)->find(key);
  }
  [[nodiscard]] bool contains(std::uint64_t key) const noexcept { return find(key) != nullptr; }

  /// Insert `key` (non-zero); false, leaving the table unchanged, if it
  /// is already present.
  bool insert(std::uint64_t key, Value value = Value{}) {
    if ((size_ + 1) * 2 > capacity()) grow();
    for (std::size_t i = Slots::home(key, mask_);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == key) return false;
      if (s.key == 0) {
        s.key = key;
        s.value = value;
        ++size_;
        return true;
      }
    }
  }

  /// Remove `key`; false if absent. Later members of the probe run are
  /// shifted back so every key stays reachable from its home slot.
  bool erase(std::uint64_t key) noexcept {
    if (size_ == 0 || key == 0) return false;
    std::size_t hole = Slots::home(key, mask_);
    while (slots_[hole].key != key) {
      if (slots_[hole].key == 0) return false;
      hole = (hole + 1) & mask_;
    }
    for (std::size_t j = (hole + 1) & mask_; slots_[j].key != 0; j = (j + 1) & mask_) {
      const std::size_t home = Slots::home(slots_[j].key, mask_);
      // Move j into the hole unless its home lies cyclically in (hole, j].
      const bool stays = hole <= j ? (hole < home && home <= j) : (hole < home || home <= j);
      if (!stays) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Visit every {key, value} pair (unspecified order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (slots_[i].key != 0) fn(slots_[i].key, slots_[i].value);
    }
  }

  /// Size the table for `n` entries up front (no rehash while filling).
  void reserve(std::size_t n) {
    while (n * 2 > capacity()) grow();
  }

  void clear() noexcept {
    slots_.reset();
    mask_ = 0;
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  void swap(FlatTable& other) noexcept {
    std::swap(slots_, other.slots_);
    std::swap(mask_, other.mask_);
    std::swap(size_, other.size_);
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    [[no_unique_address]] Value value{};
  };

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_ ? mask_ + 1 : 0; }

  void grow() {
    const std::size_t old_cap = capacity();
    const std::size_t new_cap = old_cap == 0 ? 16 : old_cap * 2;
    std::unique_ptr<Slot[]> old = std::move(slots_);
    slots_ = std::make_unique<Slot[]>(new_cap);
    mask_ = new_cap - 1;
    for (std::size_t i = 0; i < old_cap; ++i) {
      if (old[i].key == 0) continue;
      std::size_t j = Slots::home(old[i].key, mask_);
      while (slots_[j].key != 0) j = (j + 1) & mask_;
      slots_[j] = old[i];
    }
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Block id -> value (id 0, kInvalidBlock, is never stored).
template <typename Value>
using IdTable = FlatTable<Value, BlockIdSlots>;

/// Set of allocation addresses (0, the null pointer, is never stored).
using AddressSet = FlatTable<NoValue, PointerSlots>;

}  // namespace hpm::msr
