// The MSR Lookup Table (MSRLT).
//
// Created in the process memory space at runtime to keep track of memory
// blocks, provide machine-independent identification, and support the
// address searches of data collection. It is the mapping table that
// translates between machine-specific addresses and machine-independent
// (block id, offset) pairs.
//
// Complexity contract (paper §4.2): with n tracked blocks, one address
// search costs O(log n), so collecting n blocks costs O(n log n) in
// search time; restoration never searches — migrated blocks arrive with
// their logical id attached — so each MSRLT update during restore is one
// O(log n) index insert with a bounded move and no allocation of its own.
// Statistics counters expose both terms so benchmarks can validate the
// model directly.
//
// Storage and search are delegated to an AddressIndex
// (msr/address_index.hpp) selected by SearchStrategy — the chunked flat
// array by default, whose slot arena holds the MemoryBlock records. The
// MSRLT itself owns the id table (an open-addressing id -> record table,
// msr/flat_table.hpp), the visit-epoch marking, the statistics counters,
// and a small set-associative lookup cache consulted before any strategy.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "common/error.hpp"
#include "msr/address_index.hpp"
#include "msr/block.hpp"
#include "msr/flat_table.hpp"
#include "obs/metrics.hpp"

namespace hpm::msr {

class Msrlt {
 public:
  explicit Msrlt(SearchStrategy strategy = SearchStrategy::FlatArray);

  Msrlt(const Msrlt&) = delete;
  Msrlt& operator=(const Msrlt&) = delete;

  /// Track a new block with a freshly assigned id. Throws hpm::MsrError if
  /// the byte range overlaps an existing block or size is zero.
  BlockId register_block(Segment seg, Address base, std::uint64_t size, ti::TypeId type,
                         std::uint32_t count, std::string name = {});

  /// register_block, returning the stored record itself (stable until the
  /// block is unregistered) so callers need no id lookup afterwards.
  const MemoryBlock& register_record(Segment seg, Address base, std::uint64_t size,
                                     ti::TypeId type, std::uint32_t count,
                                     std::string name = {});

  /// Track a new block under an externally chosen id (restoration binds
  /// the *source's* id to destination storage). Throws on id collision or
  /// range overlap.
  void register_with_id(BlockId id, Segment seg, Address base, std::uint64_t size,
                        ti::TypeId type, std::uint32_t count, std::string name = {});

  /// Stop tracking the block based at `base` (e.g. scope exit, free()).
  /// Throws hpm::MsrError if no block starts there.
  void unregister(Address base);

  /// Find the block containing `addr` (base <= addr < base + size).
  /// Returns nullptr for untracked addresses. Counts a search.
  ///
  /// Pointer collection has strong block locality (consecutive leaves of
  /// one block resolve into the same few blocks), so a small
  /// set-associative cache of recent containing blocks is consulted
  /// before the strategy's search; hits count one search step under
  /// `msr.msrlt.cache_hits`.
  const MemoryBlock* find_containing(Address addr) const;

  /// Find a block by logical id; nullptr if unknown.
  const MemoryBlock* find_id(BlockId id) const;

  /// Begin a new depth-first traversal: invalidates all previous marks in
  /// O(1) by bumping the epoch.
  void begin_traversal() noexcept { ++epoch_; }

  /// Mark the block visited in the current traversal; returns true the
  /// first time, false if already visited (the paper's duplicate guard).
  /// By-id form: one id lookup, throws on an unknown id. The engines use
  /// the record form below; this one is kept for msr_msrlt_test.
  bool try_mark(BlockId id);

  /// try_mark for a record this table returned (find_containing,
  /// find_id, register_record): no id lookup.
  bool try_mark(const MemoryBlock& block) noexcept {
    marks_.add(1);
    if (block.visit_epoch == epoch_) return false;
    // The record is owned (mutably) by this table's index.
    const_cast<MemoryBlock&>(block).visit_epoch = epoch_;
    return true;
  }

  [[nodiscard]] std::size_t block_count() const noexcept { return index_->size(); }

  /// Sum of the byte sizes of all tracked blocks. Collection pre-sizes
  /// its encoder from this total, so large heaps stream without
  /// reallocation churn.
  [[nodiscard]] std::uint64_t tracked_bytes() const noexcept { return tracked_bytes_; }

  [[nodiscard]] SearchStrategy strategy() const noexcept { return strategy_; }

  /// Immutable snapshot of the current block set for concurrent readers
  /// (parallel collection). Blocks stay pointer-stable while the snapshot
  /// is in use as long as no block is unregistered.
  [[nodiscard]] FrozenIndex freeze() const { return index_->freeze(); }

  /// Visit every tracked block in ascending base order (graph building,
  /// leak checks).
  template <typename Fn>
  void for_each_block(Fn&& fn) const {
    index_->for_each([&fn](const MemoryBlock& block) { fn(block); });
  }

 private:
  MemoryBlock* insert_checked(MemoryBlock block);

  SearchStrategy strategy_;
  std::unique_ptr<AddressIndex> index_;
  IdTable<MemoryBlock*> by_id_;
  std::uint64_t next_seq_[3] = {1, 1, 1};  // per segment
  std::uint64_t epoch_ = 1;
  std::uint64_t tracked_bytes_ = 0;

  // Set-associative lookup cache for find_containing (the widened
  // successor of the seed's one-entry MRU). Entries hold positive results
  // only; unregistering any block invalidates the whole cache in O(1) by
  // bumping the cache epoch (block pointers are stable across inserts,
  // so inserts need no invalidation).
  static constexpr std::size_t kCacheWays = 4;
  static constexpr std::size_t kCacheSets = 64;
  struct CacheEntry {
    std::uint64_t epoch = 0;
    const MemoryBlock* block = nullptr;
  };
  static std::size_t cache_set(Address addr) noexcept {
    // 64-byte granules; fold high bits in so strided probes spread out.
    std::uint64_t g = addr >> 6;
    g ^= g >> 12;
    return static_cast<std::size_t>(g) & (kCacheSets - 1);
  }
  mutable std::array<CacheEntry, kCacheSets * kCacheWays> cache_{};
  mutable std::array<std::uint8_t, kCacheSets> cache_cursor_{};  // round-robin fill
  mutable std::uint64_t cache_epoch_ = 1;

  // `msr.msrlt.*` instruments (process-wide registry).
  obs::Counter& registrations_;
  obs::Counter& removals_;
  obs::Counter& searches_;
  obs::Counter& search_steps_;
  obs::Counter& cache_hits_;
  obs::Counter& id_lookups_;
  obs::Counter& marks_;
  obs::Gauge& blocks_gauge_;  ///< `msr.msrlt.blocks`, process-wide level
};

}  // namespace hpm::msr
