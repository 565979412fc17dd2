// Property-based equivalence of the AddressIndex implementations: the
// chunked sorted interval array (FlatArray: per-chunk memmove inserts,
// chunk splits and drops, branchless searches) must be behavior-identical
// to the std::map reference across randomized insert/erase/lookup
// sequences and the registration orders a process produces (ascending,
// descending, shuffled, heap below a stack run, LIFO stack churn) — same
// accept/reject decisions, same containing-block answers (including
// misses and out-of-range probes), same address-order iteration, and
// equivalent frozen snapshots. Chunk-boundary cases are placed with
// msr::kChunkEntries. Step counts are strategy-specific and not compared.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "msr/address_index.hpp"

namespace hpm {
namespace {

using msr::Address;
using msr::BlockId;
using msr::MemoryBlock;

MemoryBlock make_block(BlockId id, Address base, std::uint64_t size) {
  MemoryBlock b;
  b.id = id;
  b.segment = msr::Segment::Heap;
  b.base = base;
  b.size = size;
  b.type = 1;
  b.count = 1;
  return b;
}

class Harness {
 public:
  Harness()
      : ref_(msr::make_address_index(msr::SearchStrategy::OrderedMap)),
        flat_(msr::make_address_index(msr::SearchStrategy::FlatArray)) {}

  /// Insert into both; they must agree on accept vs MsrError.
  void insert(Address base, std::uint64_t size) {
    const BlockId id = msr::make_block_id(msr::Segment::Heap, next_seq_++);
    bool ref_ok = true, flat_ok = true;
    try {
      ref_->insert(make_block(id, base, size));
    } catch (const MsrError&) {
      ref_ok = false;
    }
    try {
      flat_->insert(make_block(id, base, size));
    } catch (const MsrError&) {
      flat_ok = false;
    }
    ASSERT_EQ(ref_ok, flat_ok) << "insert divergence at base=" << base << " size=" << size;
    if (ref_ok) live_.emplace(base, id);
  }

  /// insert(), reporting whether both indexes accepted the block.
  bool inserted(Address base, std::uint64_t size) {
    const std::size_t before = live_.size();
    insert(base, size);
    return live_.size() > before;
  }

  /// Erase the live block based at `base` from both.
  void erase(Address base) {
    ASSERT_EQ(live_.count(base), 1u) << "test bug: no live block at " << base;
    ref_->erase(base);
    flat_->erase(base);
    live_.erase(base);
  }

  /// Probe every live block's first and last byte, the byte past its end,
  /// and the byte before its base.
  void check_all_edges() {
    for (const auto& [base, id] : live_) {
      (void)id;
      check_lookup(base);
      check_lookup(base - 1);
      const std::uint64_t size = ref_->find_base(base)->size;
      check_lookup(base + size - 1);
      check_lookup(base + size);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  void erase_random(std::mt19937_64& rng) {
    if (live_.empty()) return;
    auto it = live_.begin();
    std::advance(it, static_cast<long>(rng() % live_.size()));
    ref_->erase(it->first);
    flat_->erase(it->first);
    live_.erase(it);
  }

  void check_lookup(Address addr) {
    std::uint64_t s1 = 0, s2 = 0;
    const MemoryBlock* a = ref_->find_containing(addr, s1);
    const MemoryBlock* b = flat_->find_containing(addr, s2);
    ASSERT_EQ(a == nullptr, b == nullptr) << "hit/miss divergence at " << addr;
    if (a != nullptr) {
      EXPECT_EQ(a->id, b->id);
      EXPECT_EQ(a->base, b->base);
      EXPECT_EQ(a->size, b->size);
    }
    MemoryBlock* fb1 = ref_->find_base(addr);
    MemoryBlock* fb2 = flat_->find_base(addr);
    ASSERT_EQ(fb1 == nullptr, fb2 == nullptr);
    if (fb1 != nullptr) {
      EXPECT_EQ(fb1->id, fb2->id);
    }
  }

  void check_full_state() {
    ASSERT_EQ(ref_->size(), flat_->size());
    ASSERT_EQ(ref_->size(), live_.size());
    std::vector<std::pair<Address, BlockId>> ref_order, flat_order;
    ref_->for_each([&](const MemoryBlock& b) { ref_order.emplace_back(b.base, b.id); });
    flat_->for_each([&](const MemoryBlock& b) { flat_order.emplace_back(b.base, b.id); });
    EXPECT_EQ(ref_order, flat_order);

    const msr::FrozenIndex fz_ref = ref_->freeze();
    const msr::FrozenIndex fz_flat = flat_->freeze();
    ASSERT_EQ(fz_ref.size(), fz_flat.size());
    for (const auto& [base, id] : live_) {
      EXPECT_EQ(fz_ref.slot_of(id), fz_flat.slot_of(id));
      const MemoryBlock* fa = fz_ref.find_id(id);
      const MemoryBlock* fb = fz_flat.find_id(id);
      ASSERT_NE(fa, nullptr);
      ASSERT_NE(fb, nullptr);
      EXPECT_EQ(fa->base, base);
      EXPECT_EQ(fb->base, base);
      std::uint64_t s1 = 0, s2 = 0;
      EXPECT_EQ(fz_ref.find_containing(base, s1)->id, id);
      EXPECT_EQ(fz_flat.find_containing(base, s2)->id, id);
    }
  }

  [[nodiscard]] std::size_t live_count() const { return live_.size(); }

 private:
  std::unique_ptr<msr::AddressIndex> ref_;
  std::unique_ptr<msr::AddressIndex> flat_;
  std::map<Address, BlockId> live_;
  std::uint64_t next_seq_ = 1;
};

TEST(AddressIndexProperty, RandomizedOperationSequencesMatchReference) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
    std::mt19937_64 rng(seed);
    Harness h;
    for (int round = 0; round < 6; ++round) {
      // Burst of inserts (some deliberately overlapping / zero-sized).
      for (int i = 0; i < 300; ++i) {
        const Address base = 64 + (rng() % 40000) * 8;
        const std::uint64_t size = (rng() % 10 == 0) ? 0 : 8 + rng() % 120;
        h.insert(base, size);
        if (::testing::Test::HasFatalFailure()) return;
      }
      // Mixed probes: interior hits, gaps, far out-of-range both sides.
      for (int i = 0; i < 800; ++i) {
        Address addr = rng() % 400000;
        if (i % 17 == 0) addr = 0;
        if (i % 23 == 0) addr = ~0ull - (rng() % 64);
        h.check_lookup(addr);
        if (::testing::Test::HasFatalFailure()) return;
      }
      // Erase a slice, then probe again (tombstone path).
      const std::size_t victims = h.live_count() / 3;
      for (std::size_t i = 0; i < victims; ++i) h.erase_random(rng);
      for (int i = 0; i < 400; ++i) h.check_lookup(rng() % 400000);
      h.check_full_state();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// Registration orders a process produces, over evenly spaced blocks
/// spanning several chunks.
std::vector<Address> ordered_bases(const char* order, std::size_t n, std::uint64_t seed) {
  std::vector<Address> bases(n);
  for (std::size_t i = 0; i < n; ++i) bases[i] = 0x10000 + i * 64;
  const std::string o = order;
  if (o == "descending") std::reverse(bases.begin(), bases.end());
  if (o == "shuffled") std::shuffle(bases.begin(), bases.end(), std::mt19937_64(seed));
  return bases;
}

TEST(AddressIndexProperty, RegistrationOrdersMatchReference) {
  const std::size_t n = 4 * msr::kChunkEntries + 37;
  for (const char* order : {"ascending", "descending", "shuffled"}) {
    SCOPED_TRACE(order);
    Harness h;
    for (const Address base : ordered_bases(order, n, 5)) {
      ASSERT_TRUE(h.inserted(base, 48));
    }
    h.check_full_state();
    h.check_all_edges();
    if (::testing::Test::HasFatalFailure()) return;
    // Every block overlaps a re-registration of itself, shifted either way.
    for (const Address base : ordered_bases(order, n, 6)) {
      EXPECT_FALSE(h.inserted(base + 8, 48));
      EXPECT_FALSE(h.inserted(base - 8, 16));
    }
    // Erase in a different order than inserted, then refill the gaps.
    const std::vector<Address> victims = ordered_bases("shuffled", n, 7);
    for (std::size_t i = 0; i < n / 2; ++i) h.erase(victims[i]);
    h.check_full_state();
    h.check_all_edges();
    for (std::size_t i = 0; i < n / 2; ++i) ASSERT_TRUE(h.inserted(victims[i], 48));
    h.check_full_state();
  }
}

TEST(AddressIndexProperty, HeapInsertsBelowALiveStackRun) {
  // Stack locals sit above the heap and are registered top-down; heap
  // blocks then arrive in ascending order just below the whole run, so
  // every heap insert lands in front of the stack entries.
  Harness h;
  const Address stack_top = Address{1} << 40;
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(h.inserted(stack_top - (i + 1) * 32, 24));
  std::mt19937_64 rng(3);
  Address heap = 0x100000;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t size = 16 + (rng() % 8) * 16;
    ASSERT_TRUE(h.inserted(heap, size));
    heap += size + (rng() % 3) * 16;
    if (i % 500 == 0) h.check_full_state();
  }
  h.check_full_state();
  h.check_all_edges();
}

TEST(AddressIndexProperty, LifoStackChurnAcrossChunkBoundaries) {
  // Exactly one full chunk of heap blocks, so the first local of every
  // frame opens a new chunk and popping the last local empties it again.
  Harness h;
  for (std::size_t i = 0; i < msr::kChunkEntries; ++i) {
    ASSERT_TRUE(h.inserted(0x1000 + i * 32, 32));
  }
  std::mt19937_64 rng(11);
  const Address stack_top = Address{1} << 40;
  std::vector<Address> frame;
  Address sp = stack_top;
  for (int step = 0; step < 4000; ++step) {
    const bool push = frame.empty() || (frame.size() < 600 && rng() % 5 < 3);
    if (push) {
      sp -= 32;
      ASSERT_TRUE(h.inserted(sp, 24));
      frame.push_back(sp);
    } else {
      h.erase(frame.back());
      frame.pop_back();
      sp += 32;
    }
    if (step % 97 == 0) {
      h.check_lookup(sp);
      h.check_lookup(sp + 24);
      h.check_lookup(0x1000 + msr::kChunkEntries * 32 - 1);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  h.check_full_state();
  while (!frame.empty()) {
    h.erase(frame.back());
    frame.pop_back();
  }
  h.check_full_state();
  h.check_all_edges();
}

TEST(AddressIndexProperty, ChunkBoundaryEditsMatchReference) {
  // Ascending registration fills chunks completely: block i sits in chunk
  // i / kChunkEntries, at 64-byte spacing with a 16-byte gap after each.
  const std::size_t k = msr::kChunkEntries;
  auto base_of = [](std::size_t i) { return Address{0x10000} + i * 64; };
  Harness h;
  for (std::size_t i = 0; i < 3 * k; ++i) ASSERT_TRUE(h.inserted(base_of(i), 48));

  // Overlaps straddling chunk 0's last and chunk 1's first entry are
  // rejected from either side; the exact gap between them is accepted.
  EXPECT_FALSE(h.inserted(base_of(k - 1) + 40, 32));  // tail of k-1 into the gap
  EXPECT_FALSE(h.inserted(base_of(k - 1) + 56, 16));  // gap into head of k
  EXPECT_FALSE(h.inserted(base_of(k - 1) + 8, 120));  // spans both blocks
  EXPECT_TRUE(h.inserted(base_of(k - 1) + 48, 16));   // fills the gap exactly
  h.check_full_state();

  // Erase a chunk's first entry, then its last.
  h.erase(base_of(k));
  h.erase(base_of(2 * k - 1));
  h.check_full_state();
  h.check_all_edges();
  // Empty chunk 2 entirely, front to back; chunk 1 now ends the index.
  for (std::size_t i = 2 * k; i < 3 * k; ++i) h.erase(base_of(i));
  h.check_full_state();
  h.check_all_edges();
  for (std::uint64_t off = 0; off < 64 * k; off += 40) h.check_lookup(base_of(2 * k) + off);
  // Re-register over the emptied range, and across the boundary again.
  EXPECT_TRUE(h.inserted(base_of(k), 48));
  EXPECT_FALSE(h.inserted(base_of(2 * k - 2) + 40, 200));
  for (std::size_t i = 2 * k - 1; i < 3 * k; ++i) ASSERT_TRUE(h.inserted(base_of(i), 48));
  h.check_full_state();
  h.check_all_edges();
}

TEST(AddressIndexProperty, MassEraseThenReinsert) {
  std::mt19937_64 rng(99);
  Harness h;
  for (int i = 0; i < 2000; ++i) h.insert(64 + (rng() % 100000) * 8, 8 + rng() % 56);
  while (h.live_count() > 10) h.erase_random(rng);  // compaction sweep
  h.check_full_state();
  for (int i = 0; i < 500; ++i) h.insert(64 + (rng() % 100000) * 8, 8 + rng() % 56);
  for (int i = 0; i < 1000; ++i) h.check_lookup(rng() % 900000);
  h.check_full_state();
}

}  // namespace
}  // namespace hpm
