#include "msr/address_index.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <new>
#include <string>

#include "common/error.hpp"

namespace hpm::msr {

namespace {

[[noreturn]] void throw_overlap(const MemoryBlock& incoming, const MemoryBlock& existing) {
  throw MsrError("block [" + std::to_string(incoming.base) + ", +" +
                 std::to_string(incoming.size) + ") overlaps existing block '" +
                 existing.name + "'");
}

void check_size(const MemoryBlock& block) {
  if (block.size == 0) throw MsrError("cannot register zero-sized block");
}

/// The seed's reference structure: a std::map keyed by base address.
/// Doubles as the LinearScan ablation (same storage, degraded search).
class MapIndex final : public AddressIndex {
 public:
  explicit MapIndex(bool linear_scan) : linear_scan_(linear_scan) {}

  MemoryBlock* insert(MemoryBlock block) override {
    check_size(block);
    auto next = by_addr_.lower_bound(block.base);
    if (next != by_addr_.end() && next->first < block.base + block.size) {
      throw_overlap(block, next->second);
    }
    if (next != by_addr_.begin()) {
      auto prev = std::prev(next);
      if (prev->second.base + prev->second.size > block.base) {
        throw_overlap(block, prev->second);
      }
    }
    const Address base = block.base;
    return &by_addr_.emplace_hint(next, base, std::move(block))->second;
  }

  void erase(Address base) override {
    auto it = by_addr_.find(base);
    if (it == by_addr_.end()) {
      throw MsrError("unregister: no block based at " + std::to_string(base));
    }
    by_addr_.erase(it);
  }

  MemoryBlock* find_base(Address base) noexcept override {
    auto it = by_addr_.find(base);
    return it == by_addr_.end() ? nullptr : &it->second;
  }

  const MemoryBlock* find_containing(Address addr, std::uint64_t& steps) const noexcept override {
    if (linear_scan_) {
      for (const auto& [base, block] : by_addr_) {
        ++steps;
        if (addr >= base && addr < base + block.size) return &block;
      }
      return nullptr;
    }
    // OrderedMap: the candidate is the last block whose base <= addr.
    auto it = by_addr_.upper_bound(addr);
    // ~log2(n) comparisons; recorded so benches can confirm the
    // O(n log n) aggregate search term without a profiler.
    std::uint64_t n = by_addr_.size();
    std::uint64_t s = 1;
    while (n > 1) {
      n >>= 1;
      ++s;
    }
    steps += s;
    if (it == by_addr_.begin()) return nullptr;
    --it;
    const MemoryBlock& block = it->second;
    if (addr >= block.base + block.size) return nullptr;
    return &block;
  }

  [[nodiscard]] std::size_t size() const noexcept override { return by_addr_.size(); }

  void for_each(const std::function<void(const MemoryBlock&)>& fn) const override {
    for (const auto& [base, block] : by_addr_) fn(block);
  }

  FrozenIndex freeze() const override {
    std::vector<FrozenIndex::Entry> entries;
    entries.reserve(by_addr_.size());
    for (const auto& [base, block] : by_addr_) {
      entries.push_back({base, block.size, &block});
    }
    return FrozenIndex(std::move(entries));
  }

 private:
  bool linear_scan_;
  std::map<Address, MemoryBlock> by_addr_;
};

/// Slot arena for MemoryBlock records: fixed pages plus an intrusive free
/// list. Records never move, so a MemoryBlock* stays valid until the
/// record is destroyed; a destroyed cell is reused by the next make().
class BlockArena {
 public:
  BlockArena() = default;
  BlockArena(const BlockArena&) = delete;
  BlockArena& operator=(const BlockArena&) = delete;

  MemoryBlock* make(MemoryBlock&& block) {
    Cell* cell = free_;
    if (cell != nullptr) {
      free_ = cell->next;
    } else {
      if (used_ == kPageCells) {
        pages_.push_back(std::make_unique<Cell[]>(kPageCells));
        used_ = 0;
      }
      cell = &pages_.back()[used_++];
    }
    return new (&cell->block) MemoryBlock(std::move(block));
  }

  void destroy(MemoryBlock* block) noexcept {
    block->~MemoryBlock();
    Cell* cell = reinterpret_cast<Cell*>(block);  // the union's first member
    cell->next = free_;
    free_ = cell;
  }

 private:
  union Cell {
    Cell() {}
    ~Cell() {}
    MemoryBlock block;
    Cell* next;
  };
  // 512 records (40 KiB) per page: small enough that a handful of blocks
  // costs little, large enough that 262k blocks are ~500 allocations.
  static constexpr std::size_t kPageCells = 512;

  std::vector<std::unique_ptr<Cell[]>> pages_;
  std::size_t used_ = kPageCells;  // cells handed out from the last page
  Cell* free_ = nullptr;
};

/// Chunked sorted interval array (see address_index.hpp).
///
/// Invariants: chunks_ is ordered by base and every chunk is non-empty;
/// firsts_[c] == chunks_[c]->e[0].base; entries are sorted by base across
/// the whole sequence and pairwise disjoint.
class FlatIndex final : public AddressIndex {
 public:
  FlatIndex() = default;

  ~FlatIndex() override {
    for (const auto& chunk : chunks_) {
      for (std::uint32_t i = 0; i < chunk->n; ++i) chunk->e[i].block->~MemoryBlock();
    }
  }

  FlatIndex(const FlatIndex&) = delete;
  FlatIndex& operator=(const FlatIndex&) = delete;

  MemoryBlock* insert(MemoryBlock block) override {
    check_size(block);
    ++work_.inserts;
    if (chunks_.empty()) {
      MemoryBlock* stored = arena_.make(std::move(block));
      insert_chunk(0)->e[0] = {stored->base, stored->size, stored};
      chunks_[0]->n = 1;
      firsts_[0] = stored->base;
      ++size_;
      return stored;
    }
    // Registration in ascending address order (restoration, a growing
    // heap) appends past the last entry: no search needed.
    std::size_t c = chunks_.size() - 1;
    Chunk* ch = chunks_[c].get();
    std::uint32_t pos = ch->n;
    ++work_.scanned;
    if (block.base <= ch->e[pos - 1].base) {
      c = chunk_for(block.base);
      ch = chunks_[c].get();
      pos = upper_in(*ch, block.base);
    }
    // Immediate neighbours, across chunk boundaries.
    const Entry* prev = pos > 0 ? &ch->e[pos - 1]
                        : c > 0 ? &chunks_[c - 1]->e[chunks_[c - 1]->n - 1]
                                : nullptr;
    const Entry* next = pos < ch->n ? &ch->e[pos]
                        : c + 1 < chunks_.size() ? &chunks_[c + 1]->e[0]
                                                 : nullptr;
    work_.scanned += 2;
    if (prev != nullptr && prev->base + prev->size > block.base) throw_overlap(block, *prev->block);
    if (next != nullptr && next->base < block.base + block.size) throw_overlap(block, *next->block);

    MemoryBlock* stored = arena_.make(std::move(block));
    const Entry entry{stored->base, stored->size, stored};
    std::size_t at_chunk = c;
    std::uint32_t at = pos;
    if (ch->n == kChunkEntries) {
      // Split at the insertion point when it is near either end, so
      // ascending, descending and "below a stack run" registration fill
      // chunks completely; split in half otherwise.
      const std::uint32_t n = ch->n;
      const std::uint32_t quarter = n / 4;
      const std::uint32_t cut = (pos <= quarter || pos >= n - quarter) ? pos : n / 2;
      Chunk* right = insert_chunk(c + 1);
      ch = chunks_[c].get();
      right->n = n - cut;
      std::memcpy(right->e, ch->e + cut, sizeof(Entry) * right->n);
      ch->n = cut;
      work_.moved += right->n;
      if (right->n > 0) firsts_[c + 1] = right->e[0].base;
      if (pos > cut || (pos == cut && cut == n)) {
        at_chunk = c + 1;
        at = pos - cut;
      }
    }
    Chunk* dst = chunks_[at_chunk].get();
    std::memmove(dst->e + at + 1, dst->e + at, sizeof(Entry) * (dst->n - at));
    work_.moved += dst->n - at;
    dst->e[at] = entry;
    ++dst->n;
    if (at == 0) firsts_[at_chunk] = entry.base;
    ++size_;
    return stored;
  }

  void erase(Address base) override {
    std::size_t c = 0;
    Entry* e = locate_base(base, &c);
    if (e == nullptr) throw MsrError("unregister: no block based at " + std::to_string(base));
    Chunk* ch = chunks_[c].get();
    const auto pos = static_cast<std::uint32_t>(e - ch->e);
    arena_.destroy(e->block);
    std::memmove(ch->e + pos, ch->e + pos + 1, sizeof(Entry) * (ch->n - pos - 1));
    work_.moved += ch->n - pos - 1;
    --ch->n;
    --size_;
    if (ch->n == 0) {
      drop_chunk(c);
    } else if (pos == 0) {
      firsts_[c] = ch->e[0].base;
    }
  }

  MemoryBlock* find_base(Address base) noexcept override {
    Entry* e = locate_base(base);
    return e == nullptr ? nullptr : e->block;
  }

  const MemoryBlock* find_containing(Address addr, std::uint64_t& steps) const noexcept override {
    ++steps;  // the candidate's containment check
    if (chunks_.empty() || addr < firsts_[0]) return nullptr;
    const std::size_t c = last_chunk_at_or_below(addr, &steps);
    const Chunk& ch = *chunks_[c];
    // Chunk c's first base <= addr, so the candidate exists in it.
    const Entry* lo = ch.e;
    std::size_t len = ch.n;
    while (len > 1) {
      const std::size_t half = len >> 1;
      lo += (lo[half - 1].base <= addr) ? half : 0;
      len -= half;
      ++steps;
    }
    if (lo->base > addr) --lo;
    return addr - lo->base < lo->size ? lo->block : nullptr;
  }

  [[nodiscard]] std::size_t size() const noexcept override { return size_; }

  void for_each(const std::function<void(const MemoryBlock&)>& fn) const override {
    for (const auto& chunk : chunks_) {
      for (std::uint32_t i = 0; i < chunk->n; ++i) fn(*chunk->e[i].block);
    }
  }

  FrozenIndex freeze() const override {
    std::vector<FrozenIndex::Entry> entries(size_);
    std::size_t k = 0;
    for (const auto& chunk : chunks_) {
      for (std::uint32_t i = 0; i < chunk->n; ++i) {
        entries[k++] = {chunk->e[i].base, chunk->e[i].size, chunk->e[i].block};
      }
    }
    return FrozenIndex(std::move(entries));
  }

  [[nodiscard]] Work work() const noexcept override { return work_; }

 private:
  struct Entry {
    Address base;
    std::uint64_t size;
    MemoryBlock* block;
  };
  struct Chunk {
    std::uint32_t n = 0;
    Entry e[kChunkEntries];
  };

  /// Index of the last chunk whose first base <= key (0 if none): the
  /// chunk an entry at `key` belongs in. Branchless binary search over
  /// firsts_; adds its probe count to `steps` when given one.
  std::size_t last_chunk_at_or_below(Address key, std::uint64_t* steps = nullptr) const noexcept {
    const Address* lo = firsts_.data();
    std::size_t len = firsts_.size();
    std::uint64_t s = 0;
    while (len > 1) {
      const std::size_t half = len >> 1;
      lo += (lo[half - 1] <= key) ? half : 0;
      len -= half;
      ++s;
    }
    if (steps != nullptr) *steps += s;
    if (*lo > key && lo != firsts_.data()) --lo;
    return static_cast<std::size_t>(lo - firsts_.data());
  }

  /// Chunk for an insert at `key`, counting the probes as scanned work.
  std::size_t chunk_for(Address key) {
    std::uint64_t s = 0;
    const std::size_t c = last_chunk_at_or_below(key, &s);
    work_.scanned += s;
    return c;
  }

  /// Position of the first entry of `ch` with base > key.
  std::uint32_t upper_in(const Chunk& ch, Address key) {
    std::uint32_t lo = 0;
    std::uint32_t len = ch.n;
    while (len > 0) {
      const std::uint32_t half = len >> 1;
      ++work_.scanned;
      if (ch.e[lo + half].base <= key) {
        lo += half + 1;
        len -= half + 1;
      } else {
        len = half;
      }
    }
    return lo;
  }

  /// Entry based exactly at `base` (its chunk index into `chunk`), or
  /// nullptr.
  Entry* locate_base(Address base, std::size_t* chunk = nullptr) const noexcept {
    if (chunks_.empty()) return nullptr;
    const std::size_t c = last_chunk_at_or_below(base);
    if (chunk != nullptr) *chunk = c;
    Chunk& ch = *chunks_[c];
    Entry* it = std::lower_bound(ch.e, ch.e + ch.n, base,
                                 [](const Entry& e, Address key) { return e.base < key; });
    return it != ch.e + ch.n && it->base == base ? it : nullptr;
  }

  /// New empty chunk at position `c` (reusing the spare when there is one).
  Chunk* insert_chunk(std::size_t c) {
    std::unique_ptr<Chunk> chunk = spare_ ? std::move(spare_) : std::make_unique<Chunk>();
    chunk->n = 0;
    work_.moved += chunks_.size() - c;
    chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(c), std::move(chunk));
    firsts_.insert(firsts_.begin() + static_cast<std::ptrdiff_t>(c), Address{0});
    return chunks_[c].get();
  }

  /// Remove the (empty) chunk at `c`; one freed chunk is kept as a spare
  /// so LIFO churn across a chunk boundary does not allocate.
  void drop_chunk(std::size_t c) {
    work_.moved += chunks_.size() - c - 1;
    spare_ = std::move(chunks_[c]);
    chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(c));
    firsts_.erase(firsts_.begin() + static_cast<std::ptrdiff_t>(c));
  }

  std::vector<Address> firsts_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::unique_ptr<Chunk> spare_;
  BlockArena arena_;
  std::size_t size_ = 0;
  Work work_;
};

}  // namespace

const char* search_strategy_name(SearchStrategy s) noexcept {
  switch (s) {
    case SearchStrategy::OrderedMap: return "ordered_map";
    case SearchStrategy::LinearScan: return "linear_scan";
    case SearchStrategy::FlatArray: return "flat_array";
  }
  return "?";
}

FrozenIndex::FrozenIndex(std::vector<Entry> entries) : entries_(std::move(entries)) {
  slots_.reserve(entries_.size());
  for (std::uint32_t i = 0; i < entries_.size(); ++i) slots_.insert(entries_[i].block->id, i);
}

const MemoryBlock* FrozenIndex::find_containing(Address addr, std::uint64_t& steps) const noexcept {
  const std::size_t n = entries_.size();
  if (n == 0) return nullptr;
  const Entry* lo = entries_.data();
  std::size_t len = n;
  std::uint64_t s = 1;
  while (len > 1) {
    const std::size_t half = len >> 1;
    lo += (lo[half - 1].base <= addr) ? half : 0;
    len -= half;
    ++s;
  }
  steps += s;
  if (lo->base > addr) {
    if (lo == entries_.data()) return nullptr;
    --lo;
  }
  return addr - lo->base < lo->size ? lo->block : nullptr;
}

const MemoryBlock* FrozenIndex::find_id(BlockId id) const noexcept {
  const std::uint32_t* slot = slots_.find(id);
  return slot == nullptr ? nullptr : entries_[*slot].block;
}

std::uint32_t FrozenIndex::slot_of(BlockId id) const noexcept {
  const std::uint32_t* slot = slots_.find(id);
  return slot == nullptr ? static_cast<std::uint32_t>(entries_.size()) : *slot;
}

std::unique_ptr<AddressIndex> make_address_index(SearchStrategy strategy) {
  switch (strategy) {
    case SearchStrategy::OrderedMap: return std::make_unique<MapIndex>(false);
    case SearchStrategy::LinearScan: return std::make_unique<MapIndex>(true);
    case SearchStrategy::FlatArray: return std::make_unique<FlatIndex>();
  }
  return std::make_unique<FlatIndex>();
}

}  // namespace hpm::msr
