// Address <-> (block id, leaf ordinal) translation.
//
// This is the machine-independent pointer format of the paper: the
// "pointer header" is the logical block id from the MSRLT and the offset
// is the ordering number of the data element the pointer refers to.
#pragma once

#include "common/error.hpp"
#include "msr/space.hpp"

namespace hpm::msr {

/// Machine-independent pointer value.
struct LogicalPointer {
  BlockId block = kInvalidBlock;  ///< pointer header
  std::uint64_t leaf = 0;         ///< element ordinal inside the block
};

/// Leaf ordinal of `addr` inside `block` (which must contain it).
inline std::uint64_t leaf_ordinal(const MemorySpace& space, const MemoryBlock& block,
                                  Address addr) {
  const std::uint64_t elem_size = space.layouts().of(block.type).size;
  const std::uint64_t byte_off = addr - block.base;
  const std::uint64_t elem_idx = byte_off / elem_size;
  const std::uint64_t per_elem = space.leaves().count(block.type);
  const std::uint64_t inner =
      ti::ordinal_of(space.leaves(), space.layouts(), block.type, byte_off - elem_idx * elem_size);
  return elem_idx * per_elem + inner;
}

/// Address of leaf ordinal `leaf` inside `block`; throws MsrError past the
/// block's end.
inline Address leaf_address(const MemorySpace& space, const MemoryBlock& block,
                            std::uint64_t leaf) {
  const std::uint64_t per_elem = space.leaves().count(block.type);
  const std::uint64_t elem_idx = leaf / per_elem;
  if (elem_idx >= block.count) {
    throw MsrError("logical pointer leaf ordinal beyond end of block '" + block.name + "'");
  }
  const ti::LeafRef ref =
      ti::leaf_at(space.leaves(), space.layouts(), block.type, leaf % per_elem);
  const std::uint64_t elem_size = space.layouts().of(block.type).size;
  return block.base + elem_idx * elem_size + ref.byte_offset;
}

/// The error for a pointer value that lies in no tracked block.
[[noreturn]] inline void throw_untracked_pointer(Address addr) {
  throw MsrError("pointer " + std::to_string(addr) +
                 " does not refer to any tracked memory block");
}

/// Translate a space address to its logical form. The address must fall
/// exactly on a data element of a tracked block; pointers into untracked
/// memory or into padding are hard errors (the MSR model has no meaning
/// for them).
inline LogicalPointer resolve_pointer(const MemorySpace& space, Address addr) {
  const MemoryBlock* block = space.msrlt().find_containing(addr);
  if (block == nullptr) throw_untracked_pointer(addr);
  return LogicalPointer{block->id, leaf_ordinal(space, *block, addr)};
}

/// Translate a logical pointer back to a space address (plus the leaf's
/// shape, which restoration uses for validation).
inline Address address_of(const MemorySpace& space, const LogicalPointer& lp) {
  const MemoryBlock* block = space.msrlt().find_id(lp.block);
  if (block == nullptr) {
    throw MsrError("logical pointer refers to unknown block id " + std::to_string(lp.block));
  }
  return leaf_address(space, *block, lp.leaf);
}

}  // namespace hpm::msr
