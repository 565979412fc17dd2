// Comparison of a restored state with the source state at the migration
// poll, made apart from the migration engine (paper §4.1).
//
// A StateImage is read from a live context while the program's frames are
// still live. It holds every block of msr::MsrGraph::snapshot (heap, stack
// and global) with its type, element count and the bytes of every
// non-pointer leaf read from the block itself; every pointer edge (source
// leaf -> target block and leaf); and the roots, which are the frame
// locals (outermost frame first) and the globals, by name. It never looks
// at a migration stream.
//
// compare_state walks both images from the roots at the same time and
// pairs blocks in the order they are reached, as apps::graph_fingerprint
// numbers a graph's nodes. Two images hold the same state when the roots
// agree by name, every paired block agrees in segment, type, element
// count, leaf bytes and edges, no block is paired with two others, and no
// block of either image is left unreached: nothing duplicated or lost,
// sharing and values kept.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mig/context.hpp"

namespace migbench {

struct StateImage {
  struct Edge {
    std::uint64_t from_leaf = 0;
    std::uint32_t to = 0;  ///< block index
    std::uint64_t to_leaf = 0;
  };
  struct Root {
    std::string name;  ///< "<frame depth>:<function>.<local>" or "global.<name>"
    std::uint32_t block = 0;
  };

  std::vector<Root> roots;
  std::vector<std::string> type_names;    ///< interned element type spellings
  std::vector<std::uint32_t> type;        ///< per block: index into type_names
  std::vector<std::uint32_t> count;       ///< per block: element count
  std::vector<std::uint8_t> segment;      ///< per block: msr::Segment
  std::vector<std::uint64_t> bytes_begin; ///< per block + 1: leaf bytes in `bytes`
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint64_t> edges_begin; ///< per block + 1: out edges in `edges`
  std::vector<Edge> edges;

  [[nodiscard]] std::size_t blocks() const noexcept { return type.size(); }
};

/// Read the state of `ctx` (see the file comment). Call it while the
/// frames whose locals are roots are live.
StateImage capture_state(hpm::mig::MigContext& ctx);

/// Empty when `got` holds the same state as `want`; otherwise a one-line
/// reason.
std::string compare_state(const StateImage& want, const StateImage& got);

}  // namespace migbench
