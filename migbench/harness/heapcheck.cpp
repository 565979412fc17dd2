#include "heapcheck.hpp"

#include <cstring>
#include <limits>
#include <map>
#include <unordered_map>

#include "msr/graph.hpp"
#include "ti/leaf.hpp"

namespace migbench {

namespace {

constexpr std::uint32_t kUnpaired = std::numeric_limits<std::uint32_t>::max();

void append_leaf_bytes(const hpm::msr::HostSpace& space, const hpm::msr::MemoryBlock& block,
                       std::vector<std::uint8_t>& out) {
  const hpm::ti::TypeInfo& info = space.types().at(block.type);
  const std::uint8_t* base = space.raw_view(block.base, block.size);
  const std::uint64_t elem_size = space.layouts().of(block.type).size;
  if (info.kind == hpm::ti::TypeKind::Primitive) {
    out.insert(out.end(), base, base + elem_size * block.count);
    return;
  }
  for (std::uint32_t e = 0; e < block.count; ++e) {
    const std::uint8_t* elem = base + e * elem_size;
    hpm::ti::for_each_leaf(space.leaves(), space.layouts(), block.type,
                           [&](const hpm::ti::LeafRef& ref) {
                             if (ref.is_pointer) return;
                             const std::uint8_t* leaf = elem + ref.byte_offset;
                             out.insert(out.end(), leaf,
                                        leaf + space.layouts().of(ref.type).size);
                           });
  }
}

}  // namespace

StateImage capture_state(hpm::mig::MigContext& ctx) {
  const hpm::msr::HostSpace& space = ctx.space();
  const hpm::msr::MsrGraph graph = hpm::msr::MsrGraph::snapshot(space);
  StateImage img;
  std::unordered_map<hpm::msr::BlockId, std::uint32_t> index;
  std::map<std::string, std::uint32_t> names;
  img.bytes_begin.push_back(0);
  for (const hpm::msr::GraphNode& node : graph.nodes()) {
    index.emplace(node.id, static_cast<std::uint32_t>(img.blocks()));
    const auto [it, fresh] =
        names.emplace(node.type, static_cast<std::uint32_t>(img.type_names.size()));
    if (fresh) img.type_names.push_back(node.type);
    img.type.push_back(it->second);
    img.count.push_back(node.count);
    img.segment.push_back(static_cast<std::uint8_t>(node.segment));
    append_leaf_bytes(space, *space.msrlt().find_id(node.id), img.bytes);
    img.bytes_begin.push_back(img.bytes.size());
  }

  // MsrGraph lists a block's out-edges together, in leaf order.
  img.edges_begin.assign(img.blocks() + 1, 0);
  for (const hpm::msr::GraphEdge& e : graph.edges()) ++img.edges_begin[index.at(e.from) + 1];
  for (std::size_t i = 0; i < img.blocks(); ++i) img.edges_begin[i + 1] += img.edges_begin[i];
  img.edges.resize(graph.edges().size());
  std::vector<std::uint64_t> cursor(img.edges_begin.begin(), img.edges_begin.end() - 1);
  for (const hpm::msr::GraphEdge& e : graph.edges()) {
    img.edges[cursor[index.at(e.from)]++] = StateImage::Edge{e.from_leaf, index.at(e.to), e.to_leaf};
  }

  const hpm::mig::ExecutionState state = ctx.snapshot_execution_state();
  for (std::size_t f = 0; f < state.frames.size(); ++f) {
    for (const hpm::mig::SavedVar& var : state.frames[f].vars) {
      img.roots.push_back({std::to_string(f) + ":" + state.frames[f].func + "." + var.name,
                           index.at(var.source_block)});
    }
  }
  for (const hpm::mig::SavedVar& var : state.globals) {
    img.roots.push_back({"global." + var.name, index.at(var.source_block)});
  }
  return img;
}

std::string compare_state(const StateImage& want, const StateImage& got) {
  if (want.roots.size() != got.roots.size()) {
    return std::to_string(got.roots.size()) + " frame locals and globals, expected " +
           std::to_string(want.roots.size());
  }
  std::vector<std::uint32_t> to_got(want.blocks(), kUnpaired);
  std::vector<std::uint32_t> to_want(got.blocks(), kUnpaired);
  std::vector<std::uint32_t> reached;  // `want` blocks in the order first reached
  const auto pair = [&](std::uint32_t a, std::uint32_t b) {
    if (to_got[a] == kUnpaired && to_want[b] == kUnpaired) {
      to_got[a] = b;
      to_want[b] = a;
      reached.push_back(a);
      return true;
    }
    return to_got[a] == b;
  };

  for (std::size_t k = 0; k < want.roots.size(); ++k) {
    const StateImage::Root& a = want.roots[k];
    if (a.name != got.roots[k].name) return "root " + a.name + " is " + got.roots[k].name;
    if (!pair(a.block, got.roots[k].block)) return "root " + a.name + " shares a block wrongly";
  }
  for (std::size_t q = 0; q < reached.size(); ++q) {
    const std::uint32_t i = reached[q];
    const std::uint32_t j = to_got[i];
    const auto where = [&] {
      return "block " + std::to_string(q) + " in walk order (" + want.type_names[want.type[i]] +
             ")";
    };
    if (want.segment[i] != got.segment[j] ||
        want.type_names[want.type[i]] != got.type_names[got.type[j]] ||
        want.count[i] != got.count[j]) {
      return where() + ": segment, type or element count differs";
    }
    const std::uint64_t wb = want.bytes_begin[i], wn = want.bytes_begin[i + 1] - wb;
    const std::uint64_t gb = got.bytes_begin[j], gn = got.bytes_begin[j + 1] - gb;
    if (wn != gn || (wn > 0 && std::memcmp(want.bytes.data() + wb, got.bytes.data() + gb, wn) != 0)) {
      return where() + ": non-pointer leaf bytes differ";
    }
    const std::uint64_t we = want.edges_begin[i], wd = want.edges_begin[i + 1] - we;
    const std::uint64_t ge = got.edges_begin[j], gd = got.edges_begin[j + 1] - ge;
    if (wd != gd) return where() + ": pointer edge count differs";
    for (std::uint64_t k = 0; k < wd; ++k) {
      const StateImage::Edge& a = want.edges[we + k];
      const StateImage::Edge& b = got.edges[ge + k];
      if (a.from_leaf != b.from_leaf || a.to_leaf != b.to_leaf || !pair(a.to, b.to)) {
        return where() + ": pointer edge " + std::to_string(k) + " leads elsewhere";
      }
    }
  }
  if (reached.size() != want.blocks() || reached.size() != got.blocks()) {
    return "the walk from the roots reached " + std::to_string(reached.size()) + " blocks of " +
           std::to_string(want.blocks()) + " expected and " + std::to_string(got.blocks()) +
           " restored";
  }
  return {};
}

}  // namespace migbench
