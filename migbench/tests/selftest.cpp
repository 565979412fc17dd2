// Self-tests of the benchmark's own code.
//
//   migbench_selftest
//
// 1. Smoke: every workload, untraced and traced, on tiny inputs with all of
//    its checks; no operation may fail and every metric must be finite.
// 2. The state comparison accepts a faithful restore and rejects a restored
//    state with one leaf value altered, one with one heap block dropped and
//    one with a frame local re-pointed to another heap block.
#include <cmath>
#include <cstdio>
#include <string>

#include "apps/bitonic.hpp"
#include "bench.hpp"
#include "ti/leaf.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void smoke(const std::string& workload, bool traced) {
  migbench::Config cfg = migbench::Config::smoke();
  cfg.seed = 3;
  cfg.traced = traced;
  const std::string what = "smoke " + workload + (traced ? " traced" : " untraced");
  try {
    const migbench::Result r = migbench::run_workload(workload, cfg);
    bool finite = !r.metrics.empty();
    for (const migbench::Metric& m : r.metrics) finite = finite && std::isfinite(m.value);
    for (const std::string& note : r.notes) std::printf("  %s\n", note.c_str());
    expect(r.correct && r.attempted > 0 && r.failed == 0 && finite, what);
  } catch (const std::exception& e) {
    expect(false, what + ": " + e.what());
  }
}

/// What the state comparison said of one migration whose restored state
/// `tamper` may have damaged.
enum class Verdict { Accepted, Rejected, MigrationFailed };

Verdict check(const migbench::Program& program, const migbench::Tamper& tamper) {
  const migbench::StateImage ref = migbench::reference_at_poll(program);
  migbench::Probe probe;
  const hpm::MigrationReport report = migbench::migrate_once(program, probe, tamper);
  if (report.outcome != hpm::MigrationOutcome::Migrated || !probe.captured) {
    std::printf("  migration itself failed: %s %s\n", hpm::outcome_name(report.outcome),
                probe.error.c_str());
    return Verdict::MigrationFailed;
  }
  const std::string diff = migbench::compare_state(ref, probe.state);
  if (!diff.empty()) std::printf("  rejected: %s\n", diff.c_str());
  return diff.empty() ? Verdict::Accepted : Verdict::Rejected;
}

std::vector<hpm::msr::MemoryBlock> blocks_of(hpm::MigContext& ctx, hpm::msr::Segment segment) {
  std::vector<hpm::msr::MemoryBlock> blocks;
  ctx.space().msrlt().for_each_block([&](const hpm::msr::MemoryBlock& b) {
    if (b.segment == segment) blocks.push_back(b);
  });
  return blocks;
}

std::vector<hpm::msr::MemoryBlock> heap_blocks(hpm::MigContext& ctx) {
  return blocks_of(ctx, hpm::msr::Segment::Heap);
}

/// Calls fn(cell address) for every pointer cell of every tracked block.
template <typename Fn>
void for_each_pointer_cell(hpm::MigContext& ctx, Fn&& fn) {
  hpm::msr::HostSpace& space = ctx.space();
  std::vector<hpm::msr::MemoryBlock> all;
  space.msrlt().for_each_block([&](const hpm::msr::MemoryBlock& b) { all.push_back(b); });
  for (const hpm::msr::MemoryBlock& b : all) {
    const std::uint64_t elem_size = space.layouts().of(b.type).size;
    for (std::uint32_t e = 0; e < b.count; ++e) {
      hpm::ti::for_each_leaf(space.leaves(), space.layouts(), b.type,
                             [&](const hpm::ti::LeafRef& ref) {
                               if (ref.is_pointer) fn(b.base + e * elem_size + ref.byte_offset);
                             });
    }
  }
}

/// Frees a heap block and clears every pointer to it: a block lost in
/// transfer, with no dangling pointer left to give it away.
void drop_block(hpm::MigContext& ctx, const hpm::msr::MemoryBlock& victim) {
  hpm::msr::HostSpace& space = ctx.space();
  for_each_pointer_cell(ctx, [&](hpm::msr::Address cell) {
    const hpm::msr::Address to = space.read_pointer(cell);
    if (to >= victim.base && to < victim.base + victim.size) space.write_pointer(cell, 0);
  });
  ctx.heap_free(reinterpret_cast<void*>(victim.base));
}

/// Re-points the first frame local that holds a pointer to a heap block at
/// another heap block of the same type (any other one if there is none).
void repoint_frame_local(hpm::MigContext& ctx) {
  hpm::msr::HostSpace& space = ctx.space();
  const std::vector<hpm::msr::MemoryBlock> heap = heap_blocks(ctx);
  for (const hpm::msr::MemoryBlock& local : blocks_of(ctx, hpm::msr::Segment::Stack)) {
    if (local.count != 1 || space.types().at(local.type).kind != hpm::ti::TypeKind::Pointer) {
      continue;
    }
    const hpm::msr::Address to = space.read_pointer(local.base);
    const hpm::msr::MemoryBlock* target = nullptr;
    for (const hpm::msr::MemoryBlock& b : heap) {
      if (b.base == to) target = &b;
    }
    if (target == nullptr) continue;
    const hpm::msr::MemoryBlock* other = nullptr;
    for (const hpm::msr::MemoryBlock& b : heap) {
      if (b.base == to) continue;
      if (other == nullptr || (b.type == target->type && other->type != target->type)) other = &b;
    }
    if (other == nullptr) continue;
    space.write_pointer(local.base, other->base);
    return;
  }
}

void alter_bitonic_leaf(hpm::MigContext& ctx) {
  for (const hpm::msr::MemoryBlock& b : heap_blocks(ctx)) {
    auto* node = reinterpret_cast<hpm::apps::BitonicNode*>(b.base);
    if (node->left == nullptr) {
      node->value ^= 1;
      return;
    }
  }
}

void drop_bitonic_leaf(hpm::MigContext& ctx) {
  for (const hpm::msr::MemoryBlock& b : heap_blocks(ctx)) {
    if (reinterpret_cast<hpm::apps::BitonicNode*>(b.base)->left == nullptr) {
      drop_block(ctx, b);
      return;
    }
  }
}

void alter_linpack_matrix(hpm::MigContext& ctx) {
  hpm::msr::MemoryBlock largest = heap_blocks(ctx).front();
  for (const hpm::msr::MemoryBlock& b : heap_blocks(ctx)) {
    if (b.size > largest.size) largest = b;
  }
  reinterpret_cast<double*>(largest.base)[5] += 1.0;
}

void drop_linpack_pivots(hpm::MigContext& ctx) {
  for (const hpm::msr::MemoryBlock& b : heap_blocks(ctx)) {
    if (ctx.types().spell(b.type) == "int") {
      drop_block(ctx, b);
      return;
    }
  }
}

}  // namespace

int main() {
  for (const std::string& w : migbench::workload_names()) {
    smoke(w, false);
    smoke(w, true);
  }

  const migbench::Program bitonic = migbench::bitonic_job(6, 11);
  const migbench::Program linpack = migbench::linpack_job(32, 5);
  using V = Verdict;
  expect(check(bitonic, {}) == V::Accepted, "state check accepts a faithful bitonic restore");
  expect(check(linpack, {}) == V::Accepted, "state check accepts a faithful linpack restore");
  expect(check(bitonic, alter_bitonic_leaf) == V::Rejected,
         "state check rejects an altered bitonic leaf");
  expect(check(bitonic, drop_bitonic_leaf) == V::Rejected,
         "state check rejects a dropped bitonic block");
  expect(check(bitonic, repoint_frame_local) == V::Rejected,
         "state check rejects a re-pointed bitonic frame local");
  expect(check(linpack, alter_linpack_matrix) == V::Rejected,
         "state check rejects an altered matrix element");
  expect(check(linpack, drop_linpack_pivots) == V::Rejected,
         "state check rejects a dropped linpack block");
  expect(check(linpack, repoint_frame_local) == V::Rejected,
         "state check rejects a re-pointed linpack frame local");

  std::printf("%s: %d failure(s)\n", failures == 0 ? "ALL PASS" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
