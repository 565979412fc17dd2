// Validates the paper's §4.2 cost model using the MSRLT operation
// counters instead of wall-clock time (deterministic, CI-safe):
//
//   Collect = MSRLT_search (one address search per pointer followed,
//             O(log n) steps each)  +  Encode-and-copy O(sum Di)
//   Restore = MSRLT_update (one table append per block, never a search)
//             + Decode-and-copy O(sum Di)
//
// The registration side is checked the same way: the FlatArray index
// reports the entries it compares and moves, and the work per insert must
// not grow with n for any registration order.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "apps/workload.hpp"
#include "msr/address_index.hpp"
#include "msr/host_space.hpp"
#include "msrm/collect.hpp"
#include "msrm/restore.hpp"
#include "obs/metrics.hpp"

namespace hpm {
namespace {

using apps::GraphShape;
using apps::RandNode;
using msr::Address;

struct Metrics {
  std::uint64_t searches = 0;
  std::uint64_t search_steps = 0;
  std::uint64_t restore_registrations = 0;
  std::uint64_t restore_searches = 0;
  std::uint64_t blocks = 0;
  std::uint64_t bytes = 0;
};

Metrics run_chain(std::uint32_t n) {
  ti::TypeTable table;
  apps::workload_register_types(table);
  mig::MigContext src(table);
  RandNode*& root = src.global<RandNode*>("root");
  GraphShape shape;
  shape.nodes = n;
  shape.edge_density = 0.75;
  shape.share_bias = 0.5;
  const auto nodes = apps::build_random_graph(src, 42, shape);
  root = nodes[0];

  // Per-phase registry deltas: the instruments are process-wide, so the
  // collect and restore windows are bracketed with snapshots.
  const obs::MetricsSnapshot pre_collect = obs::Registry::process().snapshot();
  xdr::Encoder enc;
  msrm::Collector collector(src.space(), enc);
  collector.save_variable(reinterpret_cast<Address>(&root));
  const obs::MetricsSnapshot post_collect = obs::Registry::process().snapshot();

  msr::HostSpace dst(table);
  xdr::Decoder dec(enc.bytes());
  msrm::Restorer restorer(dst, dec);
  restorer.set_auto_bind(true);
  restorer.restore_variable();
  const obs::MetricsSnapshot post_restore = obs::Registry::process().snapshot();

  const obs::MetricsSnapshot collect_delta = post_collect.delta_since(pre_collect);
  const obs::MetricsSnapshot restore_delta = post_restore.delta_since(post_collect);
  Metrics r;
  r.searches = collect_delta.counter("msr.msrlt.searches");
  r.search_steps = collect_delta.counter("msr.msrlt.search_steps");
  r.restore_registrations = restore_delta.counter("msr.msrlt.registrations");
  r.restore_searches = restore_delta.counter("msr.msrlt.searches");
  r.blocks = collect_delta.counter("msrm.collect.blocks_saved");
  r.bytes = enc.size();
  return r;
}

TEST(ComplexityModel, CollectionSearchesOncePerFollowedPointer) {
  const Metrics r = run_chain(200);
  // Each non-null pointer leaf triggers exactly one MSRLT search (the
  // resolve); blocks have 4 slots, so searches are bounded by 4 per node
  // plus the root variable.
  EXPECT_GE(r.searches, r.blocks - 1);  // at least one per discovered block
  EXPECT_LE(r.searches, r.blocks * 4 + 1);
}

TEST(ComplexityModel, SearchStepsGrowAsNLogN) {
  const Metrics small = run_chain(100);
  const Metrics large = run_chain(800);
  const double n_ratio =
      static_cast<double>(large.searches) / static_cast<double>(small.searches);
  const double step_ratio =
      static_cast<double>(large.search_steps) / static_cast<double>(small.search_steps);
  // steps/search ~ log n: the step ratio exceeds the pure count ratio but
  // stays well below quadratic growth.
  EXPECT_GT(step_ratio, n_ratio * 1.05);
  EXPECT_LT(step_ratio, n_ratio * 3.0);
}

TEST(ComplexityModel, RestorationNeverSearchesByAddress) {
  // "the data restoration algorithm only spends constant time to restore
  // the items according to the MSRLT" — per-BLOCK restoration performs no
  // address search at all; the only search is the single final validation
  // of each restore_variable() call (one here), constant in n.
  for (std::uint32_t n : {50u, 200u, 800u}) {
    const Metrics r = run_chain(n);
    EXPECT_EQ(r.restore_searches, 1u) << n;
    EXPECT_EQ(r.restore_registrations, r.blocks) << n;
  }
}

TEST(ComplexityModel, LinpackProfileKeepsSearchCountConstant) {
  // Few huge blocks: scaling the data 16x must not change the number of
  // MSRLT searches (the paper's "MSRLT search time held constant").
  auto run_linpack_like = [](std::uint32_t elems) {
    ti::TypeTable table;
    msr::HostSpace space(table);
    std::vector<double> a(elems, 1.0), b(elems / 10 + 1, 2.0);
    space.track_raw(msr::Segment::Heap, a.data(), table.primitive(xdr::PrimKind::Double),
                    elems, "a");
    space.track_raw(msr::Segment::Heap, b.data(), table.primitive(xdr::PrimKind::Double),
                    elems / 10 + 1, "b");
    double* pa = a.data();
    double* pb = b.data();
    space.track(msr::Segment::Global, pa, "pa", ti::native_type_id<double*>(table), 1);
    space.track(msr::Segment::Global, pb, "pb", ti::native_type_id<double*>(table), 1);
    const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
    xdr::Encoder enc;
    msrm::Collector collector(space, enc);
    collector.save_variable(reinterpret_cast<Address>(&pa));
    collector.save_variable(reinterpret_cast<Address>(&pb));
    const std::uint64_t searches =
        obs::Registry::process().snapshot().delta_since(before).counter("msr.msrlt.searches");
    return std::pair{searches, enc.size()};
  };
  const auto [s1, bytes1] = run_linpack_like(10000);
  const auto [s2, bytes2] = run_linpack_like(160000);
  EXPECT_EQ(s1, s2);               // search term constant
  EXPECT_GT(bytes2, bytes1 * 15);  // encode term linear in sum Di
}

TEST(ComplexityModel, StreamBytesScaleWithPayload) {
  const Metrics small = run_chain(100);
  const Metrics large = run_chain(800);
  const double blocks_ratio =
      static_cast<double>(large.blocks) / static_cast<double>(small.blocks);
  const double bytes_ratio =
      static_cast<double>(large.bytes) / static_cast<double>(small.bytes);
  EXPECT_NEAR(bytes_ratio, blocks_ratio, blocks_ratio * 0.5);
}

/// Registration work (entries compared + moved) per insert of n blocks
/// into a fresh FlatArray index, in the given order.
double flat_work_per_insert(const std::string& order, std::size_t n) {
  std::vector<Address> bases(n);
  for (std::size_t i = 0; i < n; ++i) bases[i] = 0x10000 + i * 64;
  if (order == "descending") std::reverse(bases.begin(), bases.end());
  if (order == "shuffled") std::shuffle(bases.begin(), bases.end(), std::mt19937_64(n));
  auto index = msr::make_address_index(msr::SearchStrategy::FlatArray);
  if (order == "below_stack") {
    // A 64-block stack run above the heap, registered first (top-down).
    for (std::size_t i = 0; i < 64; ++i) {
      msr::MemoryBlock local;
      local.id = msr::make_block_id(msr::Segment::Stack, i + 1);
      local.segment = msr::Segment::Stack;
      local.base = (Address{1} << 40) - (i + 1) * 64;
      local.size = 48;
      index->insert(std::move(local));
    }
  }
  const msr::AddressIndex::Work before = index->work();
  std::uint64_t seq = 1;
  for (const Address base : bases) {
    msr::MemoryBlock block;
    block.id = msr::make_block_id(msr::Segment::Heap, seq++);
    block.base = base;
    block.size = 48;
    index->insert(std::move(block));
  }
  const msr::AddressIndex::Work after = index->work();
  EXPECT_EQ(after.inserts - before.inserts, n);
  const double work =
      static_cast<double>((after.scanned - before.scanned) + (after.moved - before.moved));
  return work / static_cast<double>(n);
}

TEST(ComplexityModel, FlatRegistrationWorkPerInsertStaysFlat) {
  // Restoration registers one block per PNEW, in whatever order the
  // allocator hands out storage. O(log n) search plus a bounded in-chunk
  // move means 16x the blocks costs at most 2x the work per insert; an
  // index that rescans or reshuffles O(n) entries per insert fails here.
  for (const char* order : {"ascending", "descending", "shuffled", "below_stack"}) {
    const double small = flat_work_per_insert(order, std::size_t{1} << 12);
    const double large = flat_work_per_insert(order, std::size_t{1} << 16);
    EXPECT_GT(small, 0.0) << order;
    EXPECT_LE(large, 2.0 * small) << order << ": " << small << " -> " << large;
  }
}

}  // namespace
}  // namespace hpm
