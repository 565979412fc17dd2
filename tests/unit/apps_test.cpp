// Workload-level unit tests: the three paper programs behave correctly
// WITHOUT migration (algorithmic baselines) and leak nothing.
#include <gtest/gtest.h>

#include <vector>

#include "apps/bitonic.hpp"
#include "apps/linpack.hpp"
#include "apps/test_pointer.hpp"
#include "apps/workload.hpp"

namespace hpm::apps {
namespace {

TEST(LinpackApp, SolvesAccuratelyAcrossSizes) {
  for (int n : {5, 17, 64, 150}) {
    ti::TypeTable t;
    linpack_register_types(t);
    mig::MigContext ctx(t);
    LinpackResult result;
    linpack_program(ctx, n, 1, &result);
    EXPECT_TRUE(result.ok()) << "n=" << n << " normalized=" << result.normalized;
    EXPECT_EQ(ctx.live_heap_blocks(), 0u) << "leaked blocks at n=" << n;
  }
}

TEST(LinpackApp, DifferentSeedsGiveDifferentSystemsButBothSolve) {
  ti::TypeTable t;
  linpack_register_types(t);
  mig::MigContext ctx(t);
  LinpackResult r1, r2;
  linpack_program(ctx, 40, 1, &r1);
  linpack_program(ctx, 40, 2, &r2);
  EXPECT_TRUE(r1.ok());
  EXPECT_TRUE(r2.ok());
  EXPECT_NE(r1.residual, r2.residual);
}

TEST(LinpackApp, PaperInstanceWithoutMigrationPassesOk) {
  // Table 1's 1000x1000 system. netlib's normalized residual lands near 11
  // here; the HPL scaled residual is the bound ok() applies.
  ti::TypeTable t;
  linpack_register_types(t);
  mig::MigContext ctx(t);
  LinpackResult result;
  linpack_program(ctx, 1000, 1, &result);
  EXPECT_TRUE(result.ok()) << "scaled_residual=" << result.scaled_residual
                           << " normalized=" << result.normalized;
  EXPECT_GT(result.scaled_residual, 0.0);
}

TEST(LinpackApp, PerturbedSolutionFailsOk) {
  // b = A * ones, so x = ones solves the system up to rounding; moving one
  // component by 1e-9 is far outside what a stable solve leaves behind.
  constexpr int n = 64;
  std::vector<double> a(static_cast<std::size_t>(n) * n);
  std::vector<double> b(n, 0.0);
  std::uint32_t lcg = 12345;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      lcg = lcg * 1664525u + 1013904223u;
      const double v = static_cast<double>(lcg >> 8) / (1u << 24) * 2.0 - 1.0;
      a[static_cast<std::size_t>(n) * j + i] = v;
      b[i] += v;
    }
  }
  std::vector<double> x(n, 1.0);
  LinpackResult exact;
  exact.done = true;
  linpack_check(n, a.data(), b.data(), x.data(), &exact);
  EXPECT_TRUE(exact.ok()) << "scaled_residual=" << exact.scaled_residual;

  x[7] += 1e-9;
  LinpackResult perturbed;
  perturbed.done = true;
  linpack_check(n, a.data(), b.data(), x.data(), &perturbed);
  EXPECT_FALSE(perturbed.ok()) << "scaled_residual=" << perturbed.scaled_residual;
  EXPECT_GT(perturbed.residual, exact.residual);
}

TEST(LinpackApp, LiveBytesFormulaMatchesReality) {
  // The Figure 2(a) x-axis helper must track the real stream volume to
  // within the small fixed overhead (headers, ids, small locals).
  ti::TypeTable t;
  linpack_register_types(t);
  mig::MigContext ctx(t);
  ctx.set_migrate_at_poll(1);
  LinpackResult result;
  EXPECT_THROW(linpack_program(ctx, 100, 1, &result), mig::MigrationExit);
  const std::uint64_t predicted = linpack_live_bytes(100);
  EXPECT_GT(ctx.stream().size(), predicted);
  EXPECT_LT(ctx.stream().size(), predicted + 4096);
}

TEST(BitonicApp, SortsPowerOfTwoSizes) {
  for (int log2_leaves : {0, 1, 3, 6, 9}) {
    ti::TypeTable t;
    bitonic_register_types(t);
    mig::MigContext ctx(t);
    BitonicResult result;
    bitonic_program(ctx, log2_leaves, 123, &result);
    EXPECT_TRUE(result.ok()) << "leaves=" << (1 << log2_leaves);
    EXPECT_EQ(result.leaves, 1u << log2_leaves);
    EXPECT_EQ(ctx.live_heap_blocks(), 0u);
  }
}

TEST(BitonicApp, BlockCountFormulaIsExact) {
  ti::TypeTable t;
  bitonic_register_types(t);
  mig::MigContext ctx(t);
  ctx.set_migrate_at_poll(1);
  BitonicResult result;
  EXPECT_THROW(bitonic_program(ctx, 4, 1, &result), mig::MigrationExit);
  // Heap nodes = 2^(d+1)-1; plus a handful of stack/global var blocks.
  const std::uint64_t saved = ctx.metrics().collect.counter("msrm.collect.blocks_saved");
  EXPECT_GE(saved, bitonic_block_count(4));
  EXPECT_LE(saved, bitonic_block_count(4) + 32);
}

TEST(TestPointerApp, AllInvariantsHoldWithoutMigration) {
  ti::TypeTable t;
  test_pointer_register_types(t);
  mig::MigContext ctx(t);
  TestPointerResult result;
  test_pointer_program(ctx, 9, &result);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(ctx.live_heap_blocks(), 0u);
}

TEST(TestPointerApp, SeedParameterizesTheScalarTarget) {
  ti::TypeTable t;
  test_pointer_register_types(t);
  mig::MigContext ctx(t);
  TestPointerResult result;
  test_pointer_program(ctx, 55, &result);  // 42 + 55 = 97
  EXPECT_TRUE(result.ok());
}

TEST(Workload, GraphShapeControlsMatter) {
  ti::TypeTable t;
  workload_register_types(t);
  mig::MigContext ctx(t);
  GraphShape sparse;
  sparse.nodes = 100;
  sparse.edge_density = 0.0;
  const auto isolated = build_random_graph(ctx, 1, sparse);
  for (const RandNode* n : isolated) {
    for (const RandNode* e : n->out) EXPECT_EQ(e, nullptr);
  }
  GraphShape dense;
  dense.nodes = 100;
  dense.edge_density = 1.0;
  const auto connected = build_random_graph(ctx, 1, dense);
  int edges = 0;
  for (const RandNode* n : connected) {
    for (const RandNode* e : n->out) edges += (e != nullptr);
  }
  EXPECT_EQ(edges, 400);
}

TEST(Workload, FingerprintDetectsPayloadCorruption) {
  ti::TypeTable t;
  workload_register_types(t);
  mig::MigContext ctx(t);
  GraphShape shape;
  shape.nodes = 30;
  const auto nodes = build_random_graph(ctx, 5, shape);
  const std::uint64_t before = graph_fingerprint(nodes[0]);
  nodes[0]->weight += 1.0;
  EXPECT_NE(graph_fingerprint(nodes[0]), before);
}

TEST(Workload, FingerprintDetectsLostSharing) {
  ti::TypeTable t;
  workload_register_types(t);
  mig::MigContext ctx(t);
  // a -> {b, b}: shared. Duplicating b changes the fingerprint even
  // though all payloads match — the duplication detector.
  RandNode* a = ctx.heap_alloc<RandNode>(1, "a");
  RandNode* b = ctx.heap_alloc<RandNode>(1, "b");
  RandNode* b2 = ctx.heap_alloc<RandNode>(1, "b2");
  a->tag = 1;
  b->tag = 2;
  b2->tag = 2;
  b->weight = b2->weight = 0.5;
  b->flavor = b2->flavor = 3;
  a->out[0] = b;
  a->out[1] = b;
  const std::uint64_t shared = graph_fingerprint(a);
  a->out[1] = b2;  // same payload, sharing broken
  EXPECT_NE(graph_fingerprint(a), shared);
}

}  // namespace
}  // namespace hpm::apps
