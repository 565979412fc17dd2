// Ablation: the MSRLT's address-search strategies against each other.
//
// The paper's O(n log n) collection term assumes an efficient
// address->block search. This ablation collects the same bitonic-profile
// graph under all three strategies — the reference ordered map, a
// deliberately naive linear scan, and the flat sorted interval array with
// its branchless binary search — showing why the data structure choice is
// load-bearing. All strategies sit behind the set-associative lookup
// cache; per-strategy derived ratios (search_steps_per_search,
// cache_hit_ratio) are reported alongside the raw counters so a
// regression in either is one JSON row, not a division exercise.
//
// The registration side — what restoration pays once per block — is
// measured too: bulk registration of evenly spaced blocks into a fresh
// MSRLT, in ascending and shuffled address order, reported as ns/block
// per strategy, plus msrlt.register.flat_speedup_vs_map.{ascending,shuffled}
// (ordered-map time over flat-array time, one ratio per order), which the
// perf_guard_registration ctest gates from below.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <vector>

#include "apps/workload.hpp"
#include "emit.hpp"
#include "msrm/collect.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace hpm;

void collect_graph(msr::SearchStrategy strategy, std::uint32_t nodes,
                   benchmark::State& state) {
  ti::TypeTable types;
  apps::workload_register_types(types);
  mig::MigContext ctx(types, strategy);
  apps::RandNode*& root = ctx.global<apps::RandNode*>("root");
  apps::GraphShape shape;
  shape.nodes = nodes;
  shape.edge_density = 0.8;
  shape.share_bias = 0.5;
  const auto all = apps::build_random_graph(ctx, 7, shape);
  root = all[0];
  for (auto _ : state) {
    xdr::Encoder enc(1 << 20);
    msrm::Collector collector(ctx.space(), enc);
    collector.save_variable(reinterpret_cast<msr::Address>(&root));
    benchmark::DoNotOptimize(enc.size());
  }
  state.SetLabel(std::to_string(nodes) + " blocks");
}

void BM_collect_ordered_map(benchmark::State& state) {
  collect_graph(msr::SearchStrategy::OrderedMap, static_cast<std::uint32_t>(state.range(0)),
                state);
}
BENCHMARK(BM_collect_ordered_map)->Arg(1000)->Arg(4000)->Arg(16000)->Unit(benchmark::kMillisecond);

void BM_collect_linear_scan(benchmark::State& state) {
  collect_graph(msr::SearchStrategy::LinearScan, static_cast<std::uint32_t>(state.range(0)),
                state);
}
BENCHMARK(BM_collect_linear_scan)->Arg(1000)->Arg(4000)->Arg(16000)->Unit(benchmark::kMillisecond);

void BM_collect_flat_array(benchmark::State& state) {
  collect_graph(msr::SearchStrategy::FlatArray, static_cast<std::uint32_t>(state.range(0)),
                state);
}
BENCHMARK(BM_collect_flat_array)->Arg(1000)->Arg(4000)->Arg(16000)->Unit(benchmark::kMillisecond);

/// One timed collection pass per strategy for the JSON report.
double timed_collect(msr::SearchStrategy strategy, std::uint32_t nodes) {
  ti::TypeTable types;
  apps::workload_register_types(types);
  mig::MigContext ctx(types, strategy);
  apps::RandNode*& root = ctx.global<apps::RandNode*>("root");
  apps::GraphShape shape;
  shape.nodes = nodes;
  shape.edge_density = 0.8;
  shape.share_bias = 0.5;
  const auto all = apps::build_random_graph(ctx, 7, shape);
  root = all[0];
  const auto t0 = std::chrono::steady_clock::now();
  xdr::Encoder enc(1 << 20);
  msrm::Collector collector(ctx.space(), enc);
  collector.save_variable(reinterpret_cast<msr::Address>(&root));
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Best-of-`repeats` ns per block to register `bases` (16-byte blocks)
/// into a fresh MSRLT under `strategy`, teardown excluded.
double register_ns_per_block(msr::SearchStrategy strategy, const std::vector<msr::Address>& bases,
                             int repeats) {
  double best = 0;
  for (int r = 0; r < repeats; ++r) {
    msr::Msrlt table(strategy);
    const auto t0 = std::chrono::steady_clock::now();
    for (const msr::Address base : bases) {
      table.register_block(msr::Segment::Heap, base, 16, 1, 1);
    }
    const double ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count();
    benchmark::DoNotOptimize(table.block_count());
    const double per_block = ns / static_cast<double>(bases.size());
    best = (r == 0) ? per_block : std::min(best, per_block);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const hpm::bench::BenchArgs args = hpm::bench::parse_bench_args(argc, argv);
  if (!args.smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  hpm::bench::BenchReport report("ablation_msrlt", args.smoke);
  const std::uint32_t nodes = args.smoke ? 1000 : 16000;
  const struct {
    const char* key;
    msr::SearchStrategy strategy;
  } rows[] = {
      {"ordered_map", msr::SearchStrategy::OrderedMap},
      {"linear_scan", msr::SearchStrategy::LinearScan},
      {"flat_array", msr::SearchStrategy::FlatArray},
  };
  for (const auto& row : rows) {
    const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
    const double seconds = timed_collect(row.strategy, nodes);
    const obs::MetricsSnapshot delta =
        obs::Registry::process().snapshot().delta_since(before);
    const double searches = static_cast<double>(delta.counter("msr.msrlt.searches"));
    const double steps = static_cast<double>(delta.counter("msr.msrlt.search_steps"));
    const double hits = static_cast<double>(delta.counter("msr.msrlt.cache_hits"));
    const std::string prefix = std::string(row.key) + ".";
    report.add("collect_seconds." + std::string(row.key), seconds, "seconds");
    report.add(prefix + "searches", searches, "count");
    report.add(prefix + "search_steps", steps, "count");
    report.add(prefix + "cache_hits", hits, "count");
    report.add_ratio(prefix + "search_steps_per_search", steps, searches, "steps");
    report.add_ratio(prefix + "cache_hit_ratio", hits, searches);
    std::printf("%-12s %.4fs  %.2f steps/search, %.1f%% cache hits\n", row.key, seconds,
                searches > 0 ? steps / searches : 0,
                searches > 0 ? hits / searches * 100 : 0);
  }

  // Bulk registration (the restore-side MSRLT update), per strategy.
  const std::size_t reg_blocks = args.smoke ? (std::size_t{1} << 14) : (std::size_t{1} << 17);
  std::vector<msr::Address> ascending(reg_blocks);
  for (std::size_t i = 0; i < reg_blocks; ++i) ascending[i] = 0x100000 + i * 32;
  std::vector<msr::Address> shuffled = ascending;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(17));
  double map_asc = 0, map_shuf = 0;
  double flat_asc = 0, flat_shuf = 0;
  for (const auto& row : rows) {
    const double asc = register_ns_per_block(row.strategy, ascending, 3);
    const double shuf = register_ns_per_block(row.strategy, shuffled, 3);
    const std::string prefix = std::string("msrlt.register.") + row.key;
    report.add(prefix + ".ascending_ns_per_block", asc, "ns");
    report.add(prefix + ".shuffled_ns_per_block", shuf, "ns");
    if (row.strategy == msr::SearchStrategy::OrderedMap) map_asc = asc, map_shuf = shuf;
    if (row.strategy == msr::SearchStrategy::FlatArray) flat_asc = asc, flat_shuf = shuf;
    std::printf("%-12s register %.1f ns/block ascending, %.1f ns/block shuffled (%zu blocks)\n",
                row.key, asc, shuf, reg_blocks);
  }
  // One ratio per order: the ascending fast path must not hide a
  // random-order loss against the map.
  report.add_ratio("msrlt.register.flat_speedup_vs_map.ascending", map_asc, flat_asc);
  report.add_ratio("msrlt.register.flat_speedup_vs_map.shuffled", map_shuf, flat_shuf);
  std::printf("flat_array registers %.2fx (ascending) / %.2fx (shuffled) as fast as ordered_map\n",
              flat_asc > 0 ? map_asc / flat_asc : 0, flat_shuf > 0 ? map_shuf / flat_shuf : 0);
  return report.write_if_requested(args) ? 0 : 1;
}
