// Shared harness for the experiment-regeneration benches: run a
// migratable program up to a trigger, measure Collect, model Tx, then
// restore on a fresh context measuring Restore — the three columns of
// the paper's Table 1.
#pragma once

#include <cstdio>
#include <functional>

#include "mig/annotate.hpp"
#include "mig/context.hpp"
#include "net/simnet.hpp"
#include "obs/metrics.hpp"

namespace hpm::bench {

struct Measurement {
  std::uint64_t bytes = 0;
  double collect_s = 0;
  double restore_s = 0;
  double tx_10mbps = 0;
  double tx_100mbps = 0;
  /// Registry deltas across the two phases; the collect delta also carries
  /// the source MSRLT search/step counters (`msr.msrlt.*`).
  obs::MetricsSnapshot collect;
  obs::MetricsSnapshot restore;
};

/// Collect at poll `at_poll` on a fresh source context, then restore on a
/// fresh destination context (stopping right after restoration). Both
/// contexts register types independently, like two pre-distributed
/// binaries, and index their MSRLTs with `search`.
inline Measurement measure_migration(
    const std::function<void(ti::TypeTable&)>& register_types,
    const std::function<void(mig::MigContext&)>& program, std::uint64_t at_poll = 1,
    msr::SearchStrategy search = msr::SearchStrategy::FlatArray) {
  Measurement m;
  ti::TypeTable src_types;
  register_types(src_types);
  mig::MigContext src(src_types, search);
  src.set_migrate_at_poll(at_poll);
  bool migrated = false;
  try {
    program(src);
  } catch (const mig::MigrationExit&) {
    migrated = true;
  }
  if (!migrated) {
    std::fprintf(stderr, "measure_migration: program finished before poll %llu\n",
                 static_cast<unsigned long long>(at_poll));
    return m;
  }
  m.bytes = src.stream().size();
  m.collect_s = src.metrics().collect_seconds;
  m.collect = src.metrics().collect;
  m.tx_10mbps = net::SimulatedLink::ethernet_10mbps().transfer_seconds(m.bytes);
  m.tx_100mbps = net::SimulatedLink::ethernet_100mbps().transfer_seconds(m.bytes);

  ti::TypeTable dst_types;
  register_types(dst_types);
  mig::MigContext dst(dst_types, search);
  dst.begin_restore(src.stream());
  dst.set_stop_after_restore(true);
  try {
    program(dst);
  } catch (const mig::MigrationExit&) {
    // Expected: restoration finished; the program tail was skipped.
  }
  m.restore_s = dst.metrics().restore_seconds;
  m.restore = dst.metrics().restore;
  return m;
}

}  // namespace hpm::bench
