// The migration benchmark: three workloads driven through the public API
// (hpm::run_migration, hpm::migrate_many, hpm::MigContext), every result
// checked apart from the engine, metrics printed by name with units.
// README.md in this directory defines each workload and metric.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "heapcheck.hpp"
#include "hpm/migrate.hpp"
#include "spans.hpp"

namespace migbench {

/// Input sizes and run control. The defaults are the measured workloads;
/// smoke() shrinks every input so the whole suite runs in seconds.
struct Config {
  int linpack_n = 1000;
  int bitonic_log2 = 17;    ///< migrated bitonic tree
  int job_log2 = 12;        ///< fleet jobs and the bitonic/fleet app runs
  std::uint64_t seed = 1;
  double seconds = 30;
  int setup_repeats = 0;    ///< set-ups per untraced run; 0 = the workload's own count
  bool traced = false;
  std::string trace_path;   ///< Chrome trace written at the end of a traced run

  static Config smoke();
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines printed before the JSON
};

const std::vector<std::string>& workload_names();

/// Run one workload for cfg.seconds. Throws hpm::Error (or
/// std::invalid_argument for an unknown name) when set-up fails.
Result run_workload(const std::string& name, const Config& cfg);

/// --- pieces the self-tests drive directly ---------------------------------

/// A migratable program plus the type registration both hosts run.
struct Program {
  std::function<void(hpm::ti::TypeTable&)> register_types;
  std::function<void(hpm::MigContext&)> run;
};

Program linpack_job(int n, std::uint64_t seed);
Program bitonic_job(int log2_leaves, std::uint64_t seed);

/// The program's state at the migration poll, read in a bare MigContext.
StateImage reference_at_poll(const Program& program);

/// What the benchmark's program wrapper saw of one migration.
struct Probe {
  Clock::time_point entry{}, request{}, collected{}, dest_entry{}, resume{};
  int dest_runs = 0;
  bool captured = false;
  StateImage state;           ///< the destination's restored state
  Clock::time_point capture_start{}, capture_end{};
  hpm::obs::MetricsSnapshot capture_counts;  ///< registry activity of the capture itself
  std::string error;
};

/// Runs on the destination context after restore, before its state is
/// captured. Only the self-tests set one, to damage a restored state.
using Tamper = std::function<void(hpm::MigContext&)>;

/// One migration of `program` at poll 1 over a fresh loopback socket with
/// default RunOptions otherwise.
hpm::MigrationReport migrate_once(const Program& program, Probe& probe,
                                  const Tamper& tamper = {});

}  // namespace migbench
