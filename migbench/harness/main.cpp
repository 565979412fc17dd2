// migbench: one run of one workload of the migration benchmark.
//
//   migbench --workload linpack|bitonic|fleet --seed N --seconds S --trace 0|1
//            [--trace-out trace.json]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 2 without a result on bad arguments or a failed set-up.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "migbench: %s\nusage: migbench --workload linpack|bitonic|fleet --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

void print_result(const migbench::Result& r) {
  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const migbench::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  migbench::Config cfg;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && seconds > 0 && seconds <= 120;
    } else if (arg == "--trace") {
      trace = static_cast<int>(std::strtol(value, &end, 10));
      have_trace = end != value && *end == '\0' && (trace == 0 || trace == 1);
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  cfg.seed = seed;
  cfg.seconds = seconds;
  cfg.traced = trace == 1;
  cfg.trace_path = trace_out;

  try {
    print_result(migbench::run_workload(workload, cfg));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "migbench: %s\n", e.what());
    return 2;
  }
  return 0;
}
