// Performance regression guard over BENCH_migration.json.
//
// The bench-smoke fixture runs table1_migration --smoke, then this tool
// checks the emitted hpm-bench-v1 rows against checked-in invariants:
//
//   1. msrlt.search_steps_per_search must be > 0 and <= the ceiling
//      (argv[2], default 32). The flat interval index keeps the
//      address->block search ~O(log n) with the lookup cache pulling the
//      mean toward 1; a regression to linear scanning blows past any
//      log-shaped ceiling immediately (the linear strategy measures in
//      the hundreds of steps per search on the same workload).
//   2. parcollect.bit_identical must be exactly 1: parallel collection
//      is only legal as a latency optimization, never a format change.
//   3. parcollect.thread_speedup must be present and > 0 (the bench
//      computed it from real runs). Magnitude is reported, not gated —
//      wall-clock ratios are too machine-dependent for a hard CI fail.
//   4. dedup.second_run.bytes_ratio must be <= the dedup ceiling
//      (argv[3], default 0.05): an identical rerun against a warm chunk
//      cache moves manifest frames plus noise, never the stream again.
//      Unlike wall-clock ratios this is a byte ratio — fully
//      deterministic, so a hard gate is safe.
//   5. dedup.bit_identical must be exactly 1: dedup'd transfer is only
//      legal as a byte-volume optimization, never a restore change.
//
// A second form gates rows of any hpm-bench-v1 report from below:
//
//   perf_guard --floor <BENCH.json> <row> <min> [<row> <min> ...]
//
// fails when any <row> is missing or below its <min>. The integrity kernel's
// integrity.crc32.speedup_vs_bytewise (BENCH_xdr_throughput.json) is
// gated this way: a ratio of two kernels timed in one process, not
// absolute seconds.
//
// Exit 0 when every gate holds, 1 with a diagnostic otherwise.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "mini_json.hpp"

namespace {

using hpm::tools::json::Parser;
using hpm::tools::json::Value;
using hpm::tools::json::ValuePtr;

int complain(const std::string& path, const std::string& why) {
  std::fprintf(stderr, "perf_guard: %s: %s\n", path.c_str(), why.c_str());
  return 1;
}

/// The "results" row named `name`, or nullptr.
const Value* find_row(const Value& results, const std::string& name) {
  for (const ValuePtr& item : results.items) {
    const Value* n = item->get("name");
    if (n != nullptr && n->kind == Value::Kind::String && n->text == name) {
      return item->get("value");
    }
  }
  return nullptr;
}

/// Parse `path` as an hpm-bench-v1 report (kept alive in `root`) and
/// return its "results" array, or nullptr after printing a diagnostic.
const Value* load_results(const std::string& path, ValuePtr& root) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    complain(path, "cannot open file");
    return nullptr;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    root = Parser(buf.str()).parse();
  } catch (const std::exception& e) {
    complain(path, e.what());
    return nullptr;
  }
  if (root->kind != Value::Kind::Object) {
    complain(path, "top level is not an object");
    return nullptr;
  }
  const Value* results = root->get("results");
  if (!results || results->kind != Value::Kind::Array) {
    complain(path, "\"results\" must be an array");
    return nullptr;
  }
  return results;
}

int floor_gate(const std::string& path, const std::string& row, double floor) {
  ValuePtr root;
  const Value* results = load_results(path, root);
  if (results == nullptr) return 1;
  const Value* value = find_row(*results, row);
  if (!value || value->kind != Value::Kind::Number) return complain(path, "missing row " + row);
  if (!(value->number >= floor)) {
    std::ostringstream os;
    os << row << " = " << value->number << " is below the floor " << floor;
    return complain(path, os.str());
  }
  std::printf("perf_guard: %s: OK (%s = %.2f >= %.2f)\n", path.c_str(), row.c_str(),
              value->number, floor);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--floor") {
    if (argc < 5 || (argc - 3) % 2 != 0) {
      std::fprintf(stderr,
                   "usage: perf_guard --floor <BENCH.json> <row> <min> [<row> <min> ...]\n");
      return 2;
    }
    int failed = 0;
    for (int i = 3; i < argc; i += 2) {
      failed |= floor_gate(argv[2], argv[i], std::strtod(argv[i + 1], nullptr));
    }
    return failed;
  }
  if (argc < 2 || argc > 4) {
    std::fprintf(stderr,
                 "usage: perf_guard <BENCH_migration.json> [steps_ceiling] [dedup_ceiling]\n");
    return 2;
  }
  const std::string path = argv[1];
  const double ceiling = argc >= 3 ? std::strtod(argv[2], nullptr) : 32.0;
  const double dedup_ceiling = argc >= 4 ? std::strtod(argv[3], nullptr) : 0.05;
  if (ceiling <= 0 || dedup_ceiling <= 0) {
    std::fprintf(stderr, "perf_guard: ceilings must be positive\n");
    return 2;
  }

  ValuePtr root;
  const Value* results = load_results(path, root);
  if (results == nullptr) return 1;

  const Value* steps = find_row(*results, "msrlt.search_steps_per_search");
  if (!steps || steps->kind != Value::Kind::Number) {
    return complain(path, "missing row msrlt.search_steps_per_search");
  }
  if (steps->number <= 0) {
    return complain(path, "msrlt.search_steps_per_search is 0 — no searches measured");
  }
  if (steps->number > ceiling) {
    std::ostringstream os;
    os << "msrlt.search_steps_per_search = " << steps->number << " exceeds ceiling "
       << ceiling << " (address index regressed toward linear scanning?)";
    return complain(path, os.str());
  }

  const Value* identical = find_row(*results, "parcollect.bit_identical");
  if (!identical || identical->kind != Value::Kind::Number) {
    return complain(path, "missing row parcollect.bit_identical");
  }
  if (identical->number != 1) {
    return complain(path, "parcollect.bit_identical != 1 — parallel stream diverged");
  }

  const Value* speedup = find_row(*results, "parcollect.thread_speedup");
  if (!speedup || speedup->kind != Value::Kind::Number || speedup->number <= 0) {
    return complain(path, "missing or non-positive row parcollect.thread_speedup");
  }

  const Value* dedup_ratio = find_row(*results, "dedup.second_run.bytes_ratio");
  if (!dedup_ratio || dedup_ratio->kind != Value::Kind::Number) {
    return complain(path, "missing row dedup.second_run.bytes_ratio");
  }
  if (dedup_ratio->number > dedup_ceiling) {
    std::ostringstream os;
    os << "dedup.second_run.bytes_ratio = " << dedup_ratio->number << " exceeds ceiling "
       << dedup_ceiling << " (identical rerun re-sent the stream — chunk cache regressed?)";
    return complain(path, os.str());
  }

  const Value* dedup_identical = find_row(*results, "dedup.bit_identical");
  if (!dedup_identical || dedup_identical->kind != Value::Kind::Number) {
    return complain(path, "missing row dedup.bit_identical");
  }
  if (dedup_identical->number != 1) {
    return complain(path, "dedup.bit_identical != 1 — dedup'd restore diverged");
  }

  // Destination failover: replaying to a warm standby must negotiate the
  // manifest against its chunk store, not blindly re-send the stream.
  // Shares the dedup ceiling — the mechanism is the same negotiation.
  const Value* failover_ratio = find_row(*results, "failover.warm_standby.bytes_ratio");
  if (!failover_ratio || failover_ratio->kind != Value::Kind::Number) {
    return complain(path, "missing row failover.warm_standby.bytes_ratio");
  }
  if (failover_ratio->number > dedup_ceiling) {
    std::ostringstream os;
    os << "failover.warm_standby.bytes_ratio = " << failover_ratio->number
       << " exceeds ceiling " << dedup_ceiling
       << " (failover replay re-sent the stream — manifest negotiation regressed?)";
    return complain(path, os.str());
  }

  const Value* failover_identical = find_row(*results, "failover.bit_identical");
  if (!failover_identical || failover_identical->kind != Value::Kind::Number) {
    return complain(path, "missing row failover.bit_identical");
  }
  if (failover_identical->number != 1) {
    return complain(path, "failover.bit_identical != 1 — failed-over restore diverged");
  }

  std::printf("perf_guard: %s: OK (%.2f steps/search <= %.2f, streams identical, "
              "%.2fx thread speedup, dedup rerun moved %.2f%% <= %.2f%%, "
              "warm-standby failover moved %.2f%% <= %.2f%%)\n",
              path.c_str(), steps->number, ceiling, speedup->number,
              dedup_ratio->number * 100, dedup_ceiling * 100,
              failover_ratio->number * 100, dedup_ceiling * 100);
  return 0;
}
