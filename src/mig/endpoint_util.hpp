// Small helpers shared by the migration layer's endpoint drivers
// (serial_transfer, source_txn, dest_host, coordinator).
#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <stop_token>
#include <string>
#include <thread>

#include "mig/coordinator.hpp"
#include "net/message.hpp"

namespace hpm::mig {

/// Deadline applied when fault injection is on but the caller set none:
/// an injected stall/truncation must never hang the run.
inline constexpr double kFaultInjectionDefaultTimeout = 5.0;

/// Per-IO deadline of the transfer protocol: io_timeout_seconds, or the
/// fault-injection default when faults are armed and none was set
/// (0 = block without bound).
inline std::chrono::milliseconds io_timeout(const RunOptions& options) {
  const bool faults_armed =
      options.fault_plan.enabled() || options.dest_fault_plan.enabled();
  const double io_s = options.io_timeout_seconds > 0
                          ? options.io_timeout_seconds
                          : (faults_armed ? kFaultInjectionDefaultTimeout : 0);
  return std::chrono::milliseconds(static_cast<long long>(std::llround(io_s * 1000.0)));
}

/// The policy every blocking call of a run consults: the caller's (for
/// instance a supervisor's adaptive one), else fixed at io_timeout().
inline std::shared_ptr<net::DeadlinePolicy> deadline_policy_of(const RunOptions& options) {
  return options.deadline_policy != nullptr ? options.deadline_policy
                                            : net::DeadlinePolicy::fixed(io_timeout(options));
}

/// Run the program on the source until it completes (false) or the
/// migration trigger fires and the state is collected (true). The
/// paper's scheduler sends the migration request asynchronously;
/// request_after_seconds models it with a timer thread that pokes the
/// context's request flag, stopped and joined on every exit path. Any
/// exception but MigrationExit propagates.
inline bool run_source_program(const RunOptions& options, MigContext& ctx) {
  std::jthread scheduler;
  if (options.request_after_seconds > 0) {
    scheduler = std::jthread([&ctx, delay = options.request_after_seconds](
                                 const std::stop_token& done) {
      const auto fire_at =
          std::chrono::steady_clock::now() + std::chrono::duration<double>(delay);
      while (!done.stop_requested() && std::chrono::steady_clock::now() < fire_at) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (!done.stop_requested()) ctx.request_migration();
    });
  }
  try {
    options.program(ctx);
  } catch (const MigrationExit&) {
    return true;
  }
  return false;
}

inline void remove_spool(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".done").c_str());
}

/// Deletes the spool (and its ".done" marker) when the run ends — orderly
/// or not — so no state leaks into the next Transport::File run.
struct SpoolCleanup {
  const RunOptions& options;
  ~SpoolCleanup() {
    if (options.transport == Transport::File) remove_spool(options.spool_path);
  }
};

inline Bytes hello_payload(const std::string& arch) {
  Bytes payload;
  payload.reserve(1 + arch.size());
  payload.push_back(net::kProtocolVersion);
  payload.insert(payload.end(), arch.begin(), arch.end());
  return payload;
}

inline std::string exception_text(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

/// Run the destination program to completion after begin_restore*(). A
/// MigrationExit here is the stop_after_restore unwind: restoration
/// completed and the metrics are recorded; skipping the tail is the point.
inline void run_destination_program(const RunOptions& options, MigContext& ctx,
                                    MigrationReport& report) {
  try {
    options.program(ctx);
  } catch (const MigrationExit&) {
  }
  report.restore_seconds = ctx.metrics().restore_seconds;
}

}  // namespace hpm::mig
