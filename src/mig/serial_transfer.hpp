// The serial (one-shot, buffered-stream) transfer path.
#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "mig/coordinator.hpp"

namespace hpm::mig {

/// One serial transfer attempt: bring up a destination, move the buffered
/// stream, wait for the verdict. Returns true on success; on a
/// recoverable failure returns false with `cause` set. Unrecoverable
/// source-side failures (anything outside the hpm::Error hierarchy)
/// propagate. This is the only path File transport can take (no duplex
/// rendezvous); a pipelined transaction never reaches it.
bool attempt_transfer(const RunOptions& options, const Bytes& stream,
                      MigrationReport& report,
                      const std::shared_ptr<net::FaultState>& fault_state,
                      const std::shared_ptr<net::FaultState>& dest_fault_state,
                      std::chrono::milliseconds timeout, std::string& cause);

}  // namespace hpm::mig
