// Destination endpoint of the transactional pipelined transfer.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "mig/chunk_assembler.hpp"
#include "mig/coordinator.hpp"
#include "mig/port.hpp"
#include "mig/session.hpp"
#include "net/deadline.hpp"

namespace hpm::mig {

/// Unlike the serial path's per-attempt destination, this host SURVIVES
/// link failures: its rx loop parks on a port error and adopts the
/// replacement the source offers, announcing its chunk watermark in
/// ResumeHello — one restoration spanning several physical bindings.
/// Restoration is bracketed by the commit gate (Prepare/PrepareAck then
/// Commit/Abort); the gate's decisions are write-ahead journaled, and an
/// in-doubt gate (voted yes, verdict lost) polls the source's journal
/// for the durable decision instead of guessing.
///
/// Every inbound frame is validated by the DestSession machine before it
/// is acted on, so an out-of-order or hostile peer surfaces as a typed
/// ProtocolError at the exact frame that broke the protocol.
class DestinationHost {
 public:
  /// `deadline` must outlive the host (the caller owns the policy; the
  /// transaction driver and this host consult the same instance, so an
  /// adaptive policy keeps both ends' deadlines in step).
  DestinationHost(const RunOptions& options, MigrationReport& report, Journal& journal,
                  std::string source_journal_path, const net::DeadlinePolicy& deadline,
                  std::uint32_t session_id);

  ~DestinationHost();

  void start(std::unique_ptr<MessagePort> port);

  /// Offer a replacement port for a resume attempt. False once the
  /// destination can no longer adopt one (crashed, failed, finished).
  bool offer(std::unique_ptr<MessagePort> port);

  /// No further ports will come; a parked rx gives up.
  void close();

  void join();

  [[nodiscard]] bool resumable() const;
  [[nodiscard]] bool finished() const;

  /// The protocol machine, for observers (tests, migrate_many reporting).
  [[nodiscard]] const DestSession& session() const noexcept { return session_; }

 private:
  MessagePort* current() const;
  void set_dead(std::exception_ptr error);
  void mark_finished();
  bool adopt_replacement();
  void run();
  void release_port();
  /// `store` is non-null when this host is configured with a chunk cache
  /// (RunOptions::chunk_cache_dir): the rx loop then answers a source
  /// manifest with its miss set and splices hits locally (DESIGN.md §15).
  void rx_loop(ChunkAssembler& assembler, std::uint64_t txn, ChunkStore* store);
  void commit_gate(std::uint64_t txn, std::uint64_t digest);
  void resolve_in_doubt(std::uint64_t txn, std::uint64_t digest, const char* why);
  void record_committed(std::uint64_t txn, std::uint64_t digest, std::string note);

  const RunOptions& options_;
  MigrationReport& report_;
  Journal& journal_;
  const std::string source_journal_path_;
  const net::DeadlinePolicy& deadline_;
  DestSession session_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unique_ptr<MessagePort> port_;     ///< current endpoint (guarded by mu_)
  std::unique_ptr<MessagePort> offered_;  ///< reconnect candidate from the source
  std::exception_ptr error_;
  bool closed_ = false;
  bool dead_ = false;
  bool finished_ = false;
  std::atomic<bool> killed_{false};
  std::thread thread_;
};

}  // namespace hpm::mig
