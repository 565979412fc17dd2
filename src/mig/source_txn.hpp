// Source endpoint of the transactional pipelined transfer, and the
// recovery ladder that drives it (DESIGN.md §6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "mig/coordinator.hpp"
#include "mig/port.hpp"
#include "mig/retained_stream.hpp"
#include "net/deadline.hpp"

namespace hpm::mig {

/// Outcome of the transactional pipelined transfer.
enum class TxnResult : std::uint8_t {
  CompletedLocally,      ///< program finished without migrating
  Migrated,              ///< committed and confirmed
  CommittedUnconfirmed,  ///< committed; the destination's confirmation was lost
  SourceCrashed,         ///< injected source crash; journals arbitrate ownership
  Failed,                ///< every rung failed; Abort is journaled, complete locally
};

/// How one rung of the ladder ended, classified once.
enum class LegFailure : std::uint8_t {
  None,            ///< the commit phase committed (confirmed or not), or nothing to send
  Killed,          ///< injected source death (KilledError)
  ProgramError,    ///< options.program threw: the caller's to see
  Foreign,         ///< an exception outside hpm::Error escaped
  Veto,            ///< the destination said no: Nack, Error, digest mismatch, protocol breach
  TransportDeath,  ///< the binding died without a veto
  Cancelled,       ///< a supervisor cancelled the session
  NoRendezvous,    ///< the destination's Hello never came
  DialFailed,      ///< a standby could not be dialed within its budget
};

/// What the ladder does next. The candidate is the primary unless `kind`
/// is Standby; the start is implied by the kind: a Resume sends from the
/// acked watermark, a Standby or Replay from chunk 0 (or the manifest,
/// when the candidate has a chunk store). The first rung — the primary
/// at incarnation 1, streaming while collecting — is not a pick.
enum class RungKind : std::uint8_t {
  Stop,     ///< the failed (or committed) leg's result stands
  Resume,   ///< same candidate, same incarnation, from the acked watermark
  Standby,  ///< standby `standby` under incarnation standby + 2
  Replay,   ///< the primary again, fresh host, under a new incarnation
  Fail,     ///< give up: TxnResult::Failed
};

struct Rung {
  RungKind kind = RungKind::Stop;
  std::size_t standby = 0;       ///< Standby: index into FailoverPolicy::standbys
  std::uint32_t incarnation = 0; ///< Resume/Standby/Replay: the leg's fencing token
};

/// Everything next_rung decides on.
struct LadderState {
  LegFailure failure = LegFailure::None;
  bool resumable = false;        ///< the failed leg's DestinationHost adopts a new port
  int attempts_used = 0;
  int total_attempts = 1;        ///< 1 + max_retries
  std::size_t standbys = 0;      ///< standby candidates the wiring can dial
  std::size_t next_standby = 0;  ///< first candidate not yet tried
  std::uint32_t incarnation = 1; ///< incarnation of the failed leg
};

/// The ladder's one rule table, in order:
///  - Stop on success, a source kill, a program error, or a foreign
///    exception;
///  - Resume after a transport death while the host is resumable and
///    attempts remain;
///  - the next Standby when the destination is declared dead (transport
///    death past resume, supervisor cancel, no Hello, failed dial) and one
///    is left — never after a veto;
///  - Replay at the primary while attempts remain, unless a supervisor
///    cancelled the session; it takes the next incarnation above every
///    standby's;
///  - otherwise Fail.
/// Dialing a standby spends no attempt; every other rung spends one.
Rung next_rung(const LadderState& state) noexcept;

/// Where the transaction's intent journals live. Empty/null = journaling
/// off (the handoff still runs two-phase).
struct TxnJournals {
  std::string source;
  /// Journal path of the destination host at an incarnation: the primary
  /// at 1, standby k at k + 2, a primary replay above every standby.
  std::function<std::string(std::uint32_t)> dest;
};

/// The transactional pipelined transfer: one transaction, driven up the
/// recovery ladder. Rung 1 streams chunks to the primary while the
/// collection DFS is still walking the graph; every later rung is picked
/// by next_rung and re-sends out of the retained stream. Each leg's
/// restoration is bracketed by the two-phase commit; the protocol's
/// legality is enforced by a SourceSession machine on this side and a
/// DestSession machine inside each DestinationHost, both named by
/// `wiring.session_id`. Standby rungs need `wiring.connect_standby`.
///
/// Returns Failed only when the source must complete locally; the Abort
/// record is journaled by then. On return `stream` holds the retained
/// canonical stream (resident or spilled per options.retain_dir).
TxnResult run_pipelined_transaction(const RunOptions& options, MigrationReport& report,
                                    RetainedStream& stream, const SessionWiring& wiring,
                                    const net::DeadlinePolicy& deadline,
                                    const TxnJournals& journals, std::uint64_t txn);

}  // namespace hpm::mig
