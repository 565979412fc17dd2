// The Coordinator facade: composes the extracted migration layer —
// SourceSession/DestSession state machines (session.hpp), the serial
// transfer (serial_transfer.hpp), the transactional pipelined transfer
// and its recovery ladder (source_txn.hpp / dest_host.hpp), ports and
// wiring (port.hpp), and the intent journals — behind the original
// run_migration() API. The policy that lives HERE is only the
// composition: which path runs, the serial retry loop, graceful
// degradation, and crash recovery.
#include "mig/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>

#include "mig/endpoint_util.hpp"
#include "mig/mig_metrics.hpp"
#include "mig/port.hpp"
#include "mig/serial_transfer.hpp"
#include "mig/source_txn.hpp"
#include "obs/span.hpp"

namespace hpm::mig {

namespace {

/// Wiring for a classic exclusive-channel session: every connect() builds
/// a brand-new physical channel pair, applies the run's fault/throttle
/// wrappers, and hands back DirectPorts. A socket listener rides along as
/// the ports' keepalive so its fd outlives the conversation.
SessionWiring direct_wiring(const RunOptions& options,
                            std::shared_ptr<const net::DeadlinePolicy> deadline) {
  // The SOURCE-side fault state is shared by every dial: a one-shot fault
  // (or source crash) that already fired stays fired across the ladder's
  // re-dials. The destination side keeps one state per host config, so a
  // chaos script against standby 1 cannot fire again at standby 2.
  auto fault_state = std::make_shared<net::FaultState>();
  auto dial = [&options, fault_state, deadline](const net::FaultPlan& dest_plan,
                                                const std::shared_ptr<net::FaultState>& dest_state) {
    // The destination's first recv spans the program's whole pre-trigger
    // phase, so the per-IO deadline is armed only once the transfer
    // begins (DestinationHost sets it after the first frame). The policy
    // is consulted per dial: an adaptive deadline warmed on attempt 1
    // bounds the later rungs too.
    net::ChannelPair channels = net::make_channel_pair(
        options.transport, {.spool_path = options.spool_path, .timeout = {}});
    std::shared_ptr<void> keep(std::move(channels.listener));
    std::unique_ptr<net::ByteChannel> sch = std::move(channels.source);
    if (options.fault_plan.enabled()) {
      sch = std::make_unique<net::FaultyChannel>(std::move(sch), options.fault_plan,
                                                 fault_state);
    }
    if (options.throttle) {
      sch = std::make_unique<net::ThrottledChannel>(std::move(sch), options.link);
    }
    if (const auto t = deadline->current(); t.count() > 0) sch->set_timeout(t);
    PortPair pair;
    pair.source = std::make_unique<DirectPort>(std::move(sch), keep);
    std::unique_ptr<net::ByteChannel> dch = std::move(channels.destination);
    if (dest_plan.enabled()) {
      dch = std::make_unique<net::FaultyChannel>(std::move(dch), dest_plan, dest_state);
    }
    pair.destination = std::make_unique<DirectPort>(std::move(dch), keep);
    return pair;
  };
  SessionWiring wiring;
  wiring.session_id = 0;
  wiring.connect = [&options, dial, dest_state = std::make_shared<net::FaultState>()] {
    return dial(options.dest_fault_plan, dest_state);
  };
  if (options.failover.enabled()) {
    auto standby_states =
        std::make_shared<std::vector<std::shared_ptr<net::FaultState>>>();
    for (std::size_t i = 0; i < options.failover.standbys.size(); ++i) {
      standby_states->push_back(std::make_shared<net::FaultState>());
    }
    wiring.connect_standby = [&options, dial, standby_states](std::size_t k) {
      return dial(options.failover.standbys.at(k).dest_fault_plan, standby_states->at(k));
    };
  }
  return wiring;
}

/// Local completion from the collected stream: the graceful-degradation
/// tail shared by the serial and transactional paths.
void complete_locally(const RunOptions& options, MigrationReport& report,
                      Bytes stream) {
  report.outcome = MigrationOutcome::AbortedContinuedLocally;
  CoordinatorMetrics::get().aborts.add(1);
  ti::TypeTable types;
  options.register_types(types);
  MigContext ctx(types);
  ctx.set_stop_after_restore(options.stop_after_restore);
  ctx.begin_restore(std::move(stream));
  run_destination_program(options, ctx, report);
}

std::uint64_t wall_clock_txn() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// The one transactional body behind run_migration (pipelined) and
/// run_routed_migration. They differ only in the wiring, the txn id and
/// the journal naming inside journal_dir: `source_name` for the source,
/// `dest_name(incarnation)` per destination host.
MigrationReport run_transactional(const RunOptions& options, const SessionWiring& wiring,
                                  const net::DeadlinePolicy& deadline, std::uint64_t txn,
                                  const std::string& source_name,
                                  const std::function<std::string(std::uint32_t)>& dest_name) {
  MigrationReport report;
  TxnJournals journals;
  if (!options.journal_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.journal_dir, ec);
    journals.source = options.journal_dir + "/" + source_name;
    journals.dest = [&options, &dest_name](std::uint32_t inc) {
      return options.journal_dir + "/" + dest_name(inc);
    };
  }
  RetainedStream retained;
  switch (run_pipelined_transaction(options, report, retained, wiring, deadline, journals,
                                    txn)) {
    case TxnResult::CompletedLocally:
      // Rendezvous happened but no transfer was ever started; the
      // attempt counter follows the serial path's convention.
      report.attempts = 0;
      report.outcome = MigrationOutcome::CompletedLocally;
      break;
    case TxnResult::Migrated:
      report.outcome = MigrationOutcome::Migrated;
      break;
    case TxnResult::CommittedUnconfirmed:
      // The Commit record is durable: the destination owns the process
      // whether or not its confirmation survived. No local fallback.
      report.outcome = MigrationOutcome::CommittedUnconfirmed;
      break;
    case TxnResult::SourceCrashed:
      // The "crashed" source does nothing further — by definition. The
      // journals (Coordinator::recover) arbitrate ownership.
      report.outcome = MigrationOutcome::SourceCrashed;
      break;
    case TxnResult::Failed:
      complete_locally(options, report, retained.materialize());
      break;
  }
  return report;
}

MigrationReport run_migration_impl(const RunOptions& options) {
  if (!options.register_types || !options.program) {
    throw MigrationError("run_migration requires register_types and program");
  }
  if (options.pipeline && options.transport != Transport::File) {
    const std::shared_ptr<net::DeadlinePolicy> deadline = deadline_policy_of(options);
    return run_transactional(options, direct_wiring(options, deadline), *deadline,
                             options.txn_id != 0 ? options.txn_id : wall_clock_txn(),
                             kSourceJournalName,
                             [](std::uint32_t inc) { return dest_journal_name(inc); });
  }

  // --- the serial path. Remove a stale spool from an earlier run, and ours
  // when we leave.
  SpoolCleanup spool_cleanup{options};
  if (options.transport == Transport::File) remove_spool(options.spool_path);
  MigrationReport report;
  const std::chrono::milliseconds timeout = io_timeout(options);
  auto fault_state = std::make_shared<net::FaultState>();
  auto dest_fault_state = std::make_shared<net::FaultState>();

  // Phase 1, source host: run the program until it completes or the
  // migration trigger fires and the state is collected. No channel exists
  // yet — the destination is brought up per transfer attempt, so a dead
  // or damaged link can never take the running workload down with it.
  Bytes stream;
  {
    ti::TypeTable types;
    options.register_types(types);
    MigContext ctx(types);
    ctx.set_migrate_at_poll(options.migrate_at_poll);
    ctx.set_collect_threads(options.collect_threads);
    const bool collected = run_source_program(options, ctx);
    report.source_polls = ctx.poll_count();
    if (!collected) {
      report.outcome = MigrationOutcome::CompletedLocally;
      return report;
    }
    // Moved, not copied: ctx dies at the end of this block (the migrating
    // process has "terminated"), and the serial path never reads its
    // digest.
    stream = ctx.take_stream();  // buffered for replay across attempts
    report.stream_bytes = stream.size();
    report.collect_seconds = ctx.metrics().collect_seconds;
    report.source_arch = ctx.space().arch().name;
  }

  // --- phase 2: serial transfer attempts with capped exponential backoff.
  const int total_attempts = 1 + std::max(0, options.max_retries);
  double backoff = options.retry_backoff_seconds;
  for (int attempt = 1; attempt <= total_attempts; ++attempt) {
    if (attempt > 1 && backoff > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff = std::min(backoff * 2, options.retry_backoff_cap_seconds);
    }
    CoordinatorMetrics::get().attempts.add(1);
    if (attempt > 1) CoordinatorMetrics::get().retries.add(1);
    report.attempts = attempt;
    std::string cause;
    bool transferred = false;
    try {
      transferred = attempt_transfer(options, stream, report, fault_state,
                                     dest_fault_state, timeout, cause);
    } catch (const Error& e) {
      // Channel setup failed (connection refused, spool unwritable):
      // just as retryable as a failure mid-transfer.
      cause = e.what();
    }
    if (transferred) {
      report.migrated = true;
      report.outcome = MigrationOutcome::Migrated;
      return report;
    }
    report.failure_causes.push_back("attempt " + std::to_string(attempt) + ": " + cause);
  }

  // --- graceful degradation: abandon migration (the pending request died
  // with the phase-1 context) and finish the computation locally by
  // restoring the buffered stream in-process — the source becomes its own
  // destination, so the final result is identical to a run that never
  // migrated.
  complete_locally(options, report, std::move(stream));
  return report;
}

}  // namespace

const char* outcome_name(MigrationOutcome outcome) noexcept {
  switch (outcome) {
    case MigrationOutcome::CompletedLocally: return "completed-locally";
    case MigrationOutcome::Migrated: return "migrated";
    case MigrationOutcome::AbortedContinuedLocally: return "aborted-continued-locally";
    case MigrationOutcome::SourceCrashed: return "source-crashed";
    case MigrationOutcome::CommittedUnconfirmed: return "committed-unconfirmed";
  }
  return "?";
}

MigrationReport run_migration(const RunOptions& options) {
  // The report's metrics member is the registry delta across this run, so
  // concurrent runs in one process would bleed into each other's deltas —
  // per-session truth for concurrent sessions lives in the
  // mig.session.<id>.* instruments instead.
  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
  obs::Span run_span("mig.run");
  run_span.arg("transport", std::string(net::transport_name(options.transport)));
  MigrationReport report = run_migration_impl(options);
  run_span.arg("outcome", std::string(outcome_name(report.outcome)));
  run_span.finish();
  report.metrics = obs::Registry::process().snapshot().delta_since(before);
  return report;
}

MigrationReport run_routed_migration(const RunOptions& options,
                                     const SessionWiring& wiring) {
  if (!options.register_types || !options.program) {
    throw MigrationError("run_routed_migration requires register_types and program");
  }
  if (!wiring.connect) {
    throw MigrationError("run_routed_migration requires wiring.connect");
  }

  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
  obs::Span run_span("mig.session.run");
  run_span.arg("session", std::uint64_t{wiring.session_id});

  // Concurrent sessions share one journal_dir, so both the journal files
  // and the derived txn are keyed per session: the wall clock alone could
  // collide across sessions started the same instant.
  const std::uint64_t txn =
      options.txn_id != 0
          ? options.txn_id
          : (wall_clock_txn() << 10) | (wiring.session_id & 0x3FFu);
  const std::shared_ptr<net::DeadlinePolicy> deadline = deadline_policy_of(options);
  MigrationReport report = run_transactional(
      options, wiring, *deadline, txn, keyed_source_journal_name(txn),
      [txn](std::uint32_t inc) { return keyed_dest_journal_name(txn, inc); });

  run_span.arg("outcome", std::string(outcome_name(report.outcome)));
  run_span.finish();
  report.metrics = obs::Registry::process().snapshot().delta_since(before);
  return report;
}

RecoveryVerdict Coordinator::recover(const std::string& journal_dir) {
  // Arbitrate against EVERY destination journal the run left behind — the
  // primary's dest.journal plus any failover incarnation's suffixed file.
  std::vector<std::string> dests = dest_journal_paths(journal_dir, 0);
  if (dests.empty()) dests.push_back(journal_dir + "/" + kDestJournalName);
  return recover_from_journals(journal_dir + "/" + kSourceJournalName, dests);
}

RecoveryVerdict Coordinator::recover(const std::string& journal_dir,
                                     std::uint64_t txn_id) {
  std::vector<std::string> dests = dest_journal_paths(journal_dir, txn_id);
  if (dests.empty()) {
    dests.push_back(journal_dir + "/" + keyed_dest_journal_name(txn_id));
  }
  return recover_from_journals(journal_dir + "/" + keyed_source_journal_name(txn_id),
                               dests);
}

}  // namespace hpm::mig
