#include "mig/source_txn.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>

#include "mig/chunk_queue.hpp"
#include "mig/chunk_store.hpp"
#include "mig/control_inbox.hpp"
#include "mig/dest_host.hpp"
#include "mig/endpoint_util.hpp"
#include "mig/mig_metrics.hpp"
#include "mig/session.hpp"
#include "mig/wire_codec.hpp"
#include "obs/span.hpp"

namespace hpm::mig {

namespace {

using Clock = std::chrono::steady_clock;

enum class CommitResult : std::uint8_t { Confirmed, Unconfirmed };

/// The commit-phase waits cover peer *compute* (restore, digest verify),
/// not a single wire hop, so the per-call IO deadline — which an adaptive
/// policy derives from heartbeat RTTs — is the wrong bound for them. Use
/// the same 4x grace the destination's in-doubt poll applies; a fixed(0)
/// unbounded policy stays unbounded.
std::chrono::milliseconds commit_grace(std::chrono::milliseconds t) {
  return t.count() > 0 ? 4 * t : t;
}

/// The decision half of the handoff, run by the source after StateEnd.
/// Every pre-Commit failure journals Abort BEFORE rethrowing (so an
/// in-doubt destination resolves consistently); once the Commit record is
/// durable nothing can abort — a lost confirmation merely degrades the
/// result to Unconfirmed. KilledError passes through untouched: a crash
/// journals nothing, the log must hold only real decisions.
///
/// Every transaction frame carries the destination incarnation the stream
/// currently addresses (the fencing token): the journal records name it,
/// so post-crash arbitration knows WHICH destination the source committed
/// to, and the wire token lets a standby's machine refuse a stale frame.
///
/// The inbound half is validated by the machine: await() feeds each reply
/// through session.on_frame(), which raises the typed rejection (Nack,
/// Error, wrong txn, fenced vote, digest mismatch) or ProtocolError itself.
CommitResult source_commit_phase(MessagePort& port, ControlInbox& inbox,
                                 SourceSession& session,
                                 const net::DeadlinePolicy& deadline, std::uint64_t txn,
                                 std::uint64_t digest, Journal& journal) {
  const std::uint32_t inc = session.incarnation();
  try {
    session.prepare_sent();
    port.send(net::MsgType::Prepare, net::encode_txn_token({txn, inc}));
    // The policy is consulted per blocking call, so an adaptive deadline
    // warmed by heartbeat RTTs can tighten mid-handoff.
    const net::Message reply = inbox.await(commit_grace(deadline.current()));
    if (reply.type != net::MsgType::PrepareAck) {
      // on_frame already vetted it; anything it let through that is not
      // the vote is a protocol breach.
      throw ProtocolError("unexpected message in the prepare phase");
    }
  } catch (const KilledError&) {
    throw;
  } catch (const Error&) {
    // A destination that vetoes the handoff sends its Error/Nack and then
    // drops the channel; our Prepare can hit the dead pipe before the
    // pump delivers the veto. The frame survives the close in the pipe's
    // buffer, so grace-wait for it and prefer the destination's cause
    // over our own send failure.
    std::exception_ptr cause = std::current_exception();
    bool vetoed = session.terminal();  // on_frame already rejected the vote
    if (!vetoed) {
      try {
        inbox.await(std::chrono::milliseconds(50));
      } catch (const MigrationError& veto) {
        // on_frame turned the pending Error/Nack into its typed rejection.
        cause = std::make_exception_ptr(veto);
        vetoed = true;
      } catch (...) {
        // Nothing queued; the original failure stands.
      }
    }
    journal.append({JournalRecordType::Abort, txn, digest, inc, "prepare phase failed"});
    TxnMetrics::get().aborts.add(1);
    // Only a VETO is a protocol decision that ends the session. A
    // transport death here means the destination never voted: the machine
    // stays Prepared (link_lost and redirect_decided are both legal from
    // it), so the caller may still resume against a surviving destination
    // or fail over to a standby. The Abort record above fences this
    // incarnation either way — a revived primary's in-doubt poll reads it
    // and aborts instead of completing a handoff the source gave up on.
    if (vetoed && !session.terminal()) session.abort_decided("prepare phase failed");
    try {
      port.send(net::MsgType::Abort, net::encode_txn_token({txn, inc}));
    } catch (...) {
      // A dead port cannot carry the Abort; the destination's in-doubt
      // poll reads the journal record instead.
    }
    std::rethrow_exception(cause);
  }
  // --- the decision is Commit: durable before the frame leaves, irrevocable after.
  journal.append({JournalRecordType::Commit, txn, digest, inc, ""});
  TxnMetrics::get().commits.add(1);
  session.commit_decided();
  try {
    port.send(net::MsgType::Commit, net::encode_txn_token({txn, inc}));
    const net::Message fin = inbox.await(commit_grace(deadline.current()));
    if (fin.type == net::MsgType::Ack) {
      journal.append({JournalRecordType::Done, txn, digest, inc, ""});
      return CommitResult::Confirmed;
    }
  } catch (const KilledError&) {
    throw;  // post-commit source crash: the destination recovers from the journal
  } catch (const Error&) {
  }
  return CommitResult::Unconfirmed;
}

}  // namespace

TxnResult run_pipelined_transaction(
    const RunOptions& options, MigrationReport& report, RetainedStream& stream,
    const SessionWiring& wiring, const net::DeadlinePolicy& deadline,
    Journal& src_journal, Journal& dst_journal,
    const std::function<std::string(std::uint32_t)>& standby_journal_path,
    std::uint64_t txn, int total_attempts, int& attempts_used) {
  TxnMetrics::get().begins.add(1);
  report.txn_id = txn;

  SourceSession session(wiring.session_id, txn);

  PortPair ports = wiring.connect();
  std::unique_ptr<MessagePort> src_port = std::move(ports.source);
  src_port->set_timeout(deadline.current());

  DestinationHost dest(options, report, dst_journal, src_journal.path(), deadline,
                       wiring.session_id);
  dest.start(std::move(ports.destination));

  CoordinatorMetrics::get().attempts.add(1);
  attempts_used = 1;
  report.attempts = 1;

  const std::size_t cb = std::max<std::size_t>(1, options.chunk_bytes);
  // Dedup'd transfer (DESIGN.md §15): the manifest needs every chunk
  // address up front, so the stream is collected in full before anything
  // but StateBegin goes out — no sender thread, no collect sink.
  const bool dedup = !options.chunk_cache_dir.empty();
  std::unique_ptr<ControlInbox> inbox;

  ChunkQueue queue(kChunkQueueCapacity);
  std::exception_ptr sender_error;
  std::thread sender;
  auto join_sender = [&] {
    if (sender.joinable()) sender.join();
  };
  /// Stop the pump (which aborts the port) so a blocked peer wakes and
  /// the port can be replaced or destroyed.
  auto fail_channel = [&] {
    if (inbox != nullptr) {
      inbox->stop();
    } else if (src_port != nullptr) {
      try {
        src_port->abort();
      } catch (...) {
      }
    }
  };
  /// Record a lost physical binding in the machine — from the states where
  /// a binding can be lost. (A rejected frame already landed in Aborted.)
  auto note_link_lost = [&] {
    const SessionState s = session.state();
    if (s == SessionState::Streaming || s == SessionState::Prepared ||
        s == SessionState::Resuming) {
      session.link_lost();
    }
  };

  std::exception_ptr source_error;
  /// Set when options.program itself throws (anything but MigrationExit):
  /// a workload failure is the caller's to see, never a retryable
  /// transport fault — rethrown after teardown, matching the serial path.
  std::exception_ptr program_error;
  double measured_tx = 0;
  bool collected = false;
  /// False when the primary died before its Hello ever arrived: attempt 1
  /// then runs the program sink-less (full in-memory collection) and the
  /// failover block replays the retained stream at a standby — without
  /// standbys the Hello failure stays fatal for the attempt, as before.
  bool rendezvoused = false;
  bool killed = false;
  bool attempt_ok = false;
  bool unconfirmed = false;
  std::uint64_t digest = 0;
  net::StateEndInfo end;
  Clock::time_point pipeline_start{};

  // Chunk reads go through the retained stream so memory-resident and
  // disk-spilled streams replay identically; the buffer is reused by the
  // strictly sequential send loops.
  Bytes chunk_buf;
  auto read_chunk = [&](std::uint64_t seq) -> std::span<const std::uint8_t> {
    const std::uint64_t off = seq * cb;
    const auto len = static_cast<std::size_t>(
        std::min<std::uint64_t>(cb, stream.size() - off));
    chunk_buf.resize(len);
    stream.read(off, chunk_buf);
    return {chunk_buf.data(), len};
  };

  /// Dedup negotiation + residual transfer on the CURRENT port/inbox:
  /// announce the manifest, learn the destination's miss set, ship only
  /// the misses (codec-compressed when it pays), then StateEnd. Used by
  /// attempt 1 against the primary and by a failover replay against a
  /// warm standby — the standby answers with its OWN store's misses, so a
  /// warm cache turns the full [0, end) replay into a trickle.
  auto negotiate_and_send = [&] {
    DedupMetrics& dm = DedupMetrics::get();
    const std::uint32_t nchunks = end.chunk_count;
    const std::uint8_t caps = codec_caps_of(options.wire_codec);
    std::uint64_t wire = 0;
    {
      const Bytes payload =
          net::encode_manifest_begin({txn, nchunks, options.chunk_bytes, caps});
      wire += payload.size();
      src_port->send(net::MsgType::ManifestBegin, payload);
    }
    std::vector<net::ManifestEntry> batch;
    batch.reserve(net::kManifestEntriesPerFrame);
    std::uint32_t batch_first = 0;
    for (std::uint32_t i = 0; i < nchunks; ++i) {
      const ChunkAddr addr = ChunkStore::address_of(read_chunk(i));
      batch.push_back({addr.digest, addr.length});
      if (batch.size() == net::kManifestEntriesPerFrame || i + 1 == nchunks) {
        const Bytes payload = net::encode_manifest_chunk(batch_first, batch);
        wire += payload.size();
        src_port->send(net::MsgType::ManifestChunk, payload);
        batch_first = i + 1;
        batch.clear();
      }
    }
    dm.manifest_chunks.add(nchunks);
    report.dedup_manifest_chunks = nchunks;

    // The destination loads (and digest-verifies) every candidate hit
    // before answering, so the wait is compute-bounded like a vote.
    const net::Message ackmsg = inbox->await(commit_grace(deadline.current()));
    if (ackmsg.type != net::MsgType::ManifestAck) {
      throw ProtocolError("expected ManifestAck during manifest negotiation");
    }
    const net::ManifestAckInfo ack = net::decode_manifest_ack(ackmsg.payload);
    if (ack.codec > static_cast<std::uint8_t>(WireCodec::VarintDelta) ||
        (ack.codec != 0 && (caps & kCodecCapVarintDelta) == 0)) {
      throw ProtocolError("destination chose a codec the source never offered");
    }
    const WireCodec codec = static_cast<WireCodec>(ack.codec);
    std::int64_t prev_idx = -1;
    for (const std::uint32_t idx : ack.misses) {
      if (idx >= nchunks || static_cast<std::int64_t>(idx) <= prev_idx) {
        throw ProtocolError("ManifestAck miss set is out of range or unsorted");
      }
      prev_idx = idx;
    }

    PipelineMetrics& pm = PipelineMetrics::get();
    for (const std::uint32_t idx : ack.misses) {
      const std::span<const std::uint8_t> body = read_chunk(idx);
      Bytes payload;
      if (codec == WireCodec::VarintDelta) {
        Bytes coded = codec_encode(body);
        if (coded.size() < body.size()) {
          dm.codec_ratio.record(static_cast<double>(coded.size()) /
                                static_cast<double>(body.size()));
          payload = net::encode_state_chunk_coded(
              idx, static_cast<std::uint8_t>(WireCodec::VarintDelta), coded);
        } else {
          dm.codec_ratio.record(1.0);  // raw fallback: encoding did not pay
        }
      }
      if (payload.empty()) payload = net::encode_state_chunk_coded(idx, 0, body);
      wire += payload.size();
      src_port->send(net::MsgType::StateChunk, payload);
      pm.chunks.add(1);
      pm.chunk_bytes.record(static_cast<double>(payload.size() - 5));
    }
    {
      const Bytes payload = net::encode_state_end(end);
      wire += payload.size();
      src_port->send(net::MsgType::StateEnd, payload);
    }
    report.dedup_miss_chunks = ack.misses.size();
    report.dedup_hit_chunks = nchunks - ack.misses.size();
    report.dedup_wire_bytes = wire;
  };

  // --- attempt 1: stream while collecting ----------------------------------
  try {
    try {
      session.on_frame(src_port->recv());  // Hello: version-checked by the machine
      rendezvoused = true;
    } catch (const KilledError&) {
      throw;  // an injected SOURCE death is a crash, never a dead primary
    } catch (const Error& e) {
      if (!options.failover.enabled() || wiring.connect_standby == nullptr) throw;
      report.failure_causes.push_back("attempt 1: " + std::string(e.what()));
    }
    if (rendezvoused) {
      session.begin_streaming();
      inbox = std::make_unique<ControlInbox>(*src_port, session);
    }

    if (!dedup && rendezvoused) sender = std::thread([&] {
      try {
        PipelineMetrics& pm = PipelineMetrics::get();
        std::unique_ptr<obs::Span> tx_span;
        Bytes chunk;
        std::uint32_t seq = 0;
        while (queue.pop(chunk)) {
          if (tx_span == nullptr) {
            tx_span = std::make_unique<obs::Span>("mig.tx");
            tx_span->arg("transport",
                         std::string(net::transport_name(options.transport)));
            // Write-ahead: the transaction exists on disk before any
            // frame names it on the wire.
            src_journal.append({JournalRecordType::Begin, txn, 0, 1, "source"});
            src_port->send(net::MsgType::StateBegin,
                           net::encode_state_begin({options.chunk_bytes, txn, 1}));
          }
          src_port->send(net::MsgType::StateChunk, net::encode_state_chunk(seq++, chunk));
          pm.chunks.add(1);
          pm.chunk_bytes.record(static_cast<double>(chunk.size()));
        }
        if (const auto e = queue.end_info()) {
          src_port->send(net::MsgType::StateEnd, net::encode_state_end(*e));
          if (tx_span != nullptr) measured_tx = tx_span->finish();
        }
      } catch (...) {
        sender_error = std::current_exception();
        queue.poison();  // collection must never block on a dead sender
      }
    });

    ti::TypeTable types;
    options.register_types(types);
    MigContext ctx(types);
    ctx.set_migrate_at_poll(options.migrate_at_poll);
    ctx.set_collect_threads(options.collect_threads);
    if (!dedup && rendezvoused) {
      // No sink without a live primary: the sender thread never started,
      // so a bounded queue would block collection at capacity.
      ctx.set_collect_sink(options.chunk_bytes, [&](std::span<const std::uint8_t> bytes) {
        if (pipeline_start == Clock::time_point{}) pipeline_start = Clock::now();
        queue.push(Bytes(bytes.begin(), bytes.end()));
      });
    }

    std::atomic<bool> program_done{false};
    std::thread scheduler;
    if (options.request_after_seconds > 0) {
      scheduler = std::thread([&ctx, &program_done, delay = options.request_after_seconds] {
        const auto fire_at = Clock::now() + std::chrono::duration<double>(delay);
        while (!program_done.load(std::memory_order_relaxed) && Clock::now() < fire_at) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (!program_done.load(std::memory_order_relaxed)) ctx.request_migration();
      });
    }
    auto join_scheduler = [&] {
      program_done.store(true, std::memory_order_relaxed);
      if (scheduler.joinable()) scheduler.join();
    };
    try {
      try {
        options.program(ctx);
      } catch (const MigrationExit&) {
        join_scheduler();
        throw;
      } catch (...) {
        join_scheduler();
        program_error = std::current_exception();
        throw;
      }
      join_scheduler();
    } catch (const MigrationExit&) {
      collected = true;
      stream.set(ctx.stream());  // retained for resumes, failover, serial retries
      digest = ctx.stream_digest();
      report.stream_digest = digest;
      report.stream_bytes = stream.size();
      report.collect_seconds = ctx.metrics().collect_seconds;
      report.source_arch = ctx.space().arch().name;
      if (!options.retain_dir.empty()) {
        // The spill is the transaction's ONLY replay source once it
        // lands; it must exist before the heap copy is freed.
        std::error_code ec;
        std::filesystem::create_directories(options.retain_dir, ec);
        stream.spill(options.retain_dir + "/retained-" + std::to_string(txn) +
                     ".stream");
      }
    }
    report.source_polls = ctx.poll_count();

    if (!collected) {
      queue.close(std::nullopt);
      join_sender();
      if (rendezvoused) src_port->send(net::MsgType::Shutdown, {});
      session.abort_decided("no migration was triggered");
    } else {
      // Stream-derived, NOT queue.pushed(): a poisoned queue undercounts
      // (push drops silently after a sender failure), and a resume's
      // StateEnd must describe the whole fixed-size chunking.
      end.chunk_count = static_cast<std::uint32_t>((stream.size() + cb - 1) / cb);
      end.total_bytes = stream.size();
      end.digest = digest;
      session.set_stream(end.chunk_count, digest);
      if (!rendezvoused) {
        // Nothing to send the dead primary: attempt 1 is over (its Hello
        // failure is already recorded) and the failover block replays the
        // retained stream at a standby.
        queue.close(std::nullopt);
        join_sender();
      } else if (!dedup) {
        queue.close(end);
        join_sender();
        if (sender_error != nullptr) std::rethrow_exception(sender_error);
      } else {
        // --- dedup: announce addresses, learn the miss set, ship only it ---
        obs::Span tx_span("mig.tx");
        tx_span.arg("transport", std::string(net::transport_name(options.transport)));
        tx_span.arg("dedup", std::uint64_t{1});
        pipeline_start = Clock::now();
        src_journal.append({JournalRecordType::Begin, txn, 0, 1, "source"});
        src_port->send(net::MsgType::StateBegin,
                       net::encode_state_begin({options.chunk_bytes, txn, 1}));
        negotiate_and_send();
        measured_tx = tx_span.finish();
      }
      if (rendezvoused) {
        const CommitResult r =
            source_commit_phase(*src_port, *inbox, session, deadline, txn, digest,
                                src_journal);
        unconfirmed = (r == CommitResult::Unconfirmed);
        attempt_ok = true;
      }
    }
  } catch (...) {
    source_error = std::current_exception();
    queue.poison();
    queue.close(std::nullopt);
    join_sender();
    fail_channel();
  }

  // Classify the attempt-1 failure before deciding whether to resume.
  bool fatal_other = false;  // non-hpm exception: propagate after teardown
  if (source_error != nullptr && program_error == nullptr) {
    try {
      std::rethrow_exception(source_error);
    } catch (const KilledError& e) {
      killed = true;
      if (collected) report.failure_causes.push_back("attempt 1: " + std::string(e.what()));
    } catch (const Error& e) {
      if (collected) report.failure_causes.push_back("attempt 1: " + std::string(e.what()));
    } catch (...) {
      fatal_other = true;
    }
  }

  // --- resume attempts: retransmit only past the acked watermark -----------
  const std::uint64_t total_chunks = collected ? (stream.size() + cb - 1) / cb : 0;
  double backoff = options.retry_backoff_seconds;
  while (rendezvoused && collected && !attempt_ok && !unconfirmed && !killed &&
         !fatal_other && program_error == nullptr && attempts_used < total_attempts &&
         !session.terminal() && dest.resumable()) {
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff = std::min(backoff * 2, options.retry_backoff_cap_seconds);
    }
    ++attempts_used;
    report.attempts = attempts_used;
    CoordinatorMetrics::get().attempts.add(1);
    CoordinatorMetrics::get().retries.add(1);
    try {
      note_link_lost();  // the machine must be Resuming to accept ResumeHello
      PortPair fresh = wiring.connect();
      if (!dest.offer(std::move(fresh.destination))) {
        report.failure_causes.push_back("attempt " + std::to_string(attempts_used) +
                                        ": destination no longer accepts a resume channel");
        break;
      }
      if (inbox != nullptr) {
        inbox->stop();
        inbox.reset();  // the pump must be gone before its port is
      }
      src_port = std::move(fresh.source);
      src_port->set_timeout(deadline.current());
      session.on_frame(src_port->recv());  // ResumeHello: version/txn/bound-checked
      const std::uint32_t next_seq = session.resume_next_seq();
      ResumeMetrics::get().attempts.add(1);
      ResumeMetrics::get().chunks_skipped.add(next_seq);
      report.resumed_from_seq = static_cast<std::int64_t>(next_seq);
      inbox = std::make_unique<ControlInbox>(*src_port, session);
      {
        obs::Span tx_span("mig.tx");
        tx_span.arg("transport", std::string(net::transport_name(options.transport)));
        tx_span.arg("resumed_from", std::uint64_t{next_seq});
        PipelineMetrics& pm = PipelineMetrics::get();
        for (std::uint64_t seq = next_seq; seq < total_chunks; ++seq) {
          const std::span<const std::uint8_t> body = read_chunk(seq);
          // A dedup stream's chunk payloads carry a codec tag byte; resume
          // retransmits everything raw (tag 0) — former cache hits included,
          // since the destination stopped splicing when the link dropped.
          src_port->send(net::MsgType::StateChunk,
                         dedup ? net::encode_state_chunk_coded(
                                     static_cast<std::uint32_t>(seq), 0, body)
                               : net::encode_state_chunk(
                                     static_cast<std::uint32_t>(seq), body));
          pm.chunks.add(1);
          pm.chunk_bytes.record(static_cast<double>(body.size()));
        }
        src_port->send(net::MsgType::StateEnd, net::encode_state_end(end));
        measured_tx += tx_span.finish();
      }
      const CommitResult r =
          source_commit_phase(*src_port, *inbox, session, deadline, txn, digest,
                              src_journal);
      unconfirmed = (r == CommitResult::Unconfirmed);
      attempt_ok = true;
    } catch (const KilledError& e) {
      killed = true;
      report.failure_causes.push_back("attempt " + std::to_string(attempts_used) + ": " +
                                      e.what());
      fail_channel();
    } catch (const Error& e) {
      report.failure_causes.push_back("attempt " + std::to_string(attempts_used) + ": " +
                                      e.what());
      fail_channel();
    }
  }

  // --- destination failover: re-target the stream at a standby --------------
  // The primary is now presumed dead (resume budget exhausted, host
  // crashed, or the session was supervisor-cancelled). A terminal session
  // is excluded on purpose: a destination that REJECTED the handoff
  // (Nack, digest mismatch) made a protocol decision, and re-playing the
  // same stream at a standby would just re-earn it.
  bool standby_finished = false;
  if (collected && !attempt_ok && !unconfirmed && !killed && !fatal_other &&
      program_error == nullptr && !session.terminal() &&
      options.failover.enabled() && wiring.connect_standby != nullptr) {
    const Clock::time_point declared_dead = Clock::now();
    FailoverMetrics::get().triggered.add(1);
    // Tear the primary endpoint down completely before any standby frame
    // can race its stragglers.
    if (inbox != nullptr) {
      inbox->stop();
      inbox.reset();
    }
    dest.close();
    dest.join();
    try {
      if (src_port != nullptr) src_port->close();
    } catch (...) {
    }
    src_port.reset();

    const FailoverPolicy& fo = options.failover;
    for (std::size_t k = 0; k < fo.standbys.size() && !session.terminal(); ++k) {
      const DestinationCandidate& cand = fo.standbys[k];
      const std::string label =
          cand.name.empty() ? "standby-" + std::to_string(k + 1) : cand.name;
      const auto inc = static_cast<std::uint32_t>(k + 2);

      // Dial under the policy's per-candidate budget.
      PortPair fresh;
      bool dialed = false;
      std::string dial_cause = "dial budget is zero";
      double dial_backoff = fo.dial_backoff_seconds;
      for (int d = 0; d < std::max(1, fo.dial_attempts); ++d) {
        if (d > 0 && dial_backoff > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(dial_backoff));
          dial_backoff = std::min(dial_backoff * 2, fo.dial_backoff_cap_seconds);
        }
        try {
          fresh = wiring.connect_standby(k);
          dialed = true;
          break;
        } catch (const Error& e) {
          dial_cause = e.what();
        }
      }
      if (!dialed) {
        FailoverMetrics::get().dial_failures.add(1);
        report.failure_causes.push_back("failover to " + label + ": " + dial_cause);
        continue;
      }

      ++attempts_used;
      report.attempts = attempts_used;
      CoordinatorMetrics::get().attempts.add(1);
      FailoverMetrics::get().redirects.add(1);
      ++report.failovers;
      session.redirect_decided(inc);

      // The candidate runs under its own destination config (its own
      // chunk store, its own chaos script) and its own intent journal —
      // the incarnation-suffixed file arbitration scans alongside the
      // primary's.
      RunOptions cand_options = options;
      cand_options.chunk_cache_dir = cand.chunk_cache_dir;
      cand_options.dest_fault_plan = cand.dest_fault_plan;
      Journal cand_journal;
      if (standby_journal_path) {
        const std::string path = standby_journal_path(inc);
        if (!path.empty()) cand_journal.open(path);
      }
      DestinationHost standby(cand_options, report, cand_journal, src_journal.path(),
                              deadline, wiring.session_id);
      standby.start(std::move(fresh.destination));
      src_port = std::move(fresh.source);
      src_port->set_timeout(deadline.current());
      try {
        session.on_frame(src_port->recv());  // the standby's own Hello
        session.begin_streaming();
        inbox = std::make_unique<ControlInbox>(*src_port, session);
        // Write-ahead: the redirect exists on disk before any frame names
        // the new incarnation on the wire.
        src_journal.append(
            {JournalRecordType::Begin, txn, 0, inc, "failover to " + label});
        src_port->send(net::MsgType::StateBegin,
                       net::encode_state_begin({options.chunk_bytes, txn, inc}));
        obs::Span tx_span("mig.tx");
        tx_span.arg("transport", std::string(net::transport_name(options.transport)));
        tx_span.arg("failover_incarnation", std::uint64_t{inc});
        if (!cand.chunk_cache_dir.empty()) {
          // Warm standby: negotiate against ITS store; only misses travel.
          negotiate_and_send();
        } else {
          PipelineMetrics& pm = PipelineMetrics::get();
          for (std::uint64_t seq = 0; seq < total_chunks; ++seq) {
            const std::span<const std::uint8_t> body = read_chunk(seq);
            src_port->send(net::MsgType::StateChunk,
                           net::encode_state_chunk(static_cast<std::uint32_t>(seq),
                                                   body));
            pm.chunks.add(1);
            pm.chunk_bytes.record(static_cast<double>(body.size()));
          }
          src_port->send(net::MsgType::StateEnd, net::encode_state_end(end));
        }
        measured_tx += tx_span.finish();
        const CommitResult r =
            source_commit_phase(*src_port, *inbox, session, deadline, txn, digest,
                                src_journal);
        unconfirmed = (r == CommitResult::Unconfirmed);
        attempt_ok = true;
      } catch (const KilledError& e) {
        killed = true;
        report.failure_causes.push_back("failover to " + label + ": " + e.what());
        fail_channel();
      } catch (const Error& e) {
        report.failure_causes.push_back("failover to " + label + ": " + e.what());
        fail_channel();
      }
      if (inbox != nullptr) {
        inbox->stop();
        inbox.reset();
      }
      standby.close();
      standby.join();
      try {
        if (src_port != nullptr) src_port->close();
      } catch (...) {
      }
      src_port.reset();
      if (attempt_ok || unconfirmed || killed) {
        standby_finished = standby.finished();
        if (attempt_ok || unconfirmed) {
          const double downtime =
              std::chrono::duration<double>(Clock::now() - declared_dead).count();
          report.failover_downtime_seconds = downtime;
          FailoverMetrics::get().downtime.record(downtime);
        }
        break;
      }
    }
  }
  const Clock::time_point pipeline_end = Clock::now();

  // --- teardown -------------------------------------------------------------
  if (inbox != nullptr) inbox->stop();
  dest.close();
  dest.join();
  try {
    if (src_port != nullptr) src_port->close();
  } catch (...) {
  }

  if (program_error != nullptr) std::rethrow_exception(program_error);
  if (fatal_other) std::rethrow_exception(source_error);

  if (!collected) {
    // The workload already finished on the source; a torn-down teardown
    // handshake doesn't change its fate.
    return TxnResult::CompletedLocally;
  }
  report.dest_incarnation = session.incarnation();
  const bool dest_finished = dest.finished() || standby_finished;
  if (killed) {
    report.migrated = dest_finished;
    return TxnResult::SourceCrashed;
  }
  if (unconfirmed) {
    report.migrated = dest_finished;
    return TxnResult::CommittedUnconfirmed;
  }
  if (attempt_ok) {
    report.migrated = true;
    report.tx_seconds =
        options.throttle ? measured_tx : options.link.transfer_seconds(stream.size());
    // Overlap: wall-clock from the first chunk leaving collection to the
    // acknowledged restore, vs. the sum of the three phase timings. Fully
    // serial execution gives 0; perfect overlap approaches 1.
    const double wall = std::chrono::duration<double>(pipeline_end - pipeline_start).count();
    const double phases = report.collect_seconds + measured_tx + report.restore_seconds;
    if (wall > 0 && phases > 0) {
      report.overlap_ratio = std::clamp(1.0 - wall / phases, 0.0, 1.0);
    }
    PipelineMetrics::get().overlap.record(report.overlap_ratio);
    return TxnResult::Migrated;
  }
  return TxnResult::Failed;
}

}  // namespace hpm::mig
