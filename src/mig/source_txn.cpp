#include "mig/source_txn.hpp"

#include <algorithm>
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

Rung next_rung(const LadderState& s) noexcept {
  switch (s.failure) {
    case LegFailure::None:
    case LegFailure::Killed:
    case LegFailure::ProgramError:
    case LegFailure::Foreign:
      return {.kind = RungKind::Stop};
    default:
      break;
  }
  const bool budget = s.attempts_used < s.total_attempts;
  if (s.failure == LegFailure::TransportDeath && s.resumable && budget) {
    return {.kind = RungKind::Resume, .incarnation = s.incarnation};
  }
  // Standby k always runs as incarnation k + 2, so a candidate is open
  // only while that token still lies above the failed leg's. A veto is a
  // verdict on the stream, not the host: no standby would vote otherwise.
  if (s.failure != LegFailure::Veto && s.next_standby < s.standbys &&
      s.next_standby + 2 > s.incarnation) {
    return {.kind = RungKind::Standby,
            .standby = s.next_standby,
            .incarnation = static_cast<std::uint32_t>(s.next_standby + 2)};
  }
  // A supervisor's verdict poisons the primary's binding for good.
  if (s.failure != LegFailure::Cancelled && budget) {
    return {.kind = RungKind::Replay,
            .incarnation = std::max(s.incarnation + 1,
                                    static_cast<std::uint32_t>(s.standbys + 2))};
  }
  return {.kind = RungKind::Fail};
}

TxnResult run_pipelined_transaction(const RunOptions& options, MigrationReport& report,
                                    RetainedStream& stream, const SessionWiring& wiring,
                                    const net::DeadlinePolicy& deadline,
                                    const TxnJournals& journals, std::uint64_t txn) {
  TxnMetrics::get().begins.add(1);
  report.txn_id = txn;
  Journal src_journal;
  if (!journals.source.empty()) src_journal.open(journals.source);
  const std::size_t cb = std::max<std::size_t>(1, options.chunk_bytes);
  const int total_attempts = 1 + std::max(0, options.max_retries);
  const std::size_t standbys =
      wiring.connect_standby != nullptr ? options.failover.standbys.size() : 0;

  std::unique_ptr<SourceSession> session;
  // --- the current leg: one DestinationHost plus the source's binding to
  // it. A resume keeps the leg and swaps the binding; standby and replay
  // rungs end it and start a fresh host under a new incarnation.
  RunOptions standby_options;  // a standby host's config (outlives its host)
  std::unique_ptr<Journal> leg_journal;
  std::unique_ptr<DestinationHost> host;
  std::unique_ptr<MessagePort> port;
  std::unique_ptr<ControlInbox> inbox;
  bool leg_dedup = false;  // the leg negotiates a manifest: chunk frames carry a codec tag
  bool leg_finished = false;

  /// Set when options.program itself throws (anything but MigrationExit):
  /// a workload failure is the caller's to see, never a retryable
  /// transport fault — rethrown after teardown, matching the serial path.
  std::exception_ptr program_error;
  std::exception_ptr foreign_error;
  bool collected = false;
  bool unconfirmed = false;
  std::uint64_t digest = 0;
  net::StateEndInfo end;
  double measured_tx = 0;
  double backoff = options.retry_backoff_seconds;
  std::size_t next_standby = 0;
  Clock::time_point pipeline_start{};
  Clock::time_point declared_dead{};

  auto start_leg = [&](const RunOptions& leg_options, std::uint32_t inc, PortPair ports) {
    leg_journal = std::make_unique<Journal>();
    if (journals.dest) {
      const std::string path = journals.dest(inc);
      if (!path.empty()) leg_journal->open(path);
    }
    port = std::move(ports.source);
    port->set_timeout(deadline.current());
    host = std::make_unique<DestinationHost>(leg_options, report, *leg_journal,
                                             src_journal.path(), deadline, wiring.session_id);
    host->start(std::move(ports.destination));
    leg_dedup = !leg_options.chunk_cache_dir.empty();
  };
  auto end_leg = [&] {
    if (inbox != nullptr) {
      inbox->stop();
      inbox.reset();  // the pump must be gone before its port is
    }
    if (host != nullptr) {
      host->close();
      host->join();
      leg_finished = host->finished();
      host.reset();
    }
    if (port != nullptr) {
      try {
        port->close();
      } catch (...) {
      }
      port.reset();
    }
  };
  auto spend_attempt = [&] {
    ++report.attempts;
    CoordinatorMetrics::get().attempts.add(1);
    return "attempt " + std::to_string(report.attempts);
  };
  /// Resume and replay rungs wait out the capped exponential backoff.
  auto spend_retry = [&] {
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff = std::min(backoff * 2, options.retry_backoff_cap_seconds);
    }
    CoordinatorMetrics::get().retries.add(1);
    return spend_attempt();
  };
  auto commit = [&] {
    unconfirmed = source_commit_phase(*port, *inbox, *session, deadline, txn, digest,
                                      src_journal) == CommitResult::Unconfirmed;
    return LegFailure::None;
  };

  /// Run one rung's body and classify its failure once. A rung that
  /// never collected leaves no cause: the workload's fate is not a
  /// transfer failure.
  auto guarded = [&](const std::string& label, auto&& body) -> LegFailure {
    LegFailure failure = LegFailure::Foreign;
    auto note = [&](const std::exception& e, LegFailure f) {
      if (collected) report.failure_causes.push_back(label + ": " + e.what());
      return f;
    };
    try {
      return body();
    } catch (const KilledError& e) {
      failure = note(e, LegFailure::Killed);
    } catch (const CancelledError& e) {
      failure = note(e, LegFailure::Cancelled);
    } catch (const Error& e) {
      // Only a rejection lands the machine in Aborted; a dead binding
      // leaves it live, where link_lost and redirect_decided stay legal.
      failure = note(e, session->terminal() ? LegFailure::Veto : LegFailure::TransportDeath);
    } catch (...) {
      foreign_error = std::current_exception();
    }
    // Stop the pump (which aborts the port) so a blocked peer wakes.
    if (inbox != nullptr) {
      inbox->stop();
    } else if (port != nullptr) {
      try {
        port->abort();
      } catch (...) {
      }
    }
    return program_error != nullptr ? LegFailure::ProgramError : failure;
  };

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

  /// Send one StateChunk; returns its payload size. A manifest-negotiated
  /// leg (`coded`) frames the body as u32 seq | u8 codec tag | body,
  /// VarintDelta-encoded when `codec` asks for it and the encoding pays.
  auto send_chunk = [&](std::uint32_t seq, std::span<const std::uint8_t> body, bool coded,
                        WireCodec codec = WireCodec::None) -> std::size_t {
    Bytes payload;
    if (codec == WireCodec::VarintDelta) {
      Bytes encoded = codec_encode(body);
      if (encoded.size() < body.size()) {
        DedupMetrics::get().codec_ratio.record(static_cast<double>(encoded.size()) /
                                               static_cast<double>(body.size()));
        payload = net::encode_state_chunk_coded(
            seq, static_cast<std::uint8_t>(WireCodec::VarintDelta), encoded);
      } else {
        DedupMetrics::get().codec_ratio.record(1.0);  // raw fallback: encoding did not pay
      }
    }
    if (payload.empty()) {
      payload = coded ? net::encode_state_chunk_coded(seq, 0, body)
                      : net::encode_state_chunk(seq, body);
    }
    port->send(net::MsgType::StateChunk, payload);
    PipelineMetrics& pm = PipelineMetrics::get();
    pm.chunks.add(1);
    pm.chunk_bytes.record(static_cast<double>(payload.size() - (coded ? 5 : 4)));
    return payload.size();
  };

  /// Chunks [from, end) out of the retained stream, then StateEnd: the one
  /// range sender of every resume and raw replay. A resume on a dedup leg
  /// retransmits raw-tagged — former cache hits included, since the
  /// destination stopped splicing when the link dropped.
  auto send_range = [&](std::uint32_t from, bool coded) {
    for (std::uint32_t seq = from; seq < end.chunk_count; ++seq) {
      send_chunk(seq, read_chunk(seq), coded);
    }
    port->send(net::MsgType::StateEnd, net::encode_state_end(end));
  };

  /// Dedup negotiation + residual transfer on the current leg (DESIGN.md
  /// §15): announce the manifest, learn the destination's miss set, ship
  /// only the misses (codec-compressed when it pays), then StateEnd. A
  /// warm standby answers with its OWN store's misses, so its replay is a
  /// trickle.
  auto negotiate_and_send = [&] {
    DedupMetrics& dm = DedupMetrics::get();
    const std::uint32_t nchunks = end.chunk_count;
    const std::uint8_t caps = codec_caps_of(options.wire_codec);
    std::uint64_t wire = 0;
    {
      const Bytes payload =
          net::encode_manifest_begin({txn, nchunks, options.chunk_bytes, caps});
      wire += payload.size();
      port->send(net::MsgType::ManifestBegin, payload);
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
        port->send(net::MsgType::ManifestChunk, payload);
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
    std::int64_t prev_idx = -1;
    for (const std::uint32_t idx : ack.misses) {
      if (idx >= nchunks || static_cast<std::int64_t>(idx) <= prev_idx) {
        throw ProtocolError("ManifestAck miss set is out of range or unsorted");
      }
      prev_idx = idx;
    }
    for (const std::uint32_t idx : ack.misses) {
      wire += send_chunk(idx, read_chunk(idx), true, static_cast<WireCodec>(ack.codec));
    }
    {
      const Bytes payload = net::encode_state_end(end);
      wire += payload.size();
      port->send(net::MsgType::StateEnd, payload);
    }
    report.dedup_miss_chunks = ack.misses.size();
    report.dedup_hit_chunks = nchunks - ack.misses.size();
    report.dedup_wire_bytes = wire;
  };

  /// The host's Hello (version-checked by the machine) opens streaming.
  auto rendezvous = [&] {
    session->on_frame(port->recv());
    session->begin_streaming();
    inbox = std::make_unique<ControlInbox>(*port, *session);
  };
  /// Write-ahead: the incarnation exists on disk before any frame names
  /// it on the wire.
  auto begin_leg = [&](std::uint32_t inc, const std::string& note) {
    src_journal.append({JournalRecordType::Begin, txn, 0, inc, note});
    port->send(net::MsgType::StateBegin,
               net::encode_state_begin({options.chunk_bytes, txn, inc}));
  };
  /// The rest of a leg out of the retained stream — the manifest
  /// negotiation, or chunks [from, end) — timed as one mig.tx span, then
  /// the commit phase.
  auto send_and_commit = [&](const char* span_arg, std::uint64_t span_value, bool manifest,
                             std::uint32_t from) {
    obs::Span tx_span("mig.tx");
    tx_span.arg("transport", std::string(net::transport_name(options.transport)));
    tx_span.arg(span_arg, span_value);
    if (manifest) {
      negotiate_and_send();
    } else {
      send_range(from, leg_dedup);
    }
    measured_tx += tx_span.finish();
    return commit();
  };

  // --- rung 1: the primary at incarnation 1, streaming chunks while the
  // collection DFS still walks the graph. Dedup'd transfer (DESIGN.md §15)
  // collects in full first — the manifest needs every chunk address — so
  // it runs no sender thread and no collect sink.
  session = std::make_unique<SourceSession>(wiring.session_id, txn);
  start_leg(options, 1, wiring.connect());
  spend_attempt();
  const bool dedup = leg_dedup;
  ChunkQueue queue(kChunkQueueCapacity);
  std::exception_ptr sender_error;
  std::thread sender;
  auto join_sender = [&] {
    if (sender.joinable()) sender.join();
  };
  /// Set when the primary's Hello never came: the program then runs
  /// sink-less (full in-memory collection) and the ladder moves the
  /// retained stream to another leg.
  std::exception_ptr hello_error;

  LegFailure failure = guarded("attempt 1", [&] {
    try {
      try {
        rendezvous();
      } catch (const KilledError&) {
        throw;  // an injected SOURCE death is a crash, never a dead primary
      } catch (const Error&) {
        hello_error = std::current_exception();
      }
      const bool streaming = hello_error == nullptr;
      if (!dedup && streaming) sender = std::thread([&] {
        try {
          std::unique_ptr<obs::Span> tx_span;
          Bytes chunk;
          std::uint32_t seq = 0;
          while (queue.pop(chunk)) {
            if (tx_span == nullptr) {
              tx_span = std::make_unique<obs::Span>("mig.tx");
              tx_span->arg("transport",
                           std::string(net::transport_name(options.transport)));
              begin_leg(1, "source");
            }
            send_chunk(seq++, chunk, false);
          }
          if (const auto e = queue.end_info()) {
            port->send(net::MsgType::StateEnd, net::encode_state_end(*e));
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
      if (!dedup && streaming) {
        // No sink without a live primary: the sender thread never started,
        // so a bounded queue would block collection at capacity.
        ctx.set_collect_sink(options.chunk_bytes, [&](std::span<const std::uint8_t> bytes) {
          if (pipeline_start == Clock::time_point{}) pipeline_start = Clock::now();
          queue.push(Bytes(bytes.begin(), bytes.end()));
        });
      }
      try {
        collected = run_source_program(options, ctx);
      } catch (...) {
        program_error = std::current_exception();
        throw;
      }
      if (collected) {
        stream.set(ctx.stream());  // retained for every later rung
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
        if (streaming) port->send(net::MsgType::Shutdown, {});
        session->abort_decided("no migration was triggered");
        return LegFailure::None;
      }
      // Stream-derived, NOT queue.pushed(): a poisoned queue undercounts
      // (push drops silently after a sender failure), and a resume's
      // StateEnd must describe the whole fixed-size chunking.
      end.chunk_count = static_cast<std::uint32_t>((stream.size() + cb - 1) / cb);
      end.total_bytes = stream.size();
      end.digest = digest;
      session->set_stream(end.chunk_count, digest);
      if (!streaming) std::rethrow_exception(hello_error);
      if (dedup) {
        pipeline_start = Clock::now();
        begin_leg(1, "source");
        return send_and_commit("dedup", 1, true, 0);
      }
      queue.close(end);
      join_sender();
      if (sender_error != nullptr) std::rethrow_exception(sender_error);
      return commit();
    } catch (...) {
      queue.poison();
      queue.close(std::nullopt);
      join_sender();
      throw;
    }
  });
  if (hello_error != nullptr && failure == LegFailure::TransportDeath) {
    failure = LegFailure::NoRendezvous;
  }

  // --- the ladder: every later rung re-sends out of the retained stream.
  while (collected) {
    // Resumable: the host parks for a new binding and the machine can
    // take link_lost (a leg that died before streaming has nothing to resume).
    const SessionState state = session->state();
    const Rung rung = next_rung({.failure = failure,
                                 .resumable = host != nullptr && host->resumable() &&
                                              (state == SessionState::Streaming ||
                                               state == SessionState::Prepared ||
                                               state == SessionState::Resuming),
                                 .attempts_used = report.attempts,
                                 .total_attempts = total_attempts,
                                 .standbys = standbys,
                                 .next_standby = next_standby,
                                 .incarnation = session->incarnation()});
    if (rung.kind == RungKind::Stop || rung.kind == RungKind::Fail) break;
    const std::uint32_t inc = rung.incarnation;

    if (rung.kind == RungKind::Resume) {
      // Same leg, fresh binding: the host parked on its port failure and
      // announces its watermark in ResumeHello; only [watermark, end)
      // travels.
      const std::string label = spend_retry();
      failure = guarded(label, [&] {
        // The machine must be Resuming to accept ResumeHello.
        if (session->state() != SessionState::Resuming) session->link_lost();
        PortPair fresh = wiring.connect();
        if (!host->offer(std::move(fresh.destination))) {
          report.failure_causes.push_back(
              label + ": destination no longer accepts a resume channel");
          return LegFailure::TransportDeath;
        }
        if (inbox != nullptr) {
          inbox->stop();
          inbox.reset();
        }
        port = std::move(fresh.source);
        port->set_timeout(deadline.current());
        session->on_frame(port->recv());  // ResumeHello: version/txn/bound-checked
        const std::uint32_t next_seq = session->resume_next_seq();
        ResumeMetrics::get().attempts.add(1);
        ResumeMetrics::get().chunks_skipped.add(next_seq);
        report.resumed_from_seq = static_cast<std::int64_t>(next_seq);
        inbox = std::make_unique<ControlInbox>(*port, *session);
        return send_and_commit("resumed_from", next_seq, false, next_seq);
      });
      continue;
    }

    // A new leg. Tear the old one down completely before any frame of the
    // new one can race its stragglers.
    if (rung.kind == RungKind::Standby && declared_dead == Clock::time_point{}) {
      declared_dead = Clock::now();
      FailoverMetrics::get().triggered.add(1);
    }
    end_leg();
    if (rung.kind == RungKind::Replay) {
      const std::string label = spend_retry();
      // A fresh machine: after a veto the old one sits in Aborted, and
      // Aborted stays terminal.
      session = std::make_unique<SourceSession>(wiring.session_id, txn);
      session->set_stream(end.chunk_count, digest);
      session->redirect_decided(inc);
      failure = guarded(label, [&] {
        start_leg(options, inc, wiring.connect());
        rendezvous();
        begin_leg(inc, "replay at the primary");
        return send_and_commit("replay_incarnation", inc, leg_dedup, 0);
      });
      continue;
    }

    const FailoverPolicy& fo = options.failover;
    const DestinationCandidate& cand = fo.standbys[rung.standby];
    next_standby = rung.standby + 1;
    const std::string label =
        "failover to " +
        (cand.name.empty() ? "standby-" + std::to_string(rung.standby + 1) : cand.name);
    // Dial under the policy's per-candidate budget; a failed dial spends
    // no attempt.
    PortPair fresh;
    std::string dial_cause = "dial budget is zero";
    bool dialed = false;
    double dial_backoff = fo.dial_backoff_seconds;
    for (int d = 0; d < std::max(1, fo.dial_attempts) && !dialed; ++d) {
      if (d > 0 && dial_backoff > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(dial_backoff));
        dial_backoff = std::min(dial_backoff * 2, fo.dial_backoff_cap_seconds);
      }
      try {
        fresh = wiring.connect_standby(rung.standby);
        dialed = true;
      } catch (const Error& e) {
        dial_cause = e.what();
      }
    }
    if (!dialed) {
      FailoverMetrics::get().dial_failures.add(1);
      report.failure_causes.push_back(label + ": " + dial_cause);
      failure = LegFailure::DialFailed;
      continue;
    }
    spend_attempt();
    FailoverMetrics::get().redirects.add(1);
    ++report.failovers;
    session->redirect_decided(inc);
    // The candidate runs under its own destination config (its own chunk
    // store, its own chaos script) and its own intent journal.
    standby_options = options;
    standby_options.chunk_cache_dir = cand.chunk_cache_dir;
    standby_options.dest_fault_plan = cand.dest_fault_plan;
    start_leg(standby_options, inc, std::move(fresh));
    failure = guarded(label, [&] {
      rendezvous();
      begin_leg(inc, label);
      return send_and_commit("failover_incarnation", inc, leg_dedup, 0);
    });
  }
  const Clock::time_point pipeline_end = Clock::now();
  end_leg();

  if (failure == LegFailure::ProgramError) std::rethrow_exception(program_error);
  if (failure == LegFailure::Foreign) std::rethrow_exception(foreign_error);
  if (!collected) {
    // The workload already finished on the source; a torn-down teardown
    // handshake doesn't change its fate.
    return TxnResult::CompletedLocally;
  }
  report.dest_incarnation = session->incarnation();
  if (failure == LegFailure::Killed) {
    report.migrated = leg_finished;
    return TxnResult::SourceCrashed;
  }
  if (failure != LegFailure::None) {
    // Durable before the local restore begins: a crash mid-degradation
    // must still arbitrate to the source.
    src_journal.append({JournalRecordType::Abort, txn, 0, session->incarnation(),
                        "degraded to local completion"});
    TxnMetrics::get().aborts.add(1);
    return TxnResult::Failed;
  }
  if (report.failovers > 0) {
    const double downtime =
        std::chrono::duration<double>(Clock::now() - declared_dead).count();
    report.failover_downtime_seconds = downtime;
    FailoverMetrics::get().downtime.record(downtime);
  }
  if (unconfirmed) {
    report.migrated = leg_finished;
    return TxnResult::CommittedUnconfirmed;
  }
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

}  // namespace hpm::mig
