// Table-driven exhaustive check of the session state machines: every
// (state, frame) pair of both machines is enumerated against the
// transition tables in session.cpp. The error taxonomy is the contract:
// an illegal pair poisons the session into Aborted and raises
// hpm::ProtocolError; a protocol-legal failure (Nack/Error frames, txn or
// digest or version mismatch) aborts with hpm::MigrationError instead.
// The recovery ladder's rule table (next_rung) is checked the same way:
// hand-picked rows for each rule, then a sweep over every input.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "mig/session.hpp"
#include "mig/source_txn.hpp"
#include "net/message.hpp"

namespace hpm::mig {
namespace {

constexpr std::uint64_t kTxn = 0xABCDEF01u;

/// Distinct ids per machine instance so per-session counters never mix
/// with other tests running in the same process.
std::uint32_t next_session_id() {
  static std::atomic<std::uint32_t> next{9000};
  return next.fetch_add(1);
}

net::Message make_frame(net::MsgType type) {
  net::Message m;
  m.type = type;
  switch (type) {
    case net::MsgType::Hello: m.payload = {net::kProtocolVersion}; break;
    case net::MsgType::State: m.payload = {1, 2, 3}; break;
    case net::MsgType::Nack:
    case net::MsgType::Error: m.payload = {'x'}; break;
    case net::MsgType::StateBegin:
      m.payload = net::encode_state_begin({.chunk_bytes = 1024, .txn_id = kTxn});
      break;
    case net::MsgType::StateChunk: {
      const std::uint8_t body[] = {7, 7};
      m.payload = net::encode_state_chunk(0, body);
      break;
    }
    case net::MsgType::StateEnd:
      m.payload = net::encode_state_end({.chunk_count = 1, .total_bytes = 2, .digest = 5});
      break;
    case net::MsgType::StateAck: m.payload = net::encode_state_ack(5); break;
    case net::MsgType::Prepare:
    case net::MsgType::Commit:
    case net::MsgType::Abort: m.payload = net::encode_txn(kTxn); break;
    case net::MsgType::PrepareAck:
      m.payload = net::encode_prepare_ack({.txn_id = kTxn, .digest = 0});
      break;
    case net::MsgType::ResumeHello:
      m.payload = net::encode_resume_hello({.txn_id = kTxn, .next_seq = 3});
      break;
    default: break;
  }
  return m;
}

const net::MsgType kAllTypes[] = {
    net::MsgType::Hello,     net::MsgType::State,    net::MsgType::Ack,
    net::MsgType::Error,     net::MsgType::Shutdown, net::MsgType::Nack,
    net::MsgType::StateBegin, net::MsgType::StateChunk, net::MsgType::StateEnd,
    net::MsgType::StateAck,  net::MsgType::Prepare,  net::MsgType::PrepareAck,
    net::MsgType::Commit,    net::MsgType::Abort,    net::MsgType::ResumeHello,
};

/// What a (state, frame) cell expects.
enum class Want {
  Legal,         ///< accepted; machine lands in `to`
  ProtocolErr,   ///< illegal pair: Aborted + ProtocolError
  MigrationErr,  ///< legal-but-failed: Aborted + MigrationError
};

struct Cell {
  SessionState from;
  net::MsgType frame;
  Want want;
  SessionState to;  ///< meaningful for Want::Legal only
};

/// ---- SourceSession --------------------------------------------------------

/// Drive a fresh source machine into `state` through legal moves only.
void drive_source(SourceSession& s, SessionState state) {
  if (state == SessionState::Idle) return;
  if (state == SessionState::Aborted) {
    s.abort_decided("driven for test");
    return;
  }
  s.on_frame(make_frame(net::MsgType::Hello));
  if (state == SessionState::Hello) return;
  s.begin_streaming();
  if (state == SessionState::Streaming) return;
  if (state == SessionState::Resuming) {
    s.link_lost();
    return;
  }
  s.prepare_sent();
  if (state == SessionState::Prepared) return;
  s.on_frame(make_frame(net::MsgType::PrepareAck));
  s.commit_decided();
  ASSERT_EQ(s.state(), SessionState::Committed);
}

std::vector<Cell> source_table() {
  const SessionState all[] = {
      SessionState::Idle,     SessionState::Hello,    SessionState::Streaming,
      SessionState::Resuming, SessionState::Prepared, SessionState::Committed,
      SessionState::Aborted,
  };
  std::vector<Cell> table;
  for (SessionState from : all) {
    const bool terminal =
        from == SessionState::Committed || from == SessionState::Aborted;
    for (net::MsgType t : kAllTypes) {
      Cell cell{from, t, Want::ProtocolErr, from};
      switch (t) {
        case net::MsgType::Hello:
          if (from == SessionState::Idle) cell = {from, t, Want::Legal, SessionState::Hello};
          break;
        case net::MsgType::ResumeHello:
          if (from == SessionState::Resuming) {
            cell = {from, t, Want::Legal, SessionState::Streaming};
          }
          break;
        case net::MsgType::StateAck:
          // Watermark folding while live, straggler no-op after the verdict;
          // only the pre-stream states treat it as hostile.
          if (from != SessionState::Idle && from != SessionState::Hello) {
            cell = {from, t, Want::Legal, from};
          }
          break;
        case net::MsgType::PrepareAck:
          if (from == SessionState::Prepared) cell = {from, t, Want::Legal, from};
          break;
        case net::MsgType::Ack:
          if (from == SessionState::Committed) cell = {from, t, Want::Legal, from};
          break;
        case net::MsgType::Nack:
        case net::MsgType::Error:
          // A failure report is part of the protocol anywhere before the
          // verdict — the handoff failed, the protocol did not.
          if (!terminal) cell = {from, t, Want::MigrationErr, SessionState::Aborted};
          break;
        default:
          break;  // the destination-direction frames are never legal here
      }
      table.push_back(cell);
    }
  }
  return table;
}

TEST(SourceSessionTable, EveryStateFramePairBehavesPerTheTable) {
  for (const Cell& cell : source_table()) {
    SCOPED_TRACE(std::string(session_state_name(cell.from)) + " + frame " +
                 std::to_string(static_cast<int>(cell.frame)));
    SourceSession s(next_session_id(), kTxn);
    drive_source(s, cell.from);
    ASSERT_EQ(s.state(), cell.from);
    switch (cell.want) {
      case Want::Legal:
        EXPECT_EQ(s.on_frame(make_frame(cell.frame)), cell.to);
        break;
      case Want::ProtocolErr:
        EXPECT_THROW(s.on_frame(make_frame(cell.frame)), ProtocolError);
        EXPECT_EQ(s.state(), SessionState::Aborted) << "illegal frames poison";
        EXPECT_FALSE(s.abort_reason().empty());
        break;
      case Want::MigrationErr:
        EXPECT_THROW(s.on_frame(make_frame(cell.frame)), MigrationError);
        EXPECT_EQ(s.state(), SessionState::Aborted);
        break;
    }
  }
}

TEST(SourceSessionTable, SemanticChecksRejectWithMigrationError) {
  {  // version skew in Hello
    SourceSession s(next_session_id(), kTxn);
    net::Message hello = make_frame(net::MsgType::Hello);
    hello.payload[0] = net::kProtocolVersion - 1;
    EXPECT_THROW(s.on_frame(hello), MigrationError);
    EXPECT_EQ(s.state(), SessionState::Aborted);
  }
  {  // ResumeHello for a foreign transaction
    SourceSession s(next_session_id(), kTxn);
    drive_source(s, SessionState::Resuming);
    net::Message resume;
    resume.type = net::MsgType::ResumeHello;
    resume.payload = net::encode_resume_hello({.txn_id = kTxn + 1, .next_seq = 0});
    EXPECT_THROW(s.on_frame(resume), MigrationError);
  }
  {  // ResumeHello claiming more chunks than the retained stream holds
    SourceSession s(next_session_id(), kTxn);
    drive_source(s, SessionState::Resuming);
    s.set_stream(2, 99);
    net::Message resume;
    resume.type = net::MsgType::ResumeHello;
    resume.payload = net::encode_resume_hello({.txn_id = kTxn, .next_seq = 3});
    EXPECT_THROW(s.on_frame(resume), MigrationError);
  }
  {  // end-to-end digest mismatch at Prepare
    SourceSession s(next_session_id(), kTxn);
    drive_source(s, SessionState::Prepared);
    s.set_stream(4, 0xAAAA);
    net::Message ack;
    ack.type = net::MsgType::PrepareAck;
    ack.payload = net::encode_prepare_ack({.txn_id = kTxn, .digest = 0xBBBB});
    EXPECT_THROW(s.on_frame(ack), MigrationError);
    EXPECT_NE(s.abort_reason().find("digest mismatch"), std::string::npos);
  }
}

TEST(SourceSessionTable, StateAckFoldsTheWatermarkMonotonically) {
  SourceSession s(next_session_id(), kTxn);
  drive_source(s, SessionState::Streaming);
  net::Message ack;
  ack.type = net::MsgType::StateAck;
  ack.payload = net::encode_state_ack(8);
  s.on_frame(ack);
  EXPECT_EQ(s.acked_watermark(), 8u);
  ack.payload = net::encode_state_ack(4);  // late, lower: must not regress
  s.on_frame(ack);
  EXPECT_EQ(s.acked_watermark(), 8u);
}

TEST(SourceSessionTable, OutOfOrderLocalEventsAreProtocolErrors) {
  SourceSession s(next_session_id(), kTxn);
  EXPECT_THROW(s.begin_streaming(), ProtocolError);  // no Hello yet
  EXPECT_EQ(s.state(), SessionState::Aborted);

  SourceSession s2(next_session_id(), kTxn);
  drive_source(s2, SessionState::Hello);
  EXPECT_THROW(s2.commit_decided(), ProtocolError);  // no Prepare yet
}

/// ---- DestSession ----------------------------------------------------------

/// Destination driver states: SessionState plus the "stream fully
/// received" refinement of Streaming that gates Prepare.
struct DestFrom {
  SessionState state;
  bool stream_done;
};

void drive_dest(DestSession& d, const DestFrom& from) {
  if (from.state == SessionState::Idle) return;
  if (from.state == SessionState::Aborted) {
    d.abort_decided("driven for test");
    return;
  }
  d.announce();
  if (from.state == SessionState::Hello) return;
  d.on_frame(make_frame(net::MsgType::StateBegin));
  if (from.state == SessionState::Resuming) {
    d.park();
    return;
  }
  if (from.state == SessionState::Streaming) {
    if (from.stream_done) d.on_frame(make_frame(net::MsgType::StateEnd));
    return;
  }
  d.on_frame(make_frame(net::MsgType::StateEnd));
  d.on_frame(make_frame(net::MsgType::Prepare));
  if (from.state == SessionState::Prepared) return;
  d.on_frame(make_frame(net::MsgType::Commit));
  ASSERT_EQ(d.state(), SessionState::Committed);
}

std::vector<std::pair<DestFrom, std::vector<Cell>>> dest_table() {
  const DestFrom froms[] = {
      {SessionState::Idle, false},      {SessionState::Hello, false},
      {SessionState::Streaming, false}, {SessionState::Streaming, true},
      {SessionState::Resuming, false},  {SessionState::Prepared, false},
      {SessionState::Committed, false}, {SessionState::Aborted, false},
  };
  std::vector<std::pair<DestFrom, std::vector<Cell>>> table;
  for (const DestFrom& from : froms) {
    std::vector<Cell> cells;
    for (net::MsgType t : kAllTypes) {
      Cell cell{from.state, t, Want::ProtocolErr, from.state};
      switch (t) {
        case net::MsgType::StateBegin:
          if (from.state == SessionState::Hello) {
            cell = {from.state, t, Want::Legal, SessionState::Streaming};
          }
          break;
        case net::MsgType::Shutdown:
          // Orderly no-migration teardown: lands in Aborted WITHOUT a
          // throw; asserted separately below (not a Want::Legal cell
          // because `to` differs from a failure-free continuation).
          if (from.state == SessionState::Hello) {
            cell = {from.state, t, Want::Legal, SessionState::Aborted};
          }
          break;
        case net::MsgType::StateChunk:
        case net::MsgType::StateEnd:
          if (from.state == SessionState::Streaming && !from.stream_done) {
            cell = {from.state, t, Want::Legal, SessionState::Streaming};
          }
          break;
        case net::MsgType::Prepare:
          if (from.state == SessionState::Streaming && from.stream_done) {
            cell = {from.state, t, Want::Legal, SessionState::Prepared};
          }
          break;
        case net::MsgType::Commit:
          if (from.state == SessionState::Prepared) {
            cell = {from.state, t, Want::Legal, SessionState::Committed};
          }
          break;
        case net::MsgType::Abort:
          if (from.state == SessionState::Prepared) {
            cell = {from.state, t, Want::MigrationErr, SessionState::Aborted};
          }
          break;
        default:
          break;  // the source-direction frames are never legal here
      }
      cells.push_back(cell);
    }
    table.emplace_back(from, std::move(cells));
  }
  return table;
}

TEST(DestSessionTable, EveryStateFramePairBehavesPerTheTable) {
  for (const auto& [from, cells] : dest_table()) {
    for (const Cell& cell : cells) {
      SCOPED_TRACE(std::string(session_state_name(from.state)) +
                   (from.stream_done ? "(stream-done)" : "") + " + frame " +
                   std::to_string(static_cast<int>(cell.frame)));
      DestSession d(next_session_id());
      drive_dest(d, from);
      ASSERT_EQ(d.state(), from.state);
      switch (cell.want) {
        case Want::Legal:
          EXPECT_EQ(d.on_frame(make_frame(cell.frame)), cell.to);
          break;
        case Want::ProtocolErr:
          EXPECT_THROW(d.on_frame(make_frame(cell.frame)), ProtocolError);
          EXPECT_EQ(d.state(), SessionState::Aborted) << "illegal frames poison";
          EXPECT_FALSE(d.abort_reason().empty());
          break;
        case Want::MigrationErr:
          EXPECT_THROW(d.on_frame(make_frame(cell.frame)), MigrationError);
          EXPECT_EQ(d.state(), SessionState::Aborted);
          break;
      }
    }
  }
}

TEST(DestSessionTable, ShutdownInHelloIsOrderlyNotAFailure) {
  DestSession d(next_session_id());
  d.announce();
  EXPECT_EQ(d.on_frame(make_frame(net::MsgType::Shutdown)), SessionState::Aborted);
  EXPECT_TRUE(d.orderly_shutdown());

  DestSession late(next_session_id());
  drive_dest(late, {SessionState::Streaming, false});
  EXPECT_THROW(late.on_frame(make_frame(net::MsgType::Shutdown)), ProtocolError);
  EXPECT_FALSE(late.orderly_shutdown());
}

TEST(DestSessionTable, LearnsTheTransactionFromStateBeginAndEnforcesIt) {
  DestSession d(next_session_id());
  d.announce();
  d.on_frame(make_frame(net::MsgType::StateBegin));
  EXPECT_EQ(d.txn_id(), kTxn);
  d.on_frame(make_frame(net::MsgType::StateEnd));
  net::Message prepare;
  prepare.type = net::MsgType::Prepare;
  prepare.payload = net::encode_txn(kTxn + 7);
  EXPECT_THROW(d.on_frame(prepare), MigrationError);
  EXPECT_EQ(d.state(), SessionState::Aborted);
}

TEST(DestSessionTable, CountsChunksAndRefinesStreamingWithStateEnd) {
  DestSession d(next_session_id());
  drive_dest(d, {SessionState::Streaming, false});
  d.on_frame(make_frame(net::MsgType::StateChunk));
  d.on_frame(make_frame(net::MsgType::StateChunk));
  EXPECT_EQ(d.chunks_seen(), 2u);
  d.on_frame(make_frame(net::MsgType::StateEnd));
  // After StateEnd the stream is sealed: more chunks are hostile.
  EXPECT_THROW(d.on_frame(make_frame(net::MsgType::StateChunk)), ProtocolError);
}

TEST(SessionMachines, PerSessionInstrumentsAreLabeledByIdAndRole) {
  const std::uint32_t id = next_session_id();
  SourceSession s(id, kTxn);
  s.on_frame(make_frame(net::MsgType::Hello));
  const std::string prefix = "mig.session." + std::to_string(id) + ".";
  obs::MetricsSnapshot snap = obs::Registry::process().snapshot();
  EXPECT_EQ(snap.counter(prefix + "source.frames"), 1u);
  EXPECT_EQ(snap.gauge(prefix + "source.state"),
            static_cast<std::int64_t>(SessionState::Hello));
  // The destination half of the same session id keeps separate books.
  EXPECT_EQ(snap.counter(prefix + "destination.frames"), 0u);
}

// --- the recovery ladder (next_rung, source_txn.hpp) -----------------------

const char* rung_name(RungKind kind) {
  switch (kind) {
    case RungKind::Stop: return "stop";
    case RungKind::Resume: return "resume";
    case RungKind::Standby: return "standby";
    case RungKind::Replay: return "replay";
    case RungKind::Fail: return "fail";
  }
  return "?";
}

struct LadderRow {
  const char* why;
  LadderState in;
  RungKind kind;
  std::uint32_t incarnation = 0;  ///< checked for Resume/Standby/Replay
  std::size_t standby = 0;        ///< checked for Standby
};

LadderState ladder(LegFailure failure, bool resumable, int used, int total,
                   std::size_t standbys, std::size_t next_standby, std::uint32_t inc) {
  return {.failure = failure,
          .resumable = resumable,
          .attempts_used = used,
          .total_attempts = total,
          .standbys = standbys,
          .next_standby = next_standby,
          .incarnation = inc};
}

TEST(LadderTable, EachRulePicksItsRung) {
  using F = LegFailure;
  using K = RungKind;
  const LadderRow rows[] = {
      // Stop: the leg's own result stands, whatever budget and standbys remain.
      {"committed", ladder(F::None, true, 1, 3, 2, 0, 1), K::Stop},
      {"source killed", ladder(F::Killed, true, 1, 3, 2, 0, 1), K::Stop},
      {"program threw", ladder(F::ProgramError, false, 1, 3, 2, 0, 1), K::Stop},
      {"foreign exception", ladder(F::Foreign, true, 1, 3, 2, 0, 1), K::Stop},
      // Resume: same candidate, same incarnation.
      {"transport death, resumable", ladder(F::TransportDeath, true, 1, 3, 0, 0, 1),
       K::Resume, 1},
      {"transport death on a standby leg", ladder(F::TransportDeath, true, 2, 3, 2, 1, 2),
       K::Resume, 2},
      {"transport death on a replay leg", ladder(F::TransportDeath, true, 2, 3, 0, 0, 2),
       K::Resume, 2},
      // The destination is declared dead: next standby, else replay, else fail.
      {"host gone, one standby", ladder(F::TransportDeath, false, 1, 3, 1, 0, 1),
       K::Standby, 2, 0},
      {"resume budget spent, one standby", ladder(F::TransportDeath, true, 3, 3, 1, 0, 1),
       K::Standby, 2, 0},
      {"first standby died too", ladder(F::TransportDeath, false, 2, 1, 2, 1, 2),
       K::Standby, 3, 1},
      {"host gone, no standby", ladder(F::TransportDeath, false, 1, 3, 0, 0, 1), K::Replay,
       2},
      {"budget spent, no standby", ladder(F::TransportDeath, true, 3, 3, 0, 0, 1), K::Fail},
      {"every standby used, budget left", ladder(F::TransportDeath, false, 2, 3, 1, 1, 2),
       K::Replay, 3},
      {"every standby used, budget spent", ladder(F::TransportDeath, false, 3, 3, 2, 2, 3),
       K::Fail},
      {"replay leg died, standbys are behind it",
       ladder(F::TransportDeath, false, 2, 3, 1, 0, 3), K::Replay, 4},
      // A veto never takes a standby; the replay outranks every standby.
      {"veto, no standby", ladder(F::Veto, false, 1, 3, 0, 0, 1), K::Replay, 2},
      {"veto, one standby", ladder(F::Veto, false, 1, 3, 1, 0, 1), K::Replay, 3},
      {"veto, two standbys", ladder(F::Veto, false, 1, 3, 2, 0, 1), K::Replay, 4},
      {"veto on a resumable host", ladder(F::Veto, true, 1, 3, 0, 0, 1), K::Replay, 2},
      {"veto, budget spent", ladder(F::Veto, false, 1, 1, 2, 0, 1), K::Fail},
      {"veto on a replay leg", ladder(F::Veto, false, 2, 3, 0, 0, 2), K::Replay, 3},
      // A supervisor cancel may re-target a standby, never the primary.
      {"cancel, one standby", ladder(F::Cancelled, false, 1, 3, 1, 0, 1), K::Standby, 2, 0},
      {"cancel, two standbys", ladder(F::Cancelled, false, 1, 3, 2, 0, 1), K::Standby, 2,
       0},
      {"cancel, no standby", ladder(F::Cancelled, false, 1, 3, 0, 0, 1), K::Fail},
      {"cancel on a resumable host", ladder(F::Cancelled, true, 1, 3, 0, 0, 1), K::Fail},
      {"cancel, standbys used up", ladder(F::Cancelled, false, 2, 3, 1, 1, 2), K::Fail},
      // The primary's Hello never came.
      {"no hello, one standby, no budget", ladder(F::NoRendezvous, false, 1, 1, 1, 0, 1),
       K::Standby, 2, 0},
      {"no hello, no standby", ladder(F::NoRendezvous, false, 1, 3, 0, 0, 1), K::Replay, 2},
      {"no hello, budget spent", ladder(F::NoRendezvous, false, 1, 1, 0, 0, 1), K::Fail},
      // A failed dial spent no attempt and moves to the next candidate.
      {"dial failed, another standby", ladder(F::DialFailed, false, 1, 1, 2, 1, 1),
       K::Standby, 3, 1},
      {"dial failed, last standby, budget left", ladder(F::DialFailed, false, 1, 3, 1, 1, 1),
       K::Replay, 3},
      {"dial failed, last standby, budget spent", ladder(F::DialFailed, false, 1, 1, 1, 1, 1),
       K::Fail},
  };
  for (const LadderRow& row : rows) {
    SCOPED_TRACE(row.why);
    const Rung got = next_rung(row.in);
    EXPECT_EQ(got.kind, row.kind) << rung_name(got.kind) << " vs " << rung_name(row.kind);
    if (row.kind == RungKind::Resume || row.kind == RungKind::Standby ||
        row.kind == RungKind::Replay) {
      EXPECT_EQ(got.incarnation, row.incarnation);
    }
    if (row.kind == RungKind::Standby) {
      EXPECT_EQ(got.standby, row.standby);
    }
  }
}

TEST(LadderTable, InvariantsHoldOverEveryInput) {
  const LegFailure failures[] = {
      LegFailure::None,      LegFailure::Killed,         LegFailure::ProgramError,
      LegFailure::Foreign,   LegFailure::Veto,           LegFailure::TransportDeath,
      LegFailure::Cancelled, LegFailure::NoRendezvous,   LegFailure::DialFailed};
  int checked = 0;
  for (const LegFailure f : failures) {
    for (const bool resumable : {false, true}) {
      for (const int used : {1, 2, 3}) {
        for (std::size_t standbys = 0; standbys <= 2; ++standbys) {
          for (std::size_t next = 0; next <= standbys; ++next) {
            for (std::uint32_t inc = 1; inc <= 5; ++inc) {
              const LadderState in = ladder(f, resumable, used, 3, standbys, next, inc);
              const Rung r = next_rung(in);
              SCOPED_TRACE(std::string(rung_name(r.kind)) + " for failure " +
                           std::to_string(static_cast<int>(f)) + ", resumable " +
                           std::to_string(resumable) + ", used " + std::to_string(used) +
                           ", standbys " + std::to_string(standbys) + ", next " +
                           std::to_string(next) + ", inc " + std::to_string(inc));
              ++checked;
              const bool ends_leg = f == LegFailure::None || f == LegFailure::Killed ||
                                    f == LegFailure::ProgramError ||
                                    f == LegFailure::Foreign;
              EXPECT_EQ(r.kind == RungKind::Stop, ends_leg);
              if (r.kind == RungKind::Resume) {
                EXPECT_EQ(f, LegFailure::TransportDeath);
                EXPECT_TRUE(resumable);
                EXPECT_LT(used, 3);
                EXPECT_EQ(r.incarnation, inc);
              }
              if (r.kind == RungKind::Standby) {
                EXPECT_NE(f, LegFailure::Veto) << "a veto never takes a standby rung";
                EXPECT_EQ(r.standby, next);
                EXPECT_LT(r.standby, standbys);
                EXPECT_EQ(r.incarnation, r.standby + 2) << "standby k is incarnation k+2";
                EXPECT_GT(r.incarnation, inc) << "fencing tokens only grow";
              }
              if (r.kind == RungKind::Replay) {
                EXPECT_NE(f, LegFailure::Cancelled)
                    << "a supervisor cancel never re-targets the primary";
                EXPECT_LT(used, 3);
                EXPECT_GT(r.incarnation, inc);
                EXPECT_GE(r.incarnation, standbys + 2) << "above every standby's";
              }
              if (r.kind == RungKind::Fail) {
                EXPECT_TRUE(used == 3 || f == LegFailure::Cancelled);
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 1000);
}

}  // namespace
}  // namespace hpm::mig
