// The transactional handoff, attacked at every phase boundary.
//
// Three suites:
//  - TxnRecovery: the crash matrix. An injected process death (KilledError)
//    at each protocol state — dest before its Hello, mid-chunk-stream,
//    pre-Prepare, post-Commit, dest post-Prepared, dest post-Committed —
//    after which exactly one endpoint owns the workload and
//    Coordinator::recover() reaches the same verdict from the journals
//    alone.
//  - Resume: a mid-stream disconnect resumes from the acked chunk
//    watermark; the net.* byte counters prove only the tail was
//    retransmitted, and the restored state is identical to a clean run.
//  - Digest: a single-byte corruption of the canonical stream that passes
//    the frame CRC (CorruptMasked) is caught by the end-to-end digest
//    before the destination may vote; the veto is then replayed at the
//    primary as a journaled two-phase leg under incarnation 2.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "apps/bitonic.hpp"
#include "mig/coordinator.hpp"
#include "mig/journal.hpp"

namespace hpm::mig {
namespace {

constexpr std::uint64_t kTxn = 77;

/// Wire framing constants of the message layer: type(1)+len(4) header,
/// crc(4) trailer; StateBegin payload is chunk_bytes(4)+txn(8)+incarnation(4).
constexpr std::uint64_t kFrameOverhead = 9;
constexpr std::uint64_t kStateBeginWire = kFrameOverhead + 16;

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hpm_txn_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Transactional pipelined bitonic run with the crash-matrix shape:
  /// one chunk, no watermark acks, no serial fallback — so every source
  /// frame index names one protocol state (0 StateBegin, 1 StateChunk,
  /// 2 StateEnd, 3 Prepare, 4 Commit) and every destination frame index
  /// too (0 Hello, 1 PrepareAck, 2 final Ack).
  RunOptions matrix_options(apps::BitonicResult& result) {
    RunOptions options;
    options.register_types = apps::bitonic_register_types;
    options.program = [&result](MigContext& ctx) {
      apps::bitonic_program(ctx, 6, 9, &result);
    };
    options.migrate_at_poll = 50;
    options.pipeline = true;
    options.chunk_bytes = 1u << 20;  // the whole stream in one chunk
    options.ack_every_chunks = 0;    // no StateAck frames
    options.max_retries = 0;         // the matrix studies the crash, not retries
    options.journal_dir = dir_.string();
    options.txn_id = kTxn;
    return options;
  }

  RecoveryVerdict recover() const { return Coordinator::recover(dir_.string()); }

  std::filesystem::path dir_;
};

using TxnRecovery = TxnTest;

TEST_F(TxnRecovery, SourceCrashMidChunkStream) {
  apps::BitonicResult result;
  RunOptions options = matrix_options(result);
  options.fault_plan = net::FaultPlan::kill_after(1);  // dies sending the chunk

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::SourceCrashed);
  EXPECT_FALSE(report.migrated);
  EXPECT_FALSE(result.done) << "neither endpoint may have run the workload";
  EXPECT_EQ(report.txn_id, kTxn);

  const RecoveryVerdict v = recover();
  EXPECT_EQ(v.owner, TxnOwner::Source) << v.reason;
  EXPECT_EQ(v.txn_id, kTxn);
  EXPECT_FALSE(v.completed);
}

TEST_F(TxnRecovery, SourceCrashBeforePrepare) {
  apps::BitonicResult result;
  RunOptions options = matrix_options(result);
  options.fault_plan = net::FaultPlan::kill_after(3);  // dies sending Prepare

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::SourceCrashed);
  EXPECT_FALSE(report.migrated) << "the destination restored but may not commit";
  EXPECT_FALSE(result.done);

  const RecoveryVerdict v = recover();
  EXPECT_EQ(v.owner, TxnOwner::Source) << v.reason;
  EXPECT_FALSE(v.completed);
}

TEST_F(TxnRecovery, SourceCrashAfterCommitRecord) {
  // The Commit record is fsync'd before the Commit frame is sent; the
  // crash eats the frame. The in-doubt destination must find the record
  // in the source's journal and finish the workload.
  apps::BitonicResult result;
  RunOptions options = matrix_options(result);
  options.fault_plan = net::FaultPlan::kill_after(4);  // dies sending Commit

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::SourceCrashed);
  EXPECT_TRUE(report.migrated) << "the destination recovered the verdict and finished";
  EXPECT_TRUE(result.ok()) << "the workload ran exactly once, on the destination";
  EXPECT_GE(report.metrics.counter("mig.txn.indoubt_recoveries"), 1u);

  const RecoveryVerdict v = recover();
  EXPECT_EQ(v.owner, TxnOwner::Destination) << v.reason;
}

TEST_F(TxnRecovery, DestinationCrashAfterPrepared) {
  // The destination voted yes and died sending PrepareAck. The source
  // journals Abort and — no retry budget here — degrades to local
  // completion: it still owns the process.
  apps::BitonicResult result;
  RunOptions options = matrix_options(result);
  options.dest_fault_plan = net::FaultPlan::kill_after(1);

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::AbortedContinuedLocally);
  EXPECT_FALSE(report.migrated);
  EXPECT_TRUE(result.ok()) << "the source finished the workload locally";

  const RecoveryVerdict v = recover();
  EXPECT_EQ(v.owner, TxnOwner::Source) << v.reason;
}

TEST_F(TxnRecovery, DestinationCrashAfterCommitted) {
  // Commit went through, Committed is journaled, the workload tail ran —
  // then the confirmation Ack died with the destination. The source must
  // NOT fall back to local completion.
  apps::BitonicResult result;
  RunOptions options = matrix_options(result);
  options.dest_fault_plan = net::FaultPlan::kill_after(2);

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::CommittedUnconfirmed);
  EXPECT_TRUE(report.migrated);
  EXPECT_TRUE(result.ok()) << "the workload ran exactly once, on the destination";

  const RecoveryVerdict v = recover();
  EXPECT_EQ(v.owner, TxnOwner::Destination) << v.reason;
  EXPECT_FALSE(v.completed) << "Done was never confirmed to the source";
}

TEST_F(TxnRecovery, CleanRunClosesTheTransaction) {
  apps::BitonicResult result;
  RunOptions options = matrix_options(result);

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(report.txn_id, kTxn);
  EXPECT_GE(report.metrics.counter("mig.txn.begins"), 1u);
  EXPECT_GE(report.metrics.counter("mig.txn.prepares"), 1u);
  EXPECT_GE(report.metrics.counter("mig.txn.commits"), 2u) << "both sides commit";
  EXPECT_EQ(report.metrics.counter("mig.txn.aborts"), 0u);

  const RecoveryVerdict v = recover();
  EXPECT_EQ(v.owner, TxnOwner::Destination);
  EXPECT_TRUE(v.completed) << "Done recorded: nothing to recover";
}

TEST_F(TxnRecovery, PrimaryDeadBeforeHelloReplaysAtThePrimary) {
  // The primary dies sending its Hello and no standby is configured. The
  // program must still run to its trigger (collecting sink-less), and the
  // retry budget buys a replay on a fresh primary host under incarnation 2.
  apps::BitonicResult result;
  RunOptions options = matrix_options(result);
  options.max_retries = 1;
  options.io_timeout_seconds = 1.0;
  options.dest_fault_plan = net::FaultPlan::kill_after(0);

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.dest_incarnation, 2u);
  EXPECT_TRUE(result.ok()) << "the workload ran exactly once, on the replayed primary";

  const RecoveryVerdict v = recover();
  EXPECT_EQ(v.owner, TxnOwner::Destination) << v.reason;
  EXPECT_EQ(v.incarnation, 2u) << v.reason;
  EXPECT_TRUE(v.completed) << v.reason;
}

TEST_F(TxnRecovery, PrimaryDeadBeforeHelloWithoutBudgetCompletesLocally) {
  // Same death, no retry budget: the source still runs the program to its
  // trigger and then finishes it locally — the workload is never lost.
  apps::BitonicResult result;
  RunOptions options = matrix_options(result);
  options.io_timeout_seconds = 1.0;
  options.dest_fault_plan = net::FaultPlan::kill_after(0);

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::AbortedContinuedLocally);
  EXPECT_FALSE(report.migrated);
  EXPECT_TRUE(result.ok()) << "the source finished the workload locally";

  const RecoveryVerdict v = recover();
  EXPECT_EQ(v.owner, TxnOwner::Source) << v.reason;
}

// --- resumable transfer ----------------------------------------------------

/// Small-chunk pipelined run used by the resume and digest suites.
RunOptions streaming_options(apps::BitonicResult& result) {
  RunOptions options;
  options.register_types = apps::bitonic_register_types;
  options.program = [&result](MigContext& ctx) {
    apps::bitonic_program(ctx, 6, 9, &result);
  };
  options.migrate_at_poll = 50;
  options.pipeline = true;
  options.chunk_bytes = 512;
  options.ack_every_chunks = 1;  // densest watermark
  return options;
}

constexpr std::uint64_t kChunkWire = 512 + 13;  // frame overhead + seq

TEST(Resume, MidStreamDisconnectResumesFromTheWatermark) {
  // Clean run: baseline for wire bytes and the workload fingerprint.
  apps::BitonicResult clean_result;
  RunOptions clean = streaming_options(clean_result);
  const MigrationReport c = run_migration(clean);
  ASSERT_EQ(c.outcome, MigrationOutcome::Migrated);
  ASSERT_TRUE(clean_result.ok());
  const std::uint64_t stream = c.stream_bytes;
  const std::uint64_t chunks = (stream + 511) / 512;
  ASSERT_GT(chunks, 4u) << "the stream must span enough chunks to resume inside";
  const std::uint64_t clean_wire = c.metrics.counter("net.frames.bytes_sent");

  // Faulty run: the link dies mid-stream, around chunk `chunks/2`.
  apps::BitonicResult result;
  RunOptions options = streaming_options(result);
  options.fault_plan.kind = net::FaultKind::Disconnect;
  options.fault_plan.offset = kStateBeginWire + (chunks / 2) * kChunkWire + 100;

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(report.attempts, 2) << "one failure, one resume";
  ASSERT_EQ(report.failure_causes.size(), 1u);
  EXPECT_NE(report.failure_causes[0].find("attempt 1"), std::string::npos);
  EXPECT_GT(report.resumed_from_seq, 0) << "the resume must start past chunk 0";
  EXPECT_LT(report.resumed_from_seq, static_cast<std::int64_t>(chunks));
  EXPECT_GE(report.metrics.counter("mig.resume.attempts"), 1u);
  EXPECT_GE(report.metrics.counter("mig.resume.chunks_skipped"),
            static_cast<std::uint64_t>(report.resumed_from_seq));

  // Restored state identical to the clean run's.
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.sum_after, clean_result.sum_after);
  EXPECT_EQ(report.stream_bytes, stream);

  // The wire carried the stream ONCE plus only the resumed tail — not a
  // full retransmit. Acks, ResumeHello, and the second commit exchange
  // are small against 0.75x the stream.
  const std::uint64_t faulty_wire = report.metrics.counter("net.frames.bytes_sent");
  EXPECT_LT(faulty_wire, clean_wire + (stream * 3) / 4)
      << "a resume must not retransmit the acked prefix";
}

TEST(Resume, WatermarkSurvivesTwoDisconnects) {
  // Two mid-stream failures, two resumes: the watermark only moves
  // forward, so the third attempt still only carries the remaining tail.
  apps::BitonicResult probe_result;
  RunOptions probe = streaming_options(probe_result);
  const MigrationReport p = run_migration(probe);
  ASSERT_EQ(p.outcome, MigrationOutcome::Migrated);
  const std::uint64_t chunks = (p.stream_bytes + 511) / 512;
  ASSERT_GT(chunks, 6u);

  apps::BitonicResult result;
  RunOptions options = streaming_options(result);
  options.max_retries = 3;
  options.fault_plan.kind = net::FaultKind::Disconnect;
  options.fault_plan.offset = kStateBeginWire + (chunks / 3) * kChunkWire + 50;
  options.fault_plan.max_firings = 2;  // attempt 2's resume dies too

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(report.attempts, 3);
  EXPECT_EQ(report.failure_causes.size(), 2u);
  EXPECT_GT(report.resumed_from_seq, 0);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.sum_after, probe_result.sum_after);
  EXPECT_GE(report.metrics.counter("mig.resume.attempts"), 2u);
}

// --- end-to-end digest ------------------------------------------------------

TEST(Digest, MaskedCorruptionIsCaughtBeforeCommit) {
  // Probe run: learn the stream geometry so the corruption can be aimed
  // at the last bytes of the canonical stream — content the incremental
  // decoder never interprets, so ONLY the end-to-end digest can object.
  apps::BitonicResult probe_result;
  RunOptions probe = streaming_options(probe_result);
  const MigrationReport p = run_migration(probe);
  ASSERT_EQ(p.outcome, MigrationOutcome::Migrated);
  const std::uint64_t stream = p.stream_bytes;
  const std::uint64_t chunks = (stream + 511) / 512;
  const std::uint64_t last_len = stream - (chunks - 1) * 512;
  ASSERT_GT(last_len, 4u);

  apps::BitonicResult result;
  RunOptions options = streaming_options(result);
  options.fault_plan.kind = net::FaultKind::CorruptMasked;
  // Second-to-last byte of the stream, inside the last chunk's payload:
  // wire offset = StateBegin + full chunks + header(5) + seq(4) + index.
  options.fault_plan.offset =
      kStateBeginWire + (chunks - 1) * kChunkWire + 9 + (last_len - 2);

  const MigrationReport report = run_migration(options);
  // Attempt 1: every frame CRC passes, the destination assembles the full
  // stream, restores — and the digest comparison vetoes the handoff
  // before the destination may vote. Attempt 2 degrades to the serial
  // path per the PR-1 failure model and succeeds cleanly.
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(report.attempts, 2);
  ASSERT_EQ(report.failure_causes.size(), 1u);
  EXPECT_NE(report.failure_causes[0].find("digest"), std::string::npos)
      << "caught by: " << report.failure_causes[0];
  EXPECT_EQ(report.metrics.counter("net.frames.crc_failures"), 0u)
      << "masked corruption must NOT be a frame-CRC catch";
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.sum_after, probe_result.sum_after);
}

TEST(Digest, VetoReplaysAsAJournaledTwoPhaseLeg) {
  // The masked corruption of MaskedCorruptionIsCaughtBeforeCommit, now
  // with journals: the digest veto aborts incarnation 1, and the replay at
  // the primary is a full Prepare/Commit leg under incarnation 2 with its
  // own destination journal — so arbitration names it, and no record
  // claims incarnation 1 committed.
  apps::BitonicResult probe_result;
  RunOptions probe = streaming_options(probe_result);
  const MigrationReport p = run_migration(probe);
  ASSERT_EQ(p.outcome, MigrationOutcome::Migrated);
  const std::uint64_t stream = p.stream_bytes;
  const std::uint64_t chunks = (stream + 511) / 512;
  const std::uint64_t last_len = stream - (chunks - 1) * 512;
  ASSERT_GT(last_len, 4u);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("hpm_digest_replay_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  apps::BitonicResult result;
  RunOptions options = streaming_options(result);
  options.journal_dir = dir.string();
  options.txn_id = kTxn;
  options.fault_plan.kind = net::FaultKind::CorruptMasked;
  options.fault_plan.offset =
      kStateBeginWire + (chunks - 1) * kChunkWire + 9 + (last_len - 2);

  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.dest_incarnation, 2u);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.sum_after, probe_result.sum_after);

  using R = JournalRecordType;
  auto records = [&](const std::string& name) {
    std::vector<std::pair<R, std::uint32_t>> out;
    for (const JournalRecord& r : Journal::replay((dir / name).string())) {
      EXPECT_EQ(r.txn_id, kTxn);
      out.emplace_back(r.type, r.incarnation);
    }
    return out;
  };
  const std::vector<std::pair<R, std::uint32_t>> want_source = {
      {R::Begin, 1}, {R::Abort, 1}, {R::Begin, 2}, {R::Commit, 2}, {R::Done, 2}};
  EXPECT_EQ(records(kSourceJournalName), want_source);
  const std::vector<std::pair<R, std::uint32_t>> want_replay = {
      {R::Begin, 2}, {R::Prepared, 2}, {R::Committed, 2}};
  EXPECT_EQ(records(dest_journal_name(2)), want_replay);
  for (const auto& [type, inc] : records(kDestJournalName)) {
    EXPECT_TRUE(type != R::Prepared && type != R::Committed)
        << "the vetoing primary must never have voted or committed";
  }

  const RecoveryVerdict v = Coordinator::recover(dir.string());
  EXPECT_EQ(v.owner, TxnOwner::Destination) << v.reason;
  EXPECT_EQ(v.incarnation, 2u) << v.reason;
  EXPECT_EQ(v.committed_destinations, 1u) << v.reason;
  EXPECT_TRUE(v.completed) << v.reason;
  std::filesystem::remove_all(dir);
}

TEST(Digest, CleanStreamsCarryTheDigestEndToEnd) {
  apps::BitonicResult result;
  RunOptions options = streaming_options(result);
  options.journal_dir = (std::filesystem::temp_directory_path() /
                         ("hpm_digest_clean_" + std::to_string(::getpid())))
                            .string();
  const MigrationReport report = run_migration(options);
  EXPECT_EQ(report.outcome, MigrationOutcome::Migrated);
  EXPECT_TRUE(result.ok());
  // The journals carry the digest the two ends agreed on.
  std::uint64_t src_digest = 0, dst_digest = 0;
  for (const JournalRecord& r :
       Journal::replay(options.journal_dir + "/" + kSourceJournalName)) {
    if (r.type == JournalRecordType::Commit) src_digest = r.digest;
  }
  for (const JournalRecord& r :
       Journal::replay(options.journal_dir + "/" + kDestJournalName)) {
    if (r.type == JournalRecordType::Committed) dst_digest = r.digest;
  }
  EXPECT_NE(src_digest, 0u);
  EXPECT_EQ(src_digest, dst_digest);
  std::filesystem::remove_all(options.journal_dir);
}

}  // namespace
}  // namespace hpm::mig
