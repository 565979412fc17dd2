// MigContext: the per-process migration runtime.
//
// A migratable program is written against this context using the macros
// in annotate.hpp (the artifacts the paper's pre-compiler would insert):
// every migratable function opens a frame, registers its live locals,
// wraps its body in a resume switch, and polls at chosen points. At a
// poll-point where a migration request is pending the context collects
// the execution state and all live data (innermost frame first, exactly
// the paper's order), seals the stream, and unwinds the program with
// MigrationExit. On the destination, begin_restore() parses the stream,
// the same program re-executes its prologues as a skeleton down to the
// migration point, and finish-restoration decodes every block in place
// before normal execution resumes.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>

#include "common/error.hpp"
#include "mig/frame.hpp"
#include "msr/host_space.hpp"
#include "msrm/collect.hpp"
#include "msrm/restore.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "ti/describe.hpp"

namespace hpm::mig {

class ChunkAssembler;

/// Thrown by a poll-point after collection succeeds; unwinds the source
/// program so the process can "terminate" (paper §2). Deliberately not
/// derived from hpm::Error: it is control flow, not a failure.
struct MigrationExit {
  std::uint32_t migration_point = 0;
};

enum class Mode : std::uint8_t { Normal, Restoring };

/// Timing and volume measurements of one migration (Table 1 columns).
/// The two phase timings are span-derived: collect_seconds is the
/// `mig.collect` span, restore_seconds the `mig.restore` span
/// (begin_restore through the migration poll-point).
struct MigrationMetrics {
  double collect_seconds = 0;
  double restore_seconds = 0;
  std::uint64_t stream_bytes = 0;
  /// Tracked blocks at the migration point; blocks NOT reachable from any
  /// live variable (tracked_blocks - blocks saved) stay behind — the
  /// pre-compiler's live-variable analysis made manifest.
  std::uint64_t tracked_blocks = 0;
  /// Registry deltas across the two phases, so every `msrm.collect.*` /
  /// `msrm.restore.*` instrument of this migration is one lookup away
  /// (e.g. collect.counter("msrm.collect.blocks_saved")). Instruments are
  /// process-wide: a phase overlapping other registry activity (the
  /// pipelined transfer) sees that activity under its other names too.
  obs::MetricsSnapshot collect;
  obs::MetricsSnapshot restore;

  [[nodiscard]] std::uint64_t dead_blocks() const {
    return tracked_blocks - collect.counter("msrm.collect.blocks_saved");
  }
};

class MigContext {
 public:
  explicit MigContext(ti::TypeTable& types,
                      msr::SearchStrategy strategy = msr::SearchStrategy::FlatArray)
      : types_(&types), space_(types, strategy) {}

  ~MigContext();

  MigContext(const MigContext&) = delete;
  MigContext& operator=(const MigContext&) = delete;

  /// --- program-construction API -----------------------------------------

  /// Per-context "global variable" storage (zero-initialized), registered
  /// in the Global segment. Must be created before the first frame is
  /// entered, in the same order on source and destination.
  template <typename T>
  T& global(const char* name) {
    return *static_cast<T*>(make_global(name, ti::native_type_id<T>(*types_), 1));
  }
  template <typename T>
  T* global_array(const char* name, std::uint32_t count) {
    return static_cast<T*>(make_global(name, ti::native_type_id<T>(*types_), count));
  }

  /// Migratable heap (the paper's instrumented malloc): allocates zeroed
  /// storage, registers the block. Every allocation is one MSR heap node.
  template <typename T>
  T* heap_alloc(std::uint32_t count = 1, const char* name = "") {
    return static_cast<T*>(heap_alloc_raw(ti::native_type_id<T>(*types_), count, name));
  }

  /// Free a heap_alloc'd (or restored) block: unregisters and releases.
  void heap_free(void* p);

  /// --- annotation hooks (called via the HPM_* macros) --------------------
  void enter_frame(Frame& frame);
  void leave_frame(Frame& frame);

  template <typename T>
  void local(Frame& frame, const char* name, T& var) {
    add_local(frame, name, &var, ti::native_type_id<T>(*types_), 1);
  }
  template <typename T>
  void local_array(Frame& frame, const char* name, T* base, std::uint32_t count) {
    add_local(frame, name, base, ti::native_type_id<T>(*types_), count);
  }

  /// Resume label for a frame: 0 in normal execution (enter at the top),
  /// the saved label while restoring.
  std::uint32_t resume_point(const Frame& frame) const noexcept {
    return frame.restore_from != nullptr ? frame.restore_from->resume_point : 0;
  }

  /// Record passing a call-site label (so the frame resumes there if a
  /// migration happens deeper in the call).
  void at_callsite(Frame& frame, std::uint32_t label) noexcept {
    frame.current_point = label;
  }

  /// Poll-point: the paper's inserted macro. In normal mode, checks for a
  /// pending migration request and, if one is due, collects and throws
  /// MigrationExit. In restore mode, this must be the migration point:
  /// completes data restoration and switches to normal mode.
  void poll(Frame& frame, std::uint32_t label);

  /// --- migration control --------------------------------------------------
  /// Asynchronous request (what the paper's scheduler sends).
  void request_migration() noexcept { requested_.store(true, std::memory_order_relaxed); }

  /// Deterministic trigger: migrate at the Nth executed poll (1-based).
  void set_migrate_at_poll(std::uint64_t n) noexcept { migrate_at_poll_ = n; }

  /// Benchmark hook: unwind with MigrationExit as soon as restoration
  /// completes (metrics are already recorded), instead of running the
  /// program tail. Lets a harness time Restore without paying for the
  /// remaining computation.
  void set_stop_after_restore(bool stop) noexcept { stop_after_restore_ = stop; }

  /// Observer invoked at every poll-point (normal mode, before the
  /// migration-request check). Used by periodic checkpointers; the
  /// observer may inspect the context but must not migrate or unwind.
  void set_poll_observer(std::function<void(MigContext&)> observer) {
    poll_observer_ = std::move(observer);
  }

  /// Snapshot of the current execution state (frames outermost-first,
  /// then globals) — exactly what a migration stream would carry.
  [[nodiscard]] ExecutionState snapshot_execution_state() const;

  [[nodiscard]] std::uint64_t poll_count() const noexcept { return poll_count_; }

  /// Stream produced by the last collection (valid after MigrationExit).
  [[nodiscard]] const Bytes& stream() const noexcept { return stream_; }

  /// Move the collected stream out instead of copying it (the source
  /// context is discarded once the state has left). Read stream_digest()
  /// first if it is needed: afterwards it can only return a digest that
  /// was already computed, and throws MigrationError otherwise.
  [[nodiscard]] Bytes take_stream() noexcept;

  /// End-to-end digest (msrm::StreamDigest) of the last collected stream;
  /// 0 before any collection. Under a collect sink it is accumulated
  /// chunk-by-chunk as collection streams out, and is carried in StateEnd
  /// and re-verified on the destination before it may vote in the commit
  /// phase. Without a sink (the serial path, which never sends it) it is
  /// computed over stream() on the first call and memoized.
  [[nodiscard]] std::uint64_t stream_digest();

  /// Pipelined collection: stream the encoded state through `sink` in
  /// `chunk_bytes` slices while the collection DFS is still walking the
  /// graph. Install before the program starts. The full stream is still
  /// retained (stream()) so a failed leg can be re-sent from it.
  void set_collect_sink(std::size_t chunk_bytes, xdr::Encoder::SinkFn sink);

  /// Worker threads for the collection DFS (msrm::collect_roots). 1 =
  /// serial (default); >1 partitions the root set and merges per-root
  /// streams in rank order, bit-identical to serial.
  void set_collect_threads(unsigned n) noexcept { collect_threads_ = n == 0 ? 1 : n; }
  [[nodiscard]] unsigned collect_threads() const noexcept { return collect_threads_; }

  /// --- restoration --------------------------------------------------------
  /// Parse and validate a migration stream; the caller then re-runs the
  /// program entry, which restores and continues to completion.
  void begin_restore(Bytes stream);

  /// Streaming variant: decode the stream incrementally as chunks land in
  /// `assembler` (which must outlive restoration). Blocks whenever the
  /// decoder outruns the network. End-to-end checks (digest, trailer CRC,
  /// byte totals) run once the stream completes, at the migration
  /// poll-point.
  void begin_restore_streaming(ChunkAssembler& assembler);

  /// Transactional handoff hook, streaming restores only: invoked at the
  /// migration poll-point AFTER every restoration check (including the
  /// end-to-end digest comparison) passed, with the digest this side
  /// computed. The coordinator's gate runs the Prepare/Commit exchange
  /// there; a throw unwinds the program before the restored process ever
  /// executes its tail — the destination must not run what it does not
  /// yet own.
  void set_commit_gate(std::function<void(std::uint64_t digest)> gate) {
    commit_gate_ = std::move(gate);
  }

  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] bool restoring() const noexcept { return mode_ == Mode::Restoring; }

  /// --- introspection -------------------------------------------------------
  msr::HostSpace& space() noexcept { return space_; }
  ti::TypeTable& types() noexcept { return *types_; }
  [[nodiscard]] const MigrationMetrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] std::size_t frame_depth() const noexcept { return frames_.size(); }
  /// Heap blocks currently owned: allocated by heap_alloc or restored,
  /// and not yet freed. Reads the space's ownership set (stack and global
  /// blocks are never allocated through it).
  [[nodiscard]] std::size_t live_heap_blocks() const noexcept {
    return space_.owned_allocations();
  }

 private:
  void* make_global(const char* name, ti::TypeId type, std::uint32_t count);
  void* heap_alloc_raw(ti::TypeId type, std::uint32_t count, const char* name);
  void add_local(Frame& frame, const char* name, void* addr, ti::TypeId type,
                 std::uint32_t count);
  void do_migration(std::uint32_t label);
  void restore_from_decoder();
  void finish_restore(Frame& frame, std::uint32_t label);
  void bind_saved(const SavedVar& saved, const LocalVar& dest);

  ti::TypeTable* types_;
  msr::HostSpace space_;

  std::vector<Frame*> frames_;
  std::vector<LocalVar> globals_;

  std::atomic<bool> requested_{false};
  std::uint64_t migrate_at_poll_ = 0;
  bool stop_after_restore_ = false;
  std::function<void(MigContext&)> poll_observer_;
  std::uint64_t poll_count_ = 0;

  Mode mode_ = Mode::Normal;
  Bytes stream_;
  unsigned collect_threads_ = 1;
  std::size_t collect_chunk_ = 0;
  xdr::Encoder::SinkFn collect_sink_;
  std::optional<std::uint64_t> collect_digest_;  ///< memoized stream_digest()
  bool stream_taken_ = false;
  std::function<void(std::uint64_t)> commit_gate_;

  // Restore-side state.
  ChunkAssembler* assembler_ = nullptr;  ///< non-null while restoring a chunked stream
  obs::MetricsSnapshot restore_before_;
  Bytes restore_stream_;
  std::optional<xdr::Decoder> dec_;
  std::unique_ptr<msrm::Restorer> restorer_;
  ExecutionState exec_;
  std::uint64_t header_signature_ = 0;
  std::size_t restore_depth_ = 0;     ///< frames entered while restoring
  std::size_t globals_bound_ = 0;
  /// `mig.restore` span: opened by begin_restore, closed when the
  /// skeleton re-execution reaches the migration poll-point. Must open
  /// and close on the same (destination) thread.
  std::unique_ptr<obs::Span> restore_span_;

  MigrationMetrics metrics_;
};

}  // namespace hpm::mig
