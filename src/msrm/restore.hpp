// Data restoration: Restore_variable / Restore_pointer.
//
// A Restorer rebuilds memory blocks in a destination MemorySpace from the
// PtrVal grammar. Because every migrated block carries its logical id,
// restoration never searches the MSRLT by address — it binds the source
// id to the destination block record in O(1) and decodes contents in
// place. PNEW and PREF targets are computed from that record directly, so
// the only per-block MSRLT work is the one registration (the paper's
// MSRLT-update term, versus the O(n log n) search term on the collection
// side).
//
// Binding rules:
//  * Stack and Global blocks exist on the destination a priori (the
//    re-executed program prologues and startup registration create them);
//    they must be bound with bind() before their contents arrive, unless
//    auto-bind mode is enabled (used by tests and image round trips).
//  * Heap blocks are created on demand when their PNEW header is read —
//    before the body is decoded, so back/cross references always resolve.
#pragma once

#include <unordered_map>
#include <vector>

#include "msr/flat_table.hpp"
#include "msr/resolve.hpp"
#include "msr/space.hpp"
#include "msrm/leaf_cache.hpp"
#include "msrm/stream.hpp"
#include "obs/metrics.hpp"
#include "xdr/wire.hpp"

namespace hpm::msrm {

class Restorer {
 public:
  /// Restore a stream whose source shares this space's architecture.
  Restorer(msr::MemorySpace& space, xdr::Decoder& dec);

  /// Restore a stream collected under `source_arch` (the stream header
  /// names it). Raw (BODY_RAW) bodies are memcpy'd when the source's
  /// data model matches this space's, and converted leaf-by-leaf under
  /// the source-arch layout otherwise — so heterogeneous callers MUST
  /// pass the real source architecture.
  Restorer(msr::MemorySpace& space, xdr::Decoder& dec,
           const xdr::ArchDescriptor& source_arch);

  /// Pre-bind a source block id to existing destination storage (a
  /// re-registered stack local or global). Validates element type and
  /// count against the destination block.
  void bind(msr::BlockId source_id, msr::BlockId dest_id, ti::TypeId type,
            std::uint32_t count);

  /// Flushes the instrument tallies an exception left behind.
  ~Restorer() { flush_instruments(); }

  Restorer(const Restorer&) = delete;
  Restorer& operator=(const Restorer&) = delete;

  /// Auto-bind mode: PNEW for an unbound Stack/Global block allocates
  /// fresh storage (registered under the original segment) instead of
  /// failing. Default off.
  void set_auto_bind(bool enabled) noexcept { auto_bind_ = enabled; }

  /// Decode one variable record (must be PNEW or PREF of the variable's
  /// own block, at leaf 0). Returns the destination block id. (Paper:
  /// `Restore_variable(&var)`.)
  msr::BlockId restore_variable();

  /// Decode one PtrVal and return the destination address it denotes
  /// (0 for null). (Paper: `p = Restore_pointer()`.)
  msr::Address restore_pointer();

 private:
  struct Pending {
    const msr::MemoryBlock* block;  // destination block
    const std::vector<ti::LeafRef>* leaf_list;
    std::uint64_t elem_size;
    std::uint32_t elem_idx;
    std::uint64_t leaf_idx;
  };

  /// Decode a PtrVal; may push a Pending; returns the destination address.
  msr::Address decode_ptr_value();

  void decode_flat(const msr::MemoryBlock& block);
  void decode_flat_type(msr::Address base, ti::TypeId type);
  void drain();

  /// Flat leaf list of `type` under the *source* architecture's layout.
  const std::vector<ti::LeafRef>& src_leaves_of(ti::TypeId type);

  /// One step of the staged heterogeneous conversion. count > 0 is a
  /// *run*: `count` leaves contiguous in both layouts, executed as one
  /// memcpy (swap == false, `bytes` long, widths may mix) or one
  /// fixed-`width` byteswap sweep. count == 0 falls back to the scalar
  /// read_raw/write_prim round trip for leaf `first` (width-changing
  /// leaves, Bool normalization, overflow detection).
  struct StagedOp {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    std::uint8_t width = 0;
    bool swap = false;
    std::uint64_t src_off = 0;
    std::uint64_t dst_off = 0;
    std::uint64_t bytes = 0;
  };
  /// Per-element conversion recipe for one TypeId (both layouts fixed for
  /// the stream's lifetime, so built once and replayed per element).
  struct StagedPlan {
    std::vector<StagedOp> ops;
    std::uint64_t run_bytes = 0;     ///< bytes moved by runs, per element
    std::uint32_t run_ops = 0;       ///< run ops per element
    std::uint32_t scalar_ops = 0;    ///< scalar ops per element
  };
  const StagedPlan& staged_plan_of(ti::TypeId type);

  const msr::MemoryBlock& materialize_pnew(msr::BlockId src_id, std::uint8_t segment,
                                           ti::TypeId type, std::uint32_t count);

  /// Push the local tallies into the process registry and zero them
  /// (end of each restore_* call, and the destructor). Same scheme as
  /// CollectorBase: no histogram mutex or shared atomic per block.
  void flush_instruments() noexcept;

  msr::MemorySpace& space_;
  xdr::Decoder& dec_;
  LeafCache leaves_;
  /// Source block id -> destination block record.
  msr::IdTable<const msr::MemoryBlock*> binding_;
  std::vector<Pending> stack_;
  bool auto_bind_ = false;

  // Source architecture (for BODY_RAW bodies): layouts under the source
  // arch, a flat-leaf cache per type, and a staging buffer for the
  // heterogeneous conversion path.
  const xdr::ArchDescriptor* src_arch_;
  ti::LayoutMap src_layouts_;
  bool same_model_;
  std::unordered_map<ti::TypeId, std::vector<ti::LeafRef>> src_leaf_cache_;
  std::unordered_map<ti::TypeId, StagedPlan> staged_plans_;
  std::vector<std::uint8_t> raw_buf_;

  // `msrm.restore.*` instruments (process-wide registry) and the
  // traversal-depth histogram.
  obs::Counter& blocks_created_;
  obs::Counter& blocks_bound_;
  obs::Counter& refs_resolved_;
  obs::Counter& nulls_restored_;
  obs::Counter& prim_leaves_;
  obs::Counter& ptr_leaves_;
  obs::Counter& bulk_bodies_;   ///< BODY_RAW bodies memcpy'd
  obs::Counter& bulk_bytes_;    ///< bytes those bodies carried
  obs::Counter& staged_runs_;          ///< batched run ops executed
  obs::Counter& staged_run_bytes_;     ///< bytes those runs converted
  obs::Counter& staged_scalar_leaves_; ///< leaves that stayed scalar
  obs::Histogram& depth_hist_;  ///< `msrm.restore.depth`

  std::uint64_t tally_created_ = 0;
  std::uint64_t tally_bound_ = 0;
  std::uint64_t tally_refs_ = 0;
  std::uint64_t tally_nulls_ = 0;
  std::uint64_t tally_prim_ = 0;
  std::uint64_t tally_ptr_ = 0;
  std::uint64_t tally_bulk_bodies_ = 0;
  std::uint64_t tally_bulk_bytes_ = 0;
  std::uint64_t tally_staged_runs_ = 0;
  std::uint64_t tally_staged_run_bytes_ = 0;
  std::uint64_t tally_staged_scalar_ = 0;
  std::vector<double> tally_depths_;
};

}  // namespace hpm::msrm
