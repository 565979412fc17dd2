// HostSpace: the real memory of this process as a MemorySpace.
//
// Addresses are uintptr_t values of live objects; reads and writes go
// straight to memory using the native architecture descriptor (which
// mirrors the compiler's own layout, validated at registration time by
// ti::StructBuilder::commit).
//
// The space owns every allocation it makes (allocate, allocate_zeroed) in
// one flat address set until it is freed or released; the destructor
// frees whatever is still owned. The migratable heap of mig::MigContext
// allocates through it, so restored and locally allocated heap blocks
// share one ownership record.
#pragma once

#include <memory>

#include "msr/flat_table.hpp"
#include "msr/space.hpp"

namespace hpm::msr {

class HostSpace final : public MemorySpace {
 public:
  explicit HostSpace(const ti::TypeTable& types,
                     SearchStrategy strategy = SearchStrategy::FlatArray)
      : types_(&types),
        layouts_(types, xdr::native_arch()),
        leaves_(types),
        msrlt_(strategy) {}

  ~HostSpace() override;

  HostSpace(const HostSpace&) = delete;
  HostSpace& operator=(const HostSpace&) = delete;

  const xdr::ArchDescriptor& arch() const noexcept override { return xdr::native_arch(); }
  const ti::TypeTable& types() const noexcept override { return *types_; }
  const ti::LayoutMap& layouts() const noexcept override { return layouts_; }
  const ti::LeafIndex& leaves() const noexcept override { return leaves_; }
  Msrlt& msrlt() noexcept override { return msrlt_; }
  const Msrlt& msrlt() const noexcept override { return msrlt_; }

  xdr::PrimValue read_prim(Address addr, xdr::PrimKind k) const override;
  void write_prim(Address addr, xdr::PrimKind k, const xdr::PrimValue& v) override;
  Address read_pointer(Address addr) const override;
  void write_pointer(Address addr, Address value) override;

  /// Host memory is already contiguous raw storage in native layout.
  const std::uint8_t* raw_view(Address addr, std::uint64_t) const noexcept override {
    return reinterpret_cast<const std::uint8_t*>(addr);
  }
  std::uint8_t* raw_mut(Address addr, std::uint64_t) noexcept override {
    return reinterpret_cast<std::uint8_t*>(addr);
  }

  /// Uninitialized storage, owned by the space (restoration decodes
  /// every data leaf into it).
  Address allocate(std::uint64_t size) override;

  /// Zero-filled storage, owned by the space (the migratable heap).
  void* allocate_zeroed(std::uint64_t size);

  /// Whether `p` is storage this space allocated and still owns.
  [[nodiscard]] bool owns(const void* p) const noexcept {
    return owned_.contains(reinterpret_cast<std::uint64_t>(p));
  }

  /// Free owned storage. Throws hpm::MsrError if the space does not own it.
  void free_owned(void* p);

  /// Track an existing host object. Returns its new block id.
  template <typename T>
  BlockId track(Segment seg, T& obj, std::string name, ti::TypeId type,
                std::uint32_t count = 1) {
    return msrlt_.register_block(seg, reinterpret_cast<Address>(&obj),
                                 block_size(type, count), type, count, std::move(name));
  }

  /// Track raw storage (mig heap, arrays).
  BlockId track_raw(Segment seg, void* base, ti::TypeId type, std::uint32_t count,
                    std::string name) {
    return msrlt_.register_block(seg, reinterpret_cast<Address>(base),
                                 block_size(type, count), type, count, std::move(name));
  }

  /// Hand ownership of storage obtained via allocate() to the caller
  /// (e.g. the migratable heap adopting a restored block). The pointer
  /// must later be released with HostSpace::free_raw.
  void release_ownership(Address base);

  /// Free storage previously obtained from allocate() and released.
  static void free_raw(void* p) { ::operator delete(p, std::align_val_t{16}); }

  /// Number of allocations still owned by the space (leak checking).
  [[nodiscard]] std::size_t owned_allocations() const noexcept { return owned_.size(); }

 private:
  const ti::TypeTable* types_;
  ti::LayoutMap layouts_;
  ti::LeafIndex leaves_;
  Msrlt msrlt_;
  AddressSet owned_;
};

}  // namespace hpm::msr
