#include "msr/host_space.hpp"

#include <algorithm>
#include <cstring>
#include <new>

namespace hpm::msr {

HostSpace::~HostSpace() {
  owned_.for_each([](std::uint64_t p, NoValue) { free_raw(reinterpret_cast<void*>(p)); });
}

xdr::PrimValue HostSpace::read_prim(Address addr, xdr::PrimKind k) const {
  return xdr::read_raw(reinterpret_cast<const std::uint8_t*>(addr), arch(), k);
}

void HostSpace::write_prim(Address addr, xdr::PrimKind k, const xdr::PrimValue& v) {
  xdr::write_raw(reinterpret_cast<std::uint8_t*>(addr), arch(), k, v);
}

Address HostSpace::read_pointer(Address addr) const {
  // Host pointers are stored as real machine pointers; read them as such.
  void* value = nullptr;
  std::memcpy(&value, reinterpret_cast<const void*>(addr), sizeof(void*));
  return reinterpret_cast<Address>(value);
}

void HostSpace::write_pointer(Address addr, Address value) {
  void* p = reinterpret_cast<void*>(value);
  std::memcpy(reinterpret_cast<void*>(addr), &p, sizeof(void*));
}

Address HostSpace::allocate(std::uint64_t size) {
  // No zero-fill: allocate() only feeds restoration, which decodes every
  // data leaf of the block; padding bytes stay unspecified, as in any
  // locally constructed C object.
  void* p = ::operator new(size, std::align_val_t{16});
  owned_.insert(reinterpret_cast<std::uint64_t>(p));
  return reinterpret_cast<Address>(p);
}

void* HostSpace::allocate_zeroed(std::uint64_t size) {
  void* p = reinterpret_cast<void*>(allocate(size));
  std::memset(p, 0, size);
  return p;
}

void HostSpace::free_owned(void* p) {
  if (!owned_.erase(reinterpret_cast<std::uint64_t>(p))) {
    throw MsrError("free_owned: storage not owned by space");
  }
  free_raw(p);
}

void HostSpace::release_ownership(Address base) {
  if (!owned_.erase(base)) throw MsrError("release_ownership: storage not owned by space");
}

}  // namespace hpm::msr
