// Reused frame-assembly buffers for the message layer.
//
// Every framed send used to allocate (and immediately free) a scratch
// buffer; with the pipelined transfer sending thousands of StateChunk
// frames per migration, that churn shows up in the tx span. The pool
// keeps a small free list of Bytes buffers whose capacity survives
// release, so steady-state chunk traffic allocates nothing.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "common/hexdump.hpp"

namespace hpm::net {

class BufferPool {
 public:
  /// A buffer resized to `size` (contents unspecified). Reuses a pooled
  /// buffer's capacity when one is available.
  Bytes acquire(std::size_t size);

  /// Return a buffer to the pool. Beyond the retention cap, or when its
  /// capacity exceeds kMaxPooledCapacity, the buffer is simply freed.
  void release(Bytes&& buf);

  /// The process-wide pool the message layer uses.
  static BufferPool& process();

  static constexpr std::size_t kMaxRetained = 16;

  /// Largest capacity the pool keeps: 16 default 64 KiB chunks. acquire()
  /// hands any free buffer to any frame, so a pooled multi-megabyte State
  /// buffer would otherwise stay resident carrying one-byte Acks.
  static constexpr std::size_t kMaxPooledCapacity = std::size_t{1} << 20;

 private:
  std::mutex mu_;
  std::vector<Bytes> free_;
};

}  // namespace hpm::net
