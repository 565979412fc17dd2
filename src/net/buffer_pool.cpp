#include "net/buffer_pool.hpp"

#include "obs/metrics.hpp"

namespace hpm::net {

namespace {

/// `net.pool.*` instruments: reuse ratio = reuses / acquires.
struct PoolMetrics {
  obs::Counter& acquires = obs::Registry::process().counter("net.pool.acquires");
  obs::Counter& reuses = obs::Registry::process().counter("net.pool.reuses");
  obs::Counter& releases = obs::Registry::process().counter("net.pool.releases");

  static PoolMetrics& get() {
    static PoolMetrics m;
    return m;
  }
};

}  // namespace

Bytes BufferPool::acquire(std::size_t size) {
  PoolMetrics& m = PoolMetrics::get();
  m.acquires.add(1);
  Bytes buf;
  {
    std::lock_guard lk(mu_);
    if (!free_.empty()) {
      buf = std::move(free_.back());
      free_.pop_back();
      m.reuses.add(1);
    }
  }
  buf.resize(size);
  return buf;
}

void BufferPool::release(Bytes&& buf) {
  PoolMetrics::get().releases.add(1);
  if (buf.capacity() > kMaxPooledCapacity) {
    const Bytes oversized = std::move(buf);  // freed on return, outside the lock
    return;
  }
  std::lock_guard lk(mu_);
  if (free_.size() < kMaxRetained) free_.push_back(std::move(buf));
}

BufferPool& BufferPool::process() {
  static BufferPool pool;
  return pool;
}

}  // namespace hpm::net
