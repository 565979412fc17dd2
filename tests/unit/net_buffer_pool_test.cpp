// BufferPool: capacity reuse and thread-safety.
//
// The reuse test reads the pool's own `net.pool.*` counters (registry
// deltas) rather than poking internals; the hammer test exists for the
// TSan preset — a dozen threads acquiring and releasing through one pool
// must be race-free by locking, not by luck.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "net/buffer_pool.hpp"
#include "obs/metrics.hpp"

namespace hpm::net {
namespace {

std::uint64_t counter_delta(const obs::MetricsSnapshot& before, const char* name) {
  return obs::Registry::process().snapshot().delta_since(before).counter(name);
}

TEST(BufferPool, ReleasedCapacityIsReused) {
  BufferPool pool;
  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();

  Bytes buf = pool.acquire(4096);
  const std::uint8_t* data = buf.data();
  buf[0] = 0xAB;
  pool.release(std::move(buf));

  // Same or smaller size: the pooled buffer's capacity must satisfy it
  // without a fresh allocation.
  Bytes again = pool.acquire(1024);
  EXPECT_EQ(again.data(), data) << "steady-state acquire must reuse the freed buffer";
  EXPECT_EQ(counter_delta(before, "net.pool.reuses"), 1u);
  EXPECT_EQ(counter_delta(before, "net.pool.acquires"), 2u);
  EXPECT_EQ(counter_delta(before, "net.pool.releases"), 1u);
}

TEST(BufferPool, AcquireResizesToRequest) {
  BufferPool pool;
  pool.release(Bytes(64, 0xFF));
  Bytes buf = pool.acquire(128);
  EXPECT_EQ(buf.size(), 128u);
  pool.release(std::move(buf));
  EXPECT_EQ(pool.acquire(16).size(), 16u);
}

TEST(BufferPool, RetentionIsCapped) {
  BufferPool pool;
  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
  // Overfill the free list, then drain: only kMaxRetained can be reuses.
  for (std::size_t i = 0; i < BufferPool::kMaxRetained + 8; ++i) {
    pool.release(Bytes(32, 0));
  }
  for (std::size_t i = 0; i < BufferPool::kMaxRetained + 8; ++i) {
    (void)pool.acquire(32);
  }
  EXPECT_EQ(counter_delta(before, "net.pool.reuses"), BufferPool::kMaxRetained);
}

TEST(BufferPool, OversizedBufferIsFreedNotPooled) {
  BufferPool pool;
  const obs::MetricsSnapshot before = obs::Registry::process().snapshot();
  Bytes state = pool.acquire(8u << 20);  // an 8 MB State frame
  pool.release(std::move(state));

  const Bytes ack = pool.acquire(1);
  EXPECT_EQ(ack.size(), 1u);
  EXPECT_LE(ack.capacity(), BufferPool::kMaxPooledCapacity)
      << "a one-byte frame must not inherit the 8 MB buffer";
  EXPECT_EQ(counter_delta(before, "net.pool.reuses"), 0u);
}

TEST(BufferPool, ConcurrentAcquireReleaseIsRaceFree) {
  // Exercised under -fsanitize=thread by the tsan preset: every transition
  // of a buffer between threads goes through the pool's lock.
  BufferPool pool;
  constexpr int kThreads = 12;
  constexpr int kIterations = 400;
  std::atomic<std::uint64_t> touched{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool, &touched, t] {
      for (int i = 0; i < kIterations; ++i) {
        Bytes buf = pool.acquire(static_cast<std::size_t>(64 + (i % 7) * 128));
        buf[0] = static_cast<std::uint8_t>(t);
        buf[buf.size() - 1] = static_cast<std::uint8_t>(i);
        touched.fetch_add(buf[0] + buf[buf.size() - 1], std::memory_order_relaxed);
        pool.release(std::move(buf));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_GT(touched.load(), 0u);
}

TEST(BufferPool, ProcessPoolIsASingleton) {
  EXPECT_EQ(&BufferPool::process(), &BufferPool::process());
}

}  // namespace
}  // namespace hpm::net
