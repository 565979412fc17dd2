#include "net/socket_channel.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace hpm::net {

namespace {

using Clock = std::chrono::steady_clock;

/// `net.socket.*` transport counters, shared by every SocketChannel.
struct SocketMetrics {
  obs::Counter& bytes_sent = obs::Registry::process().counter("net.socket.bytes_sent");
  obs::Counter& bytes_recv = obs::Registry::process().counter("net.socket.bytes_recv");
  obs::Counter& timeouts = obs::Registry::process().counter("net.socket.timeouts");

  static SocketMetrics& get() {
    static SocketMetrics m;
    return m;
  }
};

[[noreturn]] void fail(const std::string& op) {
  throw NetError(op + ": " + std::strerror(errno));
}

/// Wait until the fd is ready for `events` or the deadline passes.
/// `bounded == false` means wait without bound.
void wait_ready(int fd, short events, bool bounded, Clock::time_point deadline,
                const char* op) {
  for (;;) {
    int wait_ms = -1;
    if (bounded) {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
      if (left.count() <= 0) {
        throw TimeoutError(std::string(op) + " timed out on socket");
      }
      wait_ms = static_cast<int>(left.count()) + 1;
    }
    pollfd pfd{fd, events, 0};
    const int n = ::poll(&pfd, 1, wait_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("poll");
    }
    if (n > 0) return;  // ready (or error/hup — the following I/O call reports it)
    // n == 0: poll timed out; loop re-checks the deadline and throws.
  }
}

/// Frames are written with one send() each and the protocol waits for
/// small replies (Hello, Ack, PrepareAck), so Nagle's algorithm would hold
/// a small frame until the peer's delayed ACK (~40 ms on Linux loopback).
/// Takes ownership of `fd` first, so a failure closes it.
std::unique_ptr<SocketChannel> make_nodelay_channel(int fd) {
  auto channel = std::make_unique<SocketChannel>(fd);
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) < 0) {
    fail("setsockopt(TCP_NODELAY)");
  }
  return channel;
}

}  // namespace

SocketChannel::~SocketChannel() {
  if (fd_ >= 0) ::close(fd_);
}

void SocketChannel::send(std::span<const std::uint8_t> data) {
  if (fd_ < 0 || closed_.load(std::memory_order_acquire)) {
    throw NetError("send on closed SocketChannel");
  }
  const bool bounded = timeout_.count() > 0;
  const auto deadline = Clock::now() + timeout_;
  std::size_t sent = 0;
  try {
    while (sent < data.size()) {
      wait_ready(fd_, POLLOUT, bounded, deadline, "send");
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
        fail("send");
      }
      sent += static_cast<std::size_t>(n);
    }
  } catch (const TimeoutError&) {
    SocketMetrics::get().timeouts.add(1);
    if (sent > 0) SocketMetrics::get().bytes_sent.add(sent);
    throw;
  }
  SocketMetrics::get().bytes_sent.add(sent);
}

void SocketChannel::recv(std::span<std::uint8_t> out) {
  if (fd_ < 0 || closed_.load(std::memory_order_acquire)) {
    throw NetError("recv on closed SocketChannel");
  }
  const bool bounded = timeout_.count() > 0;
  const auto deadline = Clock::now() + timeout_;
  std::size_t got = 0;
  try {
    while (got < out.size()) {
      wait_ready(fd_, POLLIN, bounded, deadline, "recv");
      const ssize_t n = ::recv(fd_, out.data() + got, out.size() - got, MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
        fail("recv");
      }
      if (n == 0) {
        throw NetError("peer closed connection with " + std::to_string(out.size() - got) +
                       " bytes outstanding");
      }
      got += static_cast<std::size_t>(n);
    }
  } catch (const TimeoutError&) {
    SocketMetrics::get().timeouts.add(1);
    if (got > 0) SocketMetrics::get().bytes_recv.add(got);
    throw;
  }
  SocketMetrics::get().bytes_recv.add(got);
}

void SocketChannel::close() {
  // shutdown() only: it wakes a peer thread blocked in poll() on this fd
  // (the cross-thread abort contract), while the fd itself stays valid
  // until the destructor — closing it here would race that thread's I/O
  // and could hand the fd number to an unrelated open().
  if (!closed_.exchange(true, std::memory_order_acq_rel) && fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

SocketListener::SocketListener() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) fail("socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) fail("bind");
  if (::listen(fd_, 1) < 0) fail("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) fail("getsockname");
  port_ = ntohs(addr.sin_port);
}

SocketListener::~SocketListener() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<SocketChannel> SocketListener::accept() {
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) fail("accept");
  return make_nodelay_channel(client);
}

std::unique_ptr<SocketChannel> connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("connect");
  }
  return make_nodelay_channel(fd);
}

}  // namespace hpm::net
