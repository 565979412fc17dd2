#include "mig/serial_transfer.hpp"

#include <exception>
#include <thread>

#include "mig/endpoint_util.hpp"
#include "obs/span.hpp"

namespace hpm::mig {

namespace {

void expect_hello(const net::Message& hello) {
  if (hello.type != net::MsgType::Hello) {
    throw MigrationError("source expected a Hello message");
  }
  if (hello.payload.empty() || hello.payload[0] != net::kProtocolVersion) {
    throw MigrationError("protocol version mismatch: destination speaks v" +
                         std::to_string(hello.payload.empty() ? 0 : hello.payload[0]) +
                         ", source speaks v" + std::to_string(net::kProtocolVersion));
  }
}

}  // namespace

bool attempt_transfer(const RunOptions& options, const Bytes& stream,
                      MigrationReport& report,
                      const std::shared_ptr<net::FaultState>& fault_state,
                      const std::shared_ptr<net::FaultState>& dest_fault_state,
                      std::chrono::milliseconds timeout, std::string& cause) {
  const bool duplex = options.transport != Transport::File;
  // A fresh attempt gets a fresh spool; a half-written one from a failed
  // attempt must not satisfy this attempt's reader.
  if (options.transport == Transport::File) remove_spool(options.spool_path);

  net::ChannelPair channels = net::make_channel_pair(
      options.transport, {.spool_path = options.spool_path, .timeout = timeout});
  if (options.fault_plan.enabled()) {
    channels.source = std::make_unique<net::FaultyChannel>(std::move(channels.source),
                                                           options.fault_plan, fault_state);
    if (timeout.count() > 0) channels.source->set_timeout(timeout);
  }
  if (options.throttle) {
    channels.source = std::make_unique<net::ThrottledChannel>(std::move(channels.source),
                                                              options.link);
    if (timeout.count() > 0) channels.source->set_timeout(timeout);
  }
  if (options.dest_fault_plan.enabled()) {
    channels.destination = std::make_unique<net::FaultyChannel>(
        std::move(channels.destination), options.dest_fault_plan, dest_fault_state);
    if (timeout.count() > 0) channels.destination->set_timeout(timeout);
  }

  // --- destination host: invoked first, announces itself, waits (paper §2).
  std::exception_ptr dest_error;
  std::thread destination([&] {
    try {
      ti::TypeTable types;
      options.register_types(types);
      MigContext ctx(types);
      if (duplex) {
        net::send_message(*channels.destination, net::MsgType::Hello,
                          hello_payload(ctx.space().arch().name));
      }
      ctx.set_stop_after_restore(options.stop_after_restore);
      net::Message msg = net::recv_message(*channels.destination);
      if (msg.type != net::MsgType::State) {
        throw MigrationError("destination expected a State message");
      }
      ctx.begin_restore(std::move(msg.payload));
      run_destination_program(options, ctx, report);
      if (duplex) net::send_message(*channels.destination, net::MsgType::Ack, {});
    } catch (const KilledError&) {
      // A crashed process sends no Nack and runs no teardown protocol;
      // the source observes only the dead channel.
      dest_error = std::current_exception();
      try {
        channels.destination->abort();
      } catch (...) {
      }
    } catch (const NetError& e) {
      // Frame never arrived intact (CRC mismatch, truncation, timeout,
      // disconnect): nack it so the source retransmits instead of trusting
      // a damaged stream.
      dest_error = std::current_exception();
      if (duplex) {
        try {
          const std::string text = e.what();
          net::send_message(*channels.destination, net::MsgType::Nack,
                            Bytes(text.begin(), text.end()));
        } catch (...) {
          // Source will observe the broken channel instead.
        }
      }
    } catch (...) {
      dest_error = std::current_exception();
      if (duplex) {
        try {
          const std::string text = exception_text(dest_error);
          net::send_message(*channels.destination, net::MsgType::Error,
                            Bytes(text.begin(), text.end()));
        } catch (...) {
        }
      }
    }
  });

  // --- source host: validate the peer, replay the buffered stream.
  std::exception_ptr source_error;
  double measured_tx = 0;
  try {
    if (duplex) expect_hello(net::recv_message(*channels.source));
    {
      obs::Span tx_span("mig.tx");
      tx_span.arg("stream_bytes", std::uint64_t{stream.size()});
      tx_span.arg("transport", std::string(net::transport_name(options.transport)));
      net::send_message(*channels.source, net::MsgType::State, stream);
      measured_tx = tx_span.finish();
    }
    if (duplex) {
      const net::Message verdict = net::recv_message(*channels.source);
      const std::string text(verdict.payload.begin(), verdict.payload.end());
      switch (verdict.type) {
        case net::MsgType::Ack:
          break;
        case net::MsgType::Nack:
          throw MigrationError("destination rejected the State frame (Nack): " + text);
        case net::MsgType::Error:
          throw MigrationError("destination restore failed: " + text);
        default:
          throw MigrationError("unexpected verdict message from destination");
      }
    } else {
      channels.source->close();  // drop the .done marker for the reader
    }
  } catch (...) {
    source_error = std::current_exception();
    // Unblock a destination still waiting in recv so the join below cannot
    // deadlock. Tearing down the source end wakes a duplex peer (broken
    // pipe / TCP FIN); the file reader instead sees the .done marker from
    // an orderly close, or falls back on its own recv deadline when the
    // writer can no longer signal (injected disconnect). Only the source
    // end is touched: the destination channel stays owned by its thread.
    try {
      if (duplex) {
        channels.source->abort();
      } else {
        channels.source->close();
      }
    } catch (...) {
    }
  }

  destination.join();
  try {
    channels.source->close();
  } catch (...) {
  }
  try {
    channels.destination->close();
  } catch (...) {
  }

  if (source_error == nullptr && dest_error == nullptr) {
    report.tx_seconds = options.throttle
                            ? measured_tx
                            : options.link.transfer_seconds(stream.size());
    return true;
  }

  // The source's failure is primary: a destination error observed after a
  // source-side failure is usually just the torn-down channel.
  if (source_error != nullptr) {
    try {
      std::rethrow_exception(source_error);
    } catch (const Error& e) {
      cause = e.what();
      return false;
    }
    // Non-hpm exceptions escaped the protocol itself — not retryable.
  }
  cause = exception_text(dest_error);
  return false;
}

}  // namespace hpm::mig
