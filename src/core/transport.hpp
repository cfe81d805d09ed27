// MessageTransport: the one transport interface of the teleop loop.
//
// TeleopSession moves whole messages, video frames downlink and commands
// uplink. Either direction runs over a TCP-like net::ReliableStream (the
// paper's setup) or a UDP-like net::DatagramSocket (the transport
// ablation). make_transport() picks the adapter once, at session
// construction; the loop then makes the same calls on either.
#pragma once

#include <memory>
#include <optional>

#include "net/reliable_stream.hpp"
#include "util/time.hpp"

namespace rdsim::core {

class MessageTransport {
 public:
  MessageTransport() = default;
  virtual ~MessageTransport() = default;
  // The router keeps the address of the adapter's inner stream or socket,
  // so an adapter must not move once built.
  MessageTransport(const MessageTransport&) = delete;
  MessageTransport& operator=(const MessageTransport&) = delete;
  MessageTransport(MessageTransport&&) = delete;
  MessageTransport& operator=(MessageTransport&&) = delete;

  /// Queue one message; the link accounts for `wire_size` bytes.
  virtual void send(net::Payload bytes, std::uint32_t wire_size, util::TimePoint now) = 0;

  /// Segments queued but not yet transmitted. Always 0 for a datagram
  /// transport, which puts every message on the link at once.
  virtual std::size_t send_backlog() const = 0;

  /// Drive the transport's timers: transmit window and retransmission.
  /// A no-op for a datagram transport.
  virtual void step(util::TimePoint now) = 0;

  /// The next message for the application. A reliable stream hands out
  /// every completed message in order; a datagram transport hands out only
  /// the newest arrival since the last call (latest-wins).
  virtual std::optional<net::Payload> pop() = 0;

  /// Reliable-stream telemetry, or nullptr for a datagram transport.
  virtual const net::StreamStats* stats() const = 0;
};

std::unique_ptr<MessageTransport> make_transport(bool datagram, net::PacketRouter& router,
                                                 net::Channel& channel,
                                                 std::uint16_t stream_id,
                                                 net::LinkDirection send_direction,
                                                 const net::StreamConfig& config);

}  // namespace rdsim::core
