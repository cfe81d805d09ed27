#include "core/transport.hpp"

#include "net/datagram.hpp"
#include "util/time.hpp"

namespace rdsim::core {

namespace {

class StreamTransport final : public MessageTransport {
 public:
  StreamTransport(net::PacketRouter& router, net::Channel& channel,
                  std::uint16_t stream_id, net::LinkDirection send_direction,
                  const net::StreamConfig& config)
      : stream_{router, channel, stream_id, send_direction, config} {}

  void send(net::Payload bytes, std::uint32_t wire_size, util::TimePoint now) override {
    stream_.send_message(std::move(bytes), wire_size, now);
  }
  std::size_t send_backlog() const override { return stream_.send_backlog(); }
  void step(util::TimePoint now) override { stream_.step(now); }
  std::optional<net::Payload> pop() override {
    if (auto msg = stream_.pop_delivered()) return std::move(msg->bytes);
    return std::nullopt;
  }
  const net::StreamStats* stats() const override { return &stream_.stats(); }

 private:
  net::ReliableStream stream_;
};

class DatagramTransport final : public MessageTransport {
 public:
  DatagramTransport(net::PacketRouter& router, net::Channel& channel,
                    std::uint16_t stream_id, net::LinkDirection send_direction)
      : socket_{router, channel, stream_id, send_direction} {}

  void send(net::Payload bytes, std::uint32_t wire_size, util::TimePoint now) override {
    socket_.send(std::move(bytes), wire_size, now);
  }
  std::size_t send_backlog() const override { return 0; }
  void step(util::TimePoint) override {}
  std::optional<net::Payload> pop() override {
    if (auto msg = socket_.receive_latest()) return std::move(msg->bytes);
    return std::nullopt;
  }
  const net::StreamStats* stats() const override { return nullptr; }

 private:
  net::DatagramSocket socket_;
};

}  // namespace

std::unique_ptr<MessageTransport> make_transport(bool datagram, net::PacketRouter& router,
                                                 net::Channel& channel,
                                                 std::uint16_t stream_id,
                                                 net::LinkDirection send_direction,
                                                 const net::StreamConfig& config) {
  if (datagram) {
    return std::make_unique<DatagramTransport>(router, channel, stream_id,
                                               send_direction);
  }
  return std::make_unique<StreamTransport>(router, channel, stream_id, send_direction,
                                           config);
}

}  // namespace rdsim::core
