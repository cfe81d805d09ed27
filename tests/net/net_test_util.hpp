// Test-only conveniences over the net layer's primary, allocation-free APIs:
// frame a packet from a finished body, drain a qdisc into a vector (through
// VectorSink), send an owned payload on a channel, and record what the
// router dispatches (RecordingEndpoint). The library keeps one path for
// each: ProtocolHeader::begin/finish framing in place, Qdisc::dequeue_ready
// into a PacketSink, Channel::send(dir, Packet&&, now), and the transports'
// own PacketEndpoint implementations.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/channel.hpp"
#include "net/qdisc.hpp"
#include "net/router.hpp"
#include "net/serialization.hpp"
#include "util/time.hpp"

namespace rdsim::net {

/// PacketSink that appends to a vector.
class VectorSink final : public PacketSink {
 public:
  explicit VectorSink(std::vector<Packet>& out) : out_{&out} {}
  void accept(Packet&& packet) override { out_->push_back(std::move(packet)); }

 private:
  std::vector<Packet>* out_;
};

/// PacketEndpoint that keeps a copy of every packet routed to it.
class RecordingEndpoint final : public PacketEndpoint {
 public:
  struct Received {
    ProtocolHeader header;
    Payload body;
    LinkDirection via;
  };

  void on_packet(const ProtocolHeader& header, ByteReader body, LinkDirection via,
                 util::TimePoint /*now*/) override {
    Payload bytes(body.remaining());
    for (auto& b : bytes) b = body.u8();
    received.push_back({header, std::move(bytes), via});
  }

  std::vector<Received> received;
};

/// Header + body as one packet payload, byte-identical to framing in place.
inline Payload seal(std::uint16_t stream_id, SegmentType type, const Payload& body) {
  // Reserving the whole packet up front also keeps GCC's -O3 -Warray-bounds
  // from misreading the growth path of the body append.
  Payload buf;
  buf.reserve(ProtocolHeader::kSize + body.size());
  ByteWriter w{std::move(buf)};
  ProtocolHeader::begin(w, stream_id, type);
  w.raw(body.data(), body.size());
  return ProtocolHeader::finish(w);
}

/// Every packet `q` releases at `now`, in release order.
inline std::vector<Packet> drain(Qdisc& q, util::TimePoint now) {
  std::vector<Packet> out;
  VectorSink sink{out};
  q.dequeue_ready(now, sink);
  return out;
}

/// Wrap `payload` in a fresh Packet and send it; returns the packet id.
inline std::uint64_t send(Channel& ch, LinkDirection dir, Payload payload,
                          std::uint32_t wire_size, util::TimePoint now) {
  Packet p;
  p.payload = std::move(payload);
  p.wire_size = wire_size;
  return ch.send(dir, std::move(p), now);
}

}  // namespace rdsim::net
