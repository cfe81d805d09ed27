#include "net/router.hpp"

#include "check/contracts.hpp"
#include "util/time.hpp"

namespace rdsim::net {

void ProtocolHeader::begin(ByteWriter& w, std::uint16_t stream_id, SegmentType type) {
  RDSIM_REQUIRE(w.size() == 0, "ProtocolHeader::begin expects an empty writer");
  w.u16(stream_id);
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(0);  // checksum: reserved, see the header comment
}

Payload ProtocolHeader::finish(ByteWriter& w) {
  RDSIM_REQUIRE(w.size() >= kSize, "ProtocolHeader::finish before begin");
  return w.take();
}

Payload ProtocolHeader::seal(std::uint16_t stream_id, SegmentType type,
                             const Payload& body) {
  // Reserving the whole packet up front also keeps GCC's -O3 -Warray-bounds
  // from misreading the growth path of the body append.
  Payload buf;
  buf.reserve(kSize + body.size());
  ByteWriter w{std::move(buf)};
  begin(w, stream_id, type);
  w.raw(body.data(), body.size());
  return finish(w);
}

std::optional<PacketView> open_packet_view(const Payload& packet_payload) {
  if (packet_payload.size() < ProtocolHeader::kSize) return std::nullopt;
  ByteReader r{packet_payload};
  PacketView view;
  view.header.stream_id = r.u16();
  const std::uint8_t type = r.u8();
  if (type > static_cast<std::uint8_t>(SegmentType::kDatagram)) return std::nullopt;
  view.header.type = static_cast<SegmentType>(type);
  view.body = ByteReader{packet_payload.data() + ProtocolHeader::kSize,
                         packet_payload.size() - ProtocolHeader::kSize};
  return view;
}

std::optional<ParsedPacket> open_packet(const Payload& packet_payload) {
  const auto view = open_packet_view(packet_payload);
  if (!view) return std::nullopt;
  ParsedPacket parsed;
  parsed.header = view->header;
  parsed.body.assign(packet_payload.begin() + ProtocolHeader::kSize,
                     packet_payload.end());
  return parsed;
}

PacketRouter::Handler* PacketRouter::handler_for(std::uint16_t stream_id) {
  for (auto& [id, handler] : handlers_) {
    if (id == stream_id) return &handler;
  }
  return nullptr;
}

void PacketRouter::register_stream(std::uint16_t stream_id, Handler handler) {
  if (Handler* existing = handler_for(stream_id)) {
    *existing = std::move(handler);
  } else {
    handlers_.emplace_back(stream_id, std::move(handler));
  }
}

void PacketRouter::poll(util::TimePoint now) {
  channel_->step(now);
  drain(LinkDirection::kDownlink, now);
  drain(LinkDirection::kUplink, now);
}

void PacketRouter::drain(LinkDirection dir, util::TimePoint now) {
  while (auto packet = channel_->receive(dir)) {
    const auto view =
        packet->corrupted ? std::nullopt : open_packet_view(packet->payload);
    if (!view) {
      ++checksum_failures_;
    } else if (Handler* handler = handler_for(view->header.stream_id)) {
      (*handler)(view->header, view->body, dir, now);
    } else {
      ++unroutable_;
    }
    // The view above reads from packet->payload; recycle only after handling.
    channel_->recycle(std::move(packet->payload));
  }
}

}  // namespace rdsim::net
