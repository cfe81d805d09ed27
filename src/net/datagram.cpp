#include "net/datagram.hpp"

#include <algorithm>

#include "net/serialization.hpp"
#include "util/time.hpp"

namespace rdsim::net {

DatagramSocket::DatagramSocket(PacketRouter& router, Channel& channel,
                               std::uint16_t stream_id, LinkDirection send_direction)
    : channel_{&channel}, stream_id_{stream_id}, send_dir_{send_direction} {
  router.register_stream(stream_id_, *this);
}

std::uint32_t DatagramSocket::send(Payload bytes, std::uint32_t declared_wire_size,
                                   util::TimePoint now) {
  const std::uint32_t seq = next_seq_++;
  // One datagram = one packet, framed directly in a pooled buffer.
  ByteWriter w{channel_->acquire_payload(ProtocolHeader::kSize + 4 + 8 + 4 +
                                         bytes.size())};
  ProtocolHeader::begin(w, stream_id_, SegmentType::kDatagram);
  w.u32(seq);
  w.u64(static_cast<std::uint64_t>(now.count_micros()));
  w.bytes(bytes);
  Packet p;
  p.payload = ProtocolHeader::finish(w);
  p.wire_size = std::max<std::uint32_t>(
      declared_wire_size, static_cast<std::uint32_t>(bytes.size()) + 28);
  channel_->send(send_dir_, std::move(p), now);
  ++sent_;
  return seq;
}

void DatagramSocket::on_packet(const ProtocolHeader& header, ByteReader r,
                               LinkDirection via, util::TimePoint now) {
  if (header.type != SegmentType::kDatagram || via != send_dir_) return;
  DatagramMessage msg;
  msg.sequence = r.u32();
  msg.sent_at = util::TimePoint::from_micros(static_cast<std::int64_t>(r.u64()));
  msg.bytes = r.bytes();
  msg.delivered_at = now;
  if (!r.ok()) return;
  ++received_;
  inbox_.push_back(std::move(msg));
}

std::optional<DatagramMessage> DatagramSocket::receive() {
  if (inbox_.empty()) return std::nullopt;
  DatagramMessage msg = std::move(inbox_.front());
  inbox_.pop_front();
  return msg;
}

std::optional<DatagramMessage> DatagramSocket::receive_latest() {
  std::optional<DatagramMessage> newest;
  while (!inbox_.empty()) {
    DatagramMessage msg = std::move(inbox_.front());
    inbox_.pop_front();
    if (!any_seen_ || msg.sequence >= newest_seen_) {
      newest_seen_ = msg.sequence;
      any_seen_ = true;
      if (newest) ++stale_;
      newest = std::move(msg);
    } else {
      ++stale_;
    }
  }
  return newest;
}

}  // namespace rdsim::net
