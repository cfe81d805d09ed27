// Unreliable datagram transport (UDP analogue).
//
// Used by the ablation benches: some remote-driving stacks ship video and
// commands over UDP/RTP where a lost packet means a lost frame rather than a
// head-of-line stall. One message = one packet; no retransmission, no
// ordering guarantee beyond what the link provides.
#pragma once

#include <deque>

#include "net/router.hpp"
#include "util/time.hpp"

namespace rdsim::net {

struct DatagramMessage {
  Payload bytes;
  std::uint32_t sequence{0};       ///< sender-assigned, for staleness checks
  util::TimePoint sent_at{};
  util::TimePoint delivered_at{};
};

class DatagramSocket final : private PacketEndpoint {
 public:
  DatagramSocket(PacketRouter& router, Channel& channel, std::uint16_t stream_id,
                 LinkDirection send_direction);

  /// Fire-and-forget. Returns the datagram sequence number.
  std::uint32_t send(Payload bytes, std::uint32_t declared_wire_size, util::TimePoint now);

  /// Pop the next received datagram (delivery order = arrival order, which
  /// may be reordered or have gaps).
  std::optional<DatagramMessage> receive();

  /// Drop everything older than the newest received sequence and return the
  /// newest message, if any arrived since the last call. This is the
  /// latest-wins mode used for command channels.
  std::optional<DatagramMessage> receive_latest();

  std::uint64_t sent_count() const { return sent_; }
  std::uint64_t received_count() const { return received_; }
  std::uint64_t stale_discarded() const { return stale_; }

 private:
  void on_packet(const ProtocolHeader& header, ByteReader body, LinkDirection via,
                 util::TimePoint now) override;

  Channel* channel_;
  std::uint16_t stream_id_;
  LinkDirection send_dir_;
  std::uint32_t next_seq_{0};
  std::uint32_t newest_seen_{0};
  bool any_seen_{false};
  std::deque<DatagramMessage> inbox_;
  std::uint64_t sent_{0};
  std::uint64_t received_{0};
  std::uint64_t stale_{0};
};

}  // namespace rdsim::net
