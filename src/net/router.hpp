// Demultiplexes packets arriving at the two channel endpoints to the
// transport streams that own them.
//
// Both endpoints' inboxes carry mixed traffic (the video stream's DATA and
// the command stream's ACKs both arrive at the operator, for instance), so
// every protocol packet starts with a common header:
//   u16 stream_id | u8 type | u32 checksum (reserved, written as zero)
// The TCP checksum is modelled by the Packet::corrupted flag: netem sets it
// on exactly the packets whose bit it flips, and the router drops those as
// lost, which reproduces the paper's observation (§V.C) that corruption
// faults have no distinct user-visible effect under a reliable transport.
// A real checksum over the bytes would make the same decisions (any single
// flipped bit fails it) at a per-byte cost, so the header only keeps the
// four bytes, which keeps wire sizes, and netem's choice of which byte to
// flip, unchanged.
//
// Parsing is zero-copy: handlers receive a bounds-checked ByteReader view
// into the packet payload instead of an owning copy of the body, and the
// router hands the payload buffer back to the channel's pool after the
// handler returns.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "net/channel.hpp"
#include "net/serialization.hpp"
#include "util/time.hpp"

namespace rdsim::net {

enum class SegmentType : std::uint8_t { kData = 0, kAck = 1, kDatagram = 2 };

/// Common header helpers shared by the transports.
struct ProtocolHeader {
  std::uint16_t stream_id{0};
  SegmentType type{SegmentType::kData};

  static constexpr std::size_t kSize = 2 + 1 + 4;  // stream, type, checksum

  /// In-place framing for pooled buffers: begin() writes the header, the
  /// caller appends the body to the same writer, and finish() releases
  /// the buffer.
  static void begin(ByteWriter& w, std::uint16_t stream_id, SegmentType type);
  static Payload finish(ByteWriter& w);
};

/// A parsed packet viewed in place: `body` reads directly from the packet
/// payload and is valid only while that payload is alive.
struct PacketView {
  ProtocolHeader header;
  ByteReader body;
};

/// Parse without copying; nullopt on truncation or an unknown type.
std::optional<PacketView> open_packet_view(const Payload& packet_payload);

/// Polls a channel and routes intact packets to registered streams.
class PacketRouter {
 public:
  explicit PacketRouter(Channel& channel) : channel_{&channel} {}

  /// `body` views the packet payload and is only valid during the call;
  /// handlers copy out whatever must outlive it.
  using Handler = std::function<void(const ProtocolHeader&, ByteReader body,
                                     LinkDirection arrived_via, util::TimePoint now)>;

  /// Registering a stream id again replaces its handler.
  void register_stream(std::uint16_t stream_id, Handler handler);

  /// Steps the channel, then drains both inboxes. Corrupted packets (the
  /// modelled checksum failure) and malformed ones are counted and dropped.
  /// Payload buffers are recycled to the channel pool once handled.
  void poll(util::TimePoint now);

  std::uint64_t checksum_failures() const { return checksum_failures_; }
  std::uint64_t unroutable() const { return unroutable_; }
  Channel& channel() { return *channel_; }

 private:
  void drain(LinkDirection dir, util::TimePoint now);
  Handler* handler_for(std::uint16_t stream_id);

  Channel* channel_;
  /// (stream id, handler), scanned linearly: a session registers two.
  std::vector<std::pair<std::uint16_t, Handler>> handlers_;
  std::uint64_t checksum_failures_{0};
  std::uint64_t unroutable_{0};
};

}  // namespace rdsim::net
