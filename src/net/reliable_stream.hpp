// Reliable, ordered message stream — the testbed's TCP analogue.
//
// CARLA's client/server protocol runs over TCP (§II.B of the paper), so the
// user-visible symptom of packet loss is not a missing video frame but a
// *stall*: the lost segment is retransmitted after an RTO (Linux clamps the
// TCP RTO to a 200 ms minimum) or after three duplicate ACKs, and every
// later frame is head-of-line blocked behind it. This class reproduces those
// semantics on the virtual clock:
//
//   - messages are segmented into MTU-sized wire segments with a global
//     sequence number,
//   - the receiver cumulatively ACKs the next expected sequence (with
//     SACK-style hints for fast retransmit),
//   - the sender maintains an RFC 6298 RTT estimate, retransmits on RTO
//     with exponential backoff, and fast-retransmits on 3 dup-ACKs,
//   - delivery is strictly in order: a complete message is handed to the
//     application only after all earlier messages.
//
// Congestion control is deliberately omitted: the paper's transport runs on
// loopback where the congestion window never binds; netem disturbances, not
// queue buildup, are the object of study. ACKs travel the reverse direction
// of the same channel and suffer the same injected faults.
#pragma once

#include <deque>
#include <map>
#include <span>

#include "net/router.hpp"
#include "obs/metrics.hpp"
#include "util/drain_queue.hpp"
#include "util/units.hpp"

namespace rdsim::net {

struct StreamConfig {
  std::uint32_t mtu{65000};           ///< max payload bytes per segment
                                      ///< (loopback-sized, as in the paper)
  std::uint32_t header_overhead{40};  ///< modelled TCP/IP header bytes
  util::Duration rto_initial{util::Duration::millis(200)};
  util::Duration rto_min{util::Duration::millis(200)};   ///< Linux TCP_RTO_MIN
  util::Duration rto_max{util::Duration::millis(2000)};
  /// Max unacked segments in flight. 128 segments x 64 KB ~= 8 MB, matching
  /// Linux's default TCP send-buffer autotuning ceiling. With megabyte video
  /// frames this window is what throttles the feed when injected delay
  /// stretches the RTT: at 100 ms RTT the stream can move ~80 MB/s — below
  /// the raw video rate — so frame latency grows and the sender starts
  /// dropping frames, reproducing the paper's observation that >100 ms
  /// delays made driving very hard and >200 ms stopped the feed entirely.
  std::uint32_t window_segments{128};
  bool fast_retransmit{true};
  util::Duration ack_delay{};          ///< 0 = ack immediately
};

/// A message handed up to the application by the receiver side.
struct DeliveredMessage {
  Payload bytes;
  std::uint32_t message_id{0};
  util::TimePoint sent_at{};       ///< when the sender queued the message
  util::TimePoint delivered_at{};  ///< when in-order delivery completed
  util::Duration latency() const { return delivered_at - sent_at; }
};

struct StreamStats {
  std::uint64_t messages_sent{0};
  std::uint64_t messages_delivered{0};
  std::uint64_t segments_sent{0};      ///< first transmissions
  std::uint64_t retransmits_rto{0};
  std::uint64_t retransmits_fast{0};
  std::uint64_t acks_sent{0};
  std::uint64_t dup_acks_seen{0};
  std::uint64_t stale_segments{0};     ///< duplicates discarded by receiver
  units::Millis srtt{};                ///< smoothed RTT estimate
  units::Millis rto{};                 ///< current retransmission timeout
};

/// One reliable stream. A single object serves both halves because the whole
/// experiment runs in-process; the DATA direction is fixed at construction
/// and ACKs flow the opposite way through the same faulted channel.
class ReliableStream final : private PacketEndpoint {
 public:
  ReliableStream(PacketRouter& router, Channel& channel, std::uint16_t stream_id,
                 LinkDirection data_direction, StreamConfig config = {});

  /// Queue a message. `declared_wire_size` is the size the link should
  /// account for (e.g. the encoded video frame size); the actual payload
  /// can be much smaller. Returns the message id.
  std::uint32_t send_message(Payload bytes, std::uint32_t declared_wire_size,
                             util::TimePoint now);

  /// Drive timers: transmit window, retransmit on RTO. The router's poll()
  /// must run first each step so incoming ACKs/DATA are processed.
  void step(util::TimePoint now);

  /// Next in-order message, if any has completed.
  std::optional<DeliveredMessage> pop_delivered();

  /// Cumulative counters. `rto` is the timeout in force when the last RTT
  /// sample landed, derived here on read rather than on every sample.
  const StreamStats& stats() const;
  std::size_t unacked_segments() const { return window_.size(); }
  std::size_t send_backlog() const { return send_queue_.size(); }
  const StreamConfig& config() const { return config_; }
  /// Highest cumulative ACK the sender has seen (monotone non-decreasing).
  std::uint32_t last_cum_ack() const { return last_cum_ack_; }

 private:
  /// The fixed fields of a DATA segment.
  struct SegmentHeader {
    std::uint32_t seq{0};
    std::uint32_t message_id{0};
    std::uint16_t seg_index{0};
    std::uint16_t seg_count{0};
    std::uint32_t message_wire_size{0};
    std::uint64_t message_sent_us{0};
  };

  /// A segment as the sender keeps it: its chunk is the byte range
  /// [lo, hi) of its message, which messages_ stores once.
  struct Segment : SegmentHeader {
    std::uint32_t lo{0};
    std::uint32_t hi{0};
  };

  /// A segment received ahead of a gap, with its own copy of the chunk.
  struct HeldSegment : SegmentHeader {
    Payload chunk;
  };

  /// A received DATA segment whose chunk views the packet payload.
  struct SegmentView {
    SegmentHeader header;
    std::span<const std::uint8_t> chunk;
  };

  struct InFlight {
    Segment segment;
    util::TimePoint first_sent{};
    util::TimePoint last_sent{};
    std::uint32_t transmissions{0};
  };

  /// The one message being reassembled. Segments are absorbed in seq order
  /// and a message's segments have consecutive seqs, so at most one message
  /// is ever partial and its chunks arrive in seg_index order.
  struct PendingMessage {
    Payload bytes;
    std::uint16_t received{0};  ///< segments absorbed so far; 0 = none pending
  };

  void on_packet(const ProtocolHeader& header, ByteReader body, LinkDirection via,
                 util::TimePoint now) override;
  void on_data(ByteReader body, util::TimePoint now);
  void absorb(const SegmentHeader& header, std::span<const std::uint8_t> chunk,
              util::TimePoint now);
  void update_hol_obs(util::TimePoint now);
  void on_ack(ByteReader body, util::TimePoint now);
  void transmit_segment(InFlight& entry, util::TimePoint now, bool retransmission);
  void send_ack(util::TimePoint now);
  void update_rtt(util::Duration sample);
  void reset_backoff();
  /// compute_rto(rto_backoff_), recomputed only after the RTT estimate or
  /// the backoff changed.
  util::Duration rto();
  util::Duration compute_rto(std::uint32_t backoff) const;
  static void encode_data(ByteWriter& w, const SegmentHeader& seg,
                          std::span<const std::uint8_t> chunk);
  static std::optional<SegmentView> decode_data(ByteReader& r);

  PacketRouter* router_;
  Channel* channel_;
  std::uint16_t stream_id_;
  LinkDirection data_dir_;
  StreamConfig config_;

  // Sender state.
  std::uint32_t next_seq_{0};
  std::uint32_t next_message_id_{0};
  std::deque<Segment> send_queue_;  ///< not yet transmitted
  /// Bytes of each message not yet fully ACKed, in id order: messages_[i]
  /// is message first_unacked_message_ + i.
  std::deque<Payload> messages_;
  std::uint32_t first_unacked_message_{0};
  /// Unacked segments: always the contiguous seq range [last_cum_ack_, next
  /// transmitted), so window_[i] holds seq last_cum_ack_ + i.
  std::deque<InFlight> window_;
  std::uint32_t last_cum_ack_{0};
  std::uint32_t dup_ack_count_{0};
  std::uint32_t rto_backoff_{0};
  units::Millis srtt_{};
  units::Millis rttvar_{};
  bool rtt_valid_{false};
  /// Cache of compute_rto(rto_backoff_); stale once the RTT estimate or the
  /// backoff has changed since it was computed.
  util::Duration rto_{};
  bool rto_stale_{true};
  /// The backoff in force when the last RTT sample landed: stats().rto is
  /// compute_rto of it (srtt and rttvar only change on a sample).
  std::uint32_t sample_backoff_{0};

  // Receiver state.
  std::uint32_t rcv_next_{0};  ///< next expected seq
  /// seq -> segment that arrived ahead of a gap
  std::map<std::uint32_t, HeldSegment> out_of_order_;
  PendingMessage pending_;
  std::uint32_t next_deliver_message_{0};
  util::DrainQueue<DeliveredMessage> delivered_;
  bool ack_pending_{false};
  util::TimePoint ack_due_{};
  std::uint64_t last_data_ts_us_{0};

#if RDSIM_OBS
  // Head-of-line stall tracking (observation only — never read by the
  // protocol). A stall is any period with out-of-order segments buffered;
  // the span and the microsecond counter are recorded together when the
  // stall closes, so the counter equals the span-duration sum exactly.
  bool hol_open_{false};
  util::TimePoint hol_begin_{};
#endif

  /// `rto` is filled in lazily by stats(), hence mutable.
  mutable StreamStats stats_;
  mutable bool stats_rto_stale_{false};
};

}  // namespace rdsim::net
