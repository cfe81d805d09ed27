#include "net/reliable_stream.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "check/contracts.hpp"
#include "net/serialization.hpp"
#include "obs/catalog.hpp"
#include "obs/obs.hpp"
#include "util/time.hpp"

namespace rdsim::net {

namespace {
LinkDirection reverse(LinkDirection dir) {
  return dir == LinkDirection::kDownlink ? LinkDirection::kUplink
                                         : LinkDirection::kDownlink;
}
constexpr std::uint32_t kAckWireSize = 60;
/// Fixed bytes of the DATA segment encoding before the chunk:
/// seq u32 + message_id u32 + seg_index u16 + seg_count u16 +
/// message_wire_size u32 + message_sent_us u64 + chunk length prefix u32.
constexpr std::size_t kDataEncodingBytes = 4 + 4 + 2 + 2 + 4 + 8 + 4;
/// ACK encoding ceiling: cum_ack u32 + sack count u32 + <=8 SACKs + ts u64.
constexpr std::size_t kMaxSackHints = 8;
constexpr std::size_t kAckEncodingBytes = 4 + 4 + kMaxSackHints * 4 + 8;
}  // namespace

ReliableStream::ReliableStream(PacketRouter& router, Channel& channel,
                               std::uint16_t stream_id, LinkDirection data_direction,
                               StreamConfig config)
    : router_{&router},
      channel_{&channel},
      stream_id_{stream_id},
      data_dir_{data_direction},
      config_{config} {
  router_->register_stream(stream_id_, *this);
}

std::uint32_t ReliableStream::send_message(Payload bytes, std::uint32_t declared_wire_size,
                                           util::TimePoint now) {
  const std::uint32_t message_id = next_message_id_++;
  const std::uint32_t wire =
      std::max<std::uint32_t>(declared_wire_size, static_cast<std::uint32_t>(bytes.size()));
  const std::uint16_t seg_count = static_cast<std::uint16_t>(
      std::max<std::uint32_t>(1, (wire + config_.mtu - 1) / config_.mtu));

  // Slice the actual payload evenly across segments so that losing any one
  // segment blocks the whole message, as with real TCP segmentation.
  const std::size_t total = bytes.size();
  for (std::uint16_t i = 0; i < seg_count; ++i) {
    Segment seg;
    seg.seq = next_seq_++;
    seg.message_id = message_id;
    seg.seg_index = i;
    seg.seg_count = seg_count;
    seg.message_wire_size = wire;
    seg.message_sent_us = static_cast<std::uint64_t>(now.count_micros());
    seg.lo = static_cast<std::uint32_t>(total * i / seg_count);
    seg.hi = static_cast<std::uint32_t>(total * (i + 1) / seg_count);
    send_queue_.push_back(seg);
  }
  messages_.push_back(std::move(bytes));
  ++stats_.messages_sent;
  return message_id;
}

void ReliableStream::encode_data(ByteWriter& w, const SegmentHeader& seg,
                                 std::span<const std::uint8_t> chunk) {
  w.u32(seg.seq);
  w.u32(seg.message_id);
  w.u16(seg.seg_index);
  w.u16(seg.seg_count);
  w.u32(seg.message_wire_size);
  w.u64(seg.message_sent_us);
  w.u32(static_cast<std::uint32_t>(chunk.size()));
  w.raw(chunk.data(), chunk.size());
}

std::optional<ReliableStream::SegmentView> ReliableStream::decode_data(ByteReader& r) {
  SegmentView seg;
  SegmentHeader& h = seg.header;
  h.seq = r.u32();
  h.message_id = r.u32();
  h.seg_index = r.u16();
  h.seg_count = r.u16();
  h.message_wire_size = r.u32();
  h.message_sent_us = r.u64();
  seg.chunk = r.bytes_view();
  if (!r.ok() || h.seg_count == 0 || h.seg_index >= h.seg_count) return std::nullopt;
  return seg;
}

void ReliableStream::transmit_segment(InFlight& entry, util::TimePoint now,
                                      bool retransmission) {
  const Segment& seg = entry.segment;
  const Payload& message = messages_[seg.message_id - first_unacked_message_];
  const auto chunk =
      std::span<const std::uint8_t>{message}.subspan(seg.lo, seg.hi - seg.lo);
  // Frame the segment directly in a pooled buffer: header, then the DATA
  // encoding — no intermediate body copy.
  ByteWriter w{channel_->acquire_payload(ProtocolHeader::kSize + kDataEncodingBytes +
                                         chunk.size())};
  ProtocolHeader::begin(w, stream_id_, SegmentType::kData);
  encode_data(w, seg, chunk);
  Packet p;
  p.payload = ProtocolHeader::finish(w);
  p.wire_size = seg.message_wire_size / seg.seg_count + config_.header_overhead;
  channel_->send(data_dir_, std::move(p), now);

  entry.last_sent = now;
  ++entry.transmissions;
  if (!retransmission) ++stats_.segments_sent;
  RDSIM_OBS_COUNT(obs::metric::kStreamSegmentsTx, 1);
  if (retransmission) {
    RDSIM_OBS_COUNT(obs::metric::kStreamRetransmittedSegments, 1);
  }
}

void ReliableStream::step(util::TimePoint now) {
  // Transmit fresh segments while the window allows. Each moves from the
  // send queue into the window, which then owns it until cumulatively ACKed.
  while (!send_queue_.empty() && window_.size() < config_.window_segments) {
    window_.push_back(
        InFlight{.segment = std::move(send_queue_.front()), .first_sent = now});
    send_queue_.pop_front();
    transmit_segment(window_.back(), now, /*retransmission=*/false);
  }

  // RTO: the timer runs on the earliest outstanding segment, per TCP. On
  // expiry we resend the head plus a small batch of other stale segments —
  // the practical effect of SACK-based recovery resuming after a timeout.
  if (!window_.empty()) {
    const util::Duration timeout = rto();
    if (now - window_.front().last_sent >= timeout) {
      int budget = 4;
      for (InFlight& entry : window_) {
        if (budget == 0) break;
        if (now - entry.last_sent < timeout) continue;
        transmit_segment(entry, now, /*retransmission=*/true);
        --budget;
      }
      ++stats_.retransmits_rto;
      RDSIM_OBS_COUNT(obs::metric::kStreamRtoEvents, 1);
      rto_backoff_ = std::min(rto_backoff_ + 1, 3u);
      rto_stale_ = true;
    }
  } else {
    reset_backoff();
  }

  // Delayed ack timer.
  if (ack_pending_ && now >= ack_due_) send_ack(now);
}

util::Duration ReliableStream::compute_rto(std::uint32_t backoff) const {
  util::Duration base = config_.rto_initial;
  if (rtt_valid_) {
    const units::Millis rto = srtt_ + units::Millis{std::max(4.0 * rttvar_.value(), 1.0)};
    base = rto.to_duration();
  }
  base = std::max(base, config_.rto_min);
  for (std::uint32_t i = 0; i < backoff; ++i) base = base * 2;
  return std::min(base, config_.rto_max);
}

util::Duration ReliableStream::rto() {
  if (rto_stale_) {
    rto_ = compute_rto(rto_backoff_);
    rto_stale_ = false;
  }
  return rto_;
}

const StreamStats& ReliableStream::stats() const {
  if (stats_rto_stale_) {
    stats_.rto = units::Millis::from_duration(compute_rto(sample_backoff_));
    stats_rto_stale_ = false;
  }
  return stats_;
}

void ReliableStream::reset_backoff() {
  if (rto_backoff_ == 0) return;
  rto_backoff_ = 0;
  rto_stale_ = true;
}

void ReliableStream::update_rtt(util::Duration sample) {
  const units::Millis r = units::Millis::from_duration(sample);
  if (!rtt_valid_) {
    srtt_ = r;
    rttvar_ = r / 2.0;
    rtt_valid_ = true;
  } else {
    // RFC 6298 EWMA constants.
    rttvar_ = units::Millis{0.75 * rttvar_.value() +
                            0.25 * std::fabs(srtt_.value() - r.value())};
    srtt_ = 0.875 * srtt_ + 0.125 * r;
  }
}

void ReliableStream::on_packet(const ProtocolHeader& header, ByteReader body,
                               LinkDirection via, util::TimePoint now) {
  if (header.type == SegmentType::kData && via == data_dir_) {
    on_data(body, now);
  } else if (header.type == SegmentType::kAck && via == reverse(data_dir_)) {
    on_ack(body, now);
  }
  // Anything else (e.g. a duplicated packet that re-arrives on the wrong
  // path) is silently ignored, as a real socket would.
}

void ReliableStream::on_data(ByteReader body, util::TimePoint now) {
  const auto seg = decode_data(body);
  if (!seg) return;
  RDSIM_OBS_COUNT(obs::metric::kStreamSegmentsRx, 1);

  const std::uint32_t seq = seg->header.seq;
  if (seq < rcv_next_ || out_of_order_.count(seq) != 0) {
    // Duplicate (retransmission that raced the original, or netem duplicate).
    ++stats_.stale_segments;
    RDSIM_OBS_COUNT(obs::metric::kStreamStaleSegments, 1);
  } else {
    last_data_ts_us_ = seg->header.message_sent_us;
    if (seq == rcv_next_) {
      // In order: straight from the packet into the message, then whatever
      // was buffered behind the gap this segment closed.
      absorb(seg->header, seg->chunk, now);
      while (!out_of_order_.empty() && out_of_order_.begin()->first == rcv_next_) {
        const auto it = out_of_order_.begin();
        absorb(it->second, it->second.chunk, now);
        out_of_order_.erase(it);
      }
    } else {
      // Ahead of a gap: the packet buffer is recycled, so keep a copy.
      out_of_order_.emplace(
          seq, HeldSegment{seg->header, Payload(seg->chunk.begin(), seg->chunk.end())});
    }
  }

  update_hol_obs(now);

  if (config_.ack_delay.is_zero()) {
    send_ack(now);
  } else if (!ack_pending_) {
    ack_pending_ = true;
    ack_due_ = now + config_.ack_delay;
  }
}

void ReliableStream::absorb(const SegmentHeader& header,
                            std::span<const std::uint8_t> chunk, util::TimePoint now) {
  ++rcv_next_;
  RDSIM_INVARIANT(header.seg_index == pending_.received,
                  "a message's segments must be absorbed in seg_index order");
  if (pending_.received == 0) {
    // Chunks are even slices, so none is longer than the first plus one byte.
    pending_.bytes.reserve(std::size_t{header.seg_count} * (chunk.size() + 1));
  }
  pending_.bytes.insert(pending_.bytes.end(), chunk.begin(), chunk.end());
  if (++pending_.received < header.seg_count) return;

  // Complete: absorption runs in seq order, so messages complete in id order.
  RDSIM_INVARIANT(header.message_id == next_deliver_message_,
                  "reliable stream must deliver message ids contiguously");
  DeliveredMessage msg;
  msg.bytes = std::move(pending_.bytes);
  msg.message_id = header.message_id;
  msg.sent_at =
      util::TimePoint::from_micros(static_cast<std::int64_t>(header.message_sent_us));
  msg.delivered_at = now;
  pending_ = PendingMessage{};
  delivered_.push(std::move(msg));
  ++next_deliver_message_;
  ++stats_.messages_delivered;
}

void ReliableStream::update_hol_obs(util::TimePoint now) {
#if RDSIM_OBS
  const bool stalled = !out_of_order_.empty();
  if (stalled && !hol_open_) {
    hol_open_ = true;
    hol_begin_ = now;
  } else if (!stalled && hol_open_) {
    hol_open_ = false;
    if (obs::Context* ctx = obs::Context::current()) {
      // Record span and counter from the same endpoints, so the microsecond
      // total always equals the sum of traced stall-span durations.
      const std::size_t span =
          ctx->span_open(obs::metric::kStreamHolStallSpan, hol_begin_, stream_id_);
      ctx->span_close(span, now);
      ctx->count(obs::metric::kStreamHolStallMicros,
                 static_cast<std::uint64_t>((now - hol_begin_).count_micros()));
      ctx->count(obs::metric::kStreamHolStallSpan, 1);
    }
  }
#else
  (void)now;
#endif
}

void ReliableStream::send_ack(util::TimePoint now) {
  ByteWriter w{channel_->acquire_payload(ProtocolHeader::kSize + kAckEncodingBytes)};
  ProtocolHeader::begin(w, stream_id_, SegmentType::kAck);
  w.u32(rcv_next_);
  // SACK hints: up to 8 out-of-order sequence numbers.
  const std::uint32_t sack_count = static_cast<std::uint32_t>(
      std::min<std::size_t>(out_of_order_.size(), kMaxSackHints));
  w.u32(sack_count);
  std::uint32_t written = 0;
  for (const auto& [seq, _] : out_of_order_) {
    if (written++ >= sack_count) break;
    w.u32(seq);
  }
  w.u64(last_data_ts_us_);
  Packet p;
  p.payload = ProtocolHeader::finish(w);
  p.wire_size = kAckWireSize;
  channel_->send(reverse(data_dir_), std::move(p), now);
  ++stats_.acks_sent;
  ack_pending_ = false;
}

void ReliableStream::on_ack(ByteReader r, util::TimePoint now) {
  const std::uint32_t cum_ack = r.u32();
  const std::uint32_t sack_count = r.u32();
  // Our sender never writes more than kMaxSackHints; a larger count is a
  // malformed packet, discarded just as a truncated one would be.
  if (sack_count > kMaxSackHints) return;
  std::array<std::uint32_t, kMaxSackHints> sack_buf{};
  for (std::uint32_t i = 0; i < sack_count && r.ok(); ++i) sack_buf[i] = r.u32();
  r.u64();  // echoed timestamp, unused: RTT comes from transmission records
  if (!r.ok()) return;
  const auto sacks_begin = sack_buf.begin();
  const auto sacks_end = sack_buf.begin() + sack_count;

  if (cum_ack > last_cum_ack_) {
    // A valid cumulative ACK can never acknowledge sequences we have not
    // sent; a corrupt ACK that decodes plausibly would break window
    // accounting from here on.
    RDSIM_INVARIANT(cum_ack <= next_seq_,
                    "cumulative ACK must not exceed the highest sent sequence");
    // New data acknowledged: pop the window's acked prefix and sample RTT
    // from any segment transmitted exactly once (Karn's algorithm).
    bool sampled = false;
    while (!window_.empty() && window_.front().segment.seq < cum_ack) {
      const InFlight& acked = window_.front();
      if (acked.transmissions == 1) {
        update_rtt(now - acked.first_sent);
        sampled = true;
      }
      if (acked.segment.seg_index + 1 == acked.segment.seg_count) {
        // The message's last segment, so all of it is ACKed.
        messages_.pop_front();
        ++first_unacked_message_;
      }
      window_.pop_front();
    }
    if (sampled) {
      // stats().rto reports the backoff in force when the samples landed,
      // i.e. before the reset below.
      rto_stale_ = true;
      sample_backoff_ = rto_backoff_;
      stats_rto_stale_ = true;
      stats_.srtt = srtt_;
    }
    last_cum_ack_ = cum_ack;
    dup_ack_count_ = 0;
    reset_backoff();
  } else if (cum_ack == last_cum_ack_ && !window_.empty()) {
    ++dup_ack_count_;
    ++stats_.dup_acks_seen;
    RDSIM_OBS_COUNT(obs::metric::kStreamDupAcks, 1);
    // Re-arm every three further duplicate ACKs so multiple losses within a
    // window still recover without waiting for the RTO (SACK-era TCP).
    const std::uint32_t front_seq = window_.front().segment.seq;
    if (config_.fast_retransmit && dup_ack_count_ % 3 == 0 && cum_ack >= front_seq &&
        cum_ack - front_seq < window_.size()) {
      transmit_segment(window_[cum_ack - front_seq], now, /*retransmission=*/true);
      ++stats_.retransmits_fast;
      RDSIM_OBS_COUNT(obs::metric::kStreamFastRetransmits, 1);
    }
  }

  // SACK-based loss recovery: every in-flight segment below the highest
  // SACKed sequence that is not itself SACKed has very likely been lost —
  // retransmit a bounded number of them immediately instead of waiting for
  // serial RTOs (this is what keeps sustained-loss links usable).
  if (sack_count > 0 && config_.fast_retransmit) {
    const std::uint32_t max_sack = *std::max_element(sacks_begin, sacks_end);
    const util::Duration hold_off = rto() / 2;
    int budget = 4;
    for (InFlight& entry : window_) {
      const std::uint32_t seq = entry.segment.seq;
      if (seq >= max_sack || budget == 0) break;
      if (std::find(sacks_begin, sacks_end, seq) != sacks_end) {
        // Keep SACKed segments from driving the RTO timer.
        entry.last_sent = std::max(entry.last_sent, now);
        continue;
      }
      if (now - entry.last_sent < hold_off) continue;
      transmit_segment(entry, now, /*retransmission=*/true);
      ++stats_.retransmits_fast;
      RDSIM_OBS_COUNT(obs::metric::kStreamFastRetransmits, 1);
      --budget;
    }
  }
}

std::optional<DeliveredMessage> ReliableStream::pop_delivered() {
  if (delivered_.empty()) return std::nullopt;
  return delivered_.pop();
}

}  // namespace rdsim::net
