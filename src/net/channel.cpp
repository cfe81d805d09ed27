#include "net/channel.hpp"

#include "util/time.hpp"

namespace rdsim::net {

namespace {
// Flow ids: low bit encodes direction so the router can demultiplex.
constexpr std::uint32_t kDownFlow = 0;
constexpr std::uint32_t kUpFlow = 1;
}  // namespace

/// Routes packets released by the qdisc straight into the channel inboxes,
/// so dequeueing never stages through an intermediate vector.
class Channel::DeliverySink final : public PacketSink {
 public:
  DeliverySink(Channel& channel, util::TimePoint now) : channel_{channel}, now_{now} {}

  void accept(Packet&& packet) override { channel_.deliver(std::move(packet), now_); }

 private:
  Channel& channel_;
  util::TimePoint now_;
};

Channel::Channel(TrafficControl& tc, std::string device)
    : tc_{&tc}, device_{std::move(device)}, root_{&tc_->root_slot(device_)} {}

std::uint64_t Channel::send(LinkDirection dir, Packet&& packet, util::TimePoint now) {
  packet.id = next_id_++;
  packet.flow = dir == LinkDirection::kDownlink ? kDownFlow : kUpFlow;
  DirectionStats& s = mutable_stats(dir);
  ++s.packets_sent;
  s.bytes_sent += packet.effective_wire_size();
  root().enqueue(std::move(packet), now);
  return next_id_ - 1;
}

void Channel::step(util::TimePoint now) {
  Qdisc& q = root();
  const auto next = q.next_event_at();
  if (!next || *next > now) return;
  DeliverySink sink{*this, now};
  q.dequeue_ready(now, sink);
}

void Channel::deliver(Packet&& packet, util::TimePoint now) {
  const LinkDirection dir =
      packet.flow == kDownFlow ? LinkDirection::kDownlink : LinkDirection::kUplink;
  DirectionStats& s = mutable_stats(dir);
  ++s.packets_delivered;
  s.total_latency += now - packet.enqueued_at;
  inbox(dir).push(std::move(packet));
}

std::optional<Packet> Channel::receive(LinkDirection dir) {
  Inbox& box = inbox(dir);
  if (box.empty()) return std::nullopt;
  return box.pop();
}

bool Channel::has_pending(LinkDirection dir) const { return !inbox(dir).empty(); }

std::size_t Channel::inbox_size(LinkDirection dir) const { return inbox(dir).size(); }

const DirectionStats& Channel::stats(LinkDirection dir) const {
  return dir == LinkDirection::kDownlink ? down_stats_ : up_stats_;
}

Channel::Inbox& Channel::inbox(LinkDirection dir) {
  return dir == LinkDirection::kDownlink ? to_operator_ : to_vehicle_;
}

const Channel::Inbox& Channel::inbox(LinkDirection dir) const {
  return dir == LinkDirection::kDownlink ? to_operator_ : to_vehicle_;
}

DirectionStats& Channel::mutable_stats(LinkDirection dir) {
  return dir == LinkDirection::kDownlink ? down_stats_ : up_stats_;
}

}  // namespace rdsim::net
