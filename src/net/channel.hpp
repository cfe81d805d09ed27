// Bidirectional communication channel over an emulated network device.
//
// Mirrors the paper's setup (§V.D): CARLA server and client both run on the
// same host and exchange traffic over the loopback interface, so a single
// egress qdisc on `lo` disturbs *both* the downlink video and the uplink
// driving commands. A Channel therefore owns one device in a TrafficControl
// table and pushes packets from both directions through the same root qdisc;
// delivered packets are routed to the destination endpoint's inbox.
//
// The packet path is allocation-free in steady state: senders build payloads
// in buffers leased from the channel's PayloadPool (acquire_payload), move
// the finished Packet into send(), and receivers hand parsed buffers back
// via recycle(). step() consults the qdisc's next_event_at() and returns
// without touching the queue while nothing can be released yet.
#pragma once

#include <string>

#include "net/payload_pool.hpp"
#include "net/tc.hpp"
#include "util/drain_queue.hpp"
#include "util/time.hpp"

namespace rdsim::net {

/// Per-direction delivery statistics.
struct DirectionStats {
  std::uint64_t packets_sent{0};
  std::uint64_t packets_delivered{0};
  std::uint64_t bytes_sent{0};
  util::Duration total_latency{};  ///< sum over delivered packets

  units::Millis mean_latency() const {
    return packets_delivered > 0
               ? units::Millis{total_latency.to_millis() /
                               static_cast<double>(packets_delivered)}
               : units::Millis{};
  }
};

class Channel {
 public:
  /// `tc` is borrowed and must outlive the channel. `device` names the
  /// emulated interface ("lo" in the paper's setup).
  Channel(TrafficControl& tc, std::string device);

  /// Queue `packet` for transmission at `now`. The channel assigns the
  /// packet id and flow from `dir`; everything else (payload, wire_size)
  /// is the caller's. Lease the payload with acquire_payload() so buffers
  /// recycle. Returns the assigned packet id.
  std::uint64_t send(LinkDirection dir, Packet&& packet, util::TimePoint now);

  /// Move packets that have cleared the qdisc into the destination inboxes.
  /// Call once per simulation step (idempotent within a step). Early-outs
  /// without touching the qdisc while next_event_at() is in the future.
  void step(util::TimePoint now);

  /// Pop the next delivered packet travelling in `dir`, if any.
  std::optional<Packet> receive(LinkDirection dir);

  bool has_pending(LinkDirection dir) const;
  std::size_t inbox_size(LinkDirection dir) const;

  const DirectionStats& stats(LinkDirection dir) const;
  const std::string& device() const { return device_; }
  TrafficControl& traffic_control() { return *tc_; }

  /// Packets still inside the qdisc (in flight).
  std::size_t in_flight() const { return root().backlog(); }

  /// Earliest instant the qdisc could release a packet; nullopt while idle.
  std::optional<util::TimePoint> next_event_at() const { return root().next_event_at(); }

  /// Lease a cleared payload buffer with capacity >= size_hint.
  Payload acquire_payload(std::size_t size_hint) { return pool_.acquire(size_hint); }

  /// Hand a parsed payload buffer back for reuse by future sends.
  void recycle(Payload&& payload) { pool_.release(std::move(payload)); }

  const PayloadPool& pool() const { return pool_; }

 private:
  class DeliverySink;

  using Inbox = util::DrainQueue<Packet>;

  void deliver(Packet&& packet, util::TimePoint now);
  Qdisc& root() const { return **root_; }
  Inbox& inbox(LinkDirection dir);
  const Inbox& inbox(LinkDirection dir) const;
  DirectionStats& mutable_stats(LinkDirection dir);

  TrafficControl* tc_;
  std::string device_;
  QdiscPtr* root_;  ///< the device's root slot, resolved once
  std::uint64_t next_id_{1};
  Inbox to_operator_;  ///< downlink deliveries
  Inbox to_vehicle_;   ///< uplink deliveries
  DirectionStats down_stats_;
  DirectionStats up_stats_;
  PayloadPool pool_;
};

}  // namespace rdsim::net
