// Channel, router and checksum semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/router.hpp"
#include "net/tbf.hpp"
#include "net_test_util.hpp"

namespace rdsim::net {
namespace {

using util::Duration;
using util::TimePoint;

TEST(Channel, DeliversBothDirections) {
  TrafficControl tc;
  Channel ch{tc, "lo"};
  send(ch, LinkDirection::kDownlink, {1, 2, 3}, 100, TimePoint{});
  send(ch, LinkDirection::kUplink, {4, 5}, 50, TimePoint{});
  ch.step(TimePoint{});
  auto down = ch.receive(LinkDirection::kDownlink);
  ASSERT_TRUE(down.has_value());
  EXPECT_EQ(down->payload, (Payload{1, 2, 3}));
  auto up = ch.receive(LinkDirection::kUplink);
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(up->payload, (Payload{4, 5}));
  EXPECT_FALSE(ch.receive(LinkDirection::kDownlink).has_value());
}

TEST(Channel, SharedQdiscAffectsBothDirections) {
  // The paper's loopback setup: one netem rule disturbs video *and* commands.
  TrafficControl tc;
  Channel ch{tc, "lo"};
  tc.add("lo", parse_netem("delay 30ms"));
  send(ch, LinkDirection::kDownlink, {1}, 10, TimePoint{});
  send(ch, LinkDirection::kUplink, {2}, 10, TimePoint{});
  ch.step(TimePoint::from_micros(29000));
  EXPECT_FALSE(ch.has_pending(LinkDirection::kDownlink));
  EXPECT_FALSE(ch.has_pending(LinkDirection::kUplink));
  ch.step(TimePoint::from_micros(30000));
  EXPECT_TRUE(ch.has_pending(LinkDirection::kDownlink));
  EXPECT_TRUE(ch.has_pending(LinkDirection::kUplink));
}

TEST(Channel, TracksLatencyStats) {
  TrafficControl tc;
  Channel ch{tc, "lo"};
  tc.add("lo", parse_netem("delay 10ms"));
  send(ch, LinkDirection::kDownlink, {1}, 10, TimePoint{});
  ch.step(TimePoint::from_micros(10000));
  const auto& stats = ch.stats(LinkDirection::kDownlink);
  EXPECT_EQ(stats.packets_sent, 1u);
  EXPECT_EQ(stats.packets_delivered, 1u);
  EXPECT_NEAR(stats.mean_latency().value(), 10.0, 1e-9);
}

TEST(Channel, InFlightCountsQueuedPackets) {
  TrafficControl tc;
  Channel ch{tc, "lo"};
  tc.add("lo", parse_netem("delay 1000ms"));
  send(ch, LinkDirection::kDownlink, {1}, 10, TimePoint{});
  send(ch, LinkDirection::kDownlink, {2}, 10, TimePoint{});
  ch.step(TimePoint{});
  EXPECT_EQ(ch.in_flight(), 2u);
}

TEST(ProtocolHeader, SealAndOpenRoundTrip) {
  const Payload body{10, 20, 30};
  const Payload sealed = seal(7, SegmentType::kAck, body);
  auto parsed = open_packet_view(sealed);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header.stream_id, 7);
  EXPECT_EQ(parsed->header.type, SegmentType::kAck);
  Payload got(parsed->body.remaining());
  for (auto& b : got) b = parsed->body.u8();
  EXPECT_EQ(got, body);
  EXPECT_TRUE(parsed->body.ok());
}

TEST(ProtocolHeader, RejectsTruncatedPacket) {
  EXPECT_FALSE(open_packet_view(Payload{1, 2}).has_value());
  Payload sealed = seal(1, SegmentType::kData, {});
  EXPECT_TRUE(open_packet_view(sealed).has_value());
  sealed.pop_back();
  EXPECT_FALSE(open_packet_view(sealed).has_value());
}

TEST(PacketRouter, RoutesByStreamId) {
  TrafficControl tc;
  Channel ch{tc, "lo"};
  PacketRouter router{ch};
  RecordingEndpoint a;
  RecordingEndpoint b;
  router.register_stream(1, a);
  router.register_stream(2, b);
  send(ch, LinkDirection::kDownlink, seal(1, SegmentType::kData, {1}), 10, TimePoint{});
  send(ch, LinkDirection::kUplink, seal(2, SegmentType::kAck, {2}), 10, TimePoint{});
  send(ch, LinkDirection::kDownlink, seal(9, SegmentType::kData, {3}), 10, TimePoint{});
  router.poll(TimePoint{});
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(a.received[0].header.stream_id, 1);
  EXPECT_EQ(a.received[0].header.type, SegmentType::kData);
  EXPECT_EQ(a.received[0].body, Payload{1});
  EXPECT_EQ(a.received[0].via, LinkDirection::kDownlink);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].header.type, SegmentType::kAck);
  EXPECT_EQ(b.received[0].body, Payload{2});
  EXPECT_EQ(b.received[0].via, LinkDirection::kUplink);
  EXPECT_EQ(router.unroutable(), 1u);
}

TEST(PacketRouter, ReRegistrationReplacesTheEndpoint) {
  TrafficControl tc;
  Channel ch{tc, "lo"};
  PacketRouter router{ch};
  RecordingEndpoint first;
  RecordingEndpoint second;
  router.register_stream(1, first);
  send(ch, LinkDirection::kDownlink, seal(1, SegmentType::kData, {1}), 10, TimePoint{});
  router.poll(TimePoint{});
  router.register_stream(1, second);
  send(ch, LinkDirection::kDownlink, seal(1, SegmentType::kData, {2}), 10, TimePoint{});
  send(ch, LinkDirection::kDownlink, seal(1, SegmentType::kData, {3}), 10, TimePoint{});
  router.poll(TimePoint{});
  ASSERT_EQ(first.received.size(), 1u);
  EXPECT_EQ(first.received[0].body, Payload{1});
  ASSERT_EQ(second.received.size(), 2u) << "the stream id routes only to its newest endpoint";
  EXPECT_EQ(second.received[0].body, Payload{2});
  EXPECT_EQ(second.received[1].body, Payload{3});
  EXPECT_EQ(router.unroutable(), 0u);
}

/// The body of corruption-test packet `i`: distinct per packet, so a
/// delivered body identifies its packet.
Payload corruption_probe_body(int i) {
  return {static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8), 0xa5, 0x5a,
          0x0f, 0xf0, 0x33, 0xcc};
}

TEST(PacketRouter, DropsCorruptedPacketsLikeTcpChecksum) {
  // A corrupt qdisc plus the router's checksum model turns corruption into
  // loss — the §V.C observation that corruption has no distinct
  // user-visible effect. The model is the Packet::corrupted flag; no
  // corrupted packet may reach a handler, wherever its flipped bit landed.
  constexpr int kPackets = 300;
  std::vector<Payload> sealed;
  for (int i = 0; i < kPackets; ++i) {
    sealed.push_back(
        seal(1, SegmentType::kData, corruption_probe_body(i)));
  }
  // Where netem's flipped bits landed, over all seeds.
  int header_flips = 0;
  int checksum_flips = 0;
  int body_flips = 0;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const NetemConfig corrupt_half = parse_netem("corrupt 50%");

    // Pass 1, channel only: which packets netem damages, and where. The
    // same seed and send sequence make pass 2 damage the same packets.
    std::vector<bool> damaged;
    {
      TrafficControl tc{seed};
      Channel ch{tc, "lo"};
      tc.add("lo", corrupt_half);
      for (const Payload& p : sealed) {
        send(ch, LinkDirection::kDownlink, p, 10, TimePoint{});
      }
      ch.step(TimePoint{});
      while (auto got = ch.receive(LinkDirection::kDownlink)) {
        const Payload& original = sealed[damaged.size()];
        const auto diff = std::mismatch(original.begin(), original.end(),
                                        got->payload.begin());
        EXPECT_EQ(got->corrupted, diff.first != original.end())
            << "the flag must mark exactly the packets whose bytes changed";
        if (got->corrupted) {
          const auto at = static_cast<std::size_t>(diff.first - original.begin());
          // Bytes 0-2 are stream id and type, then the 4 checksum bytes.
          int& region = at < 3                        ? header_flips
                        : at < ProtocolHeader::kSize ? checksum_flips
                                                     : body_flips;
          ++region;
        }
        damaged.push_back(got->corrupted);
      }
      ASSERT_EQ(damaged.size(), sealed.size());
    }

    // Pass 2, through the router: exactly the undamaged packets arrive.
    TrafficControl tc{seed};
    Channel ch{tc, "lo"};
    PacketRouter router{ch};
    RecordingEndpoint endpoint;
    router.register_stream(1, endpoint);
    tc.add("lo", corrupt_half);
    for (const Payload& p : sealed) {
      send(ch, LinkDirection::kDownlink, p, 10, TimePoint{});
    }
    router.poll(TimePoint{});
    std::vector<Payload> delivered;
    for (const auto& got : endpoint.received) {
      EXPECT_EQ(got.header.type, SegmentType::kData);
      delivered.push_back(got.body);
    }

    std::vector<Payload> intact;
    for (int i = 0; i < kPackets; ++i) {
      if (!damaged[static_cast<std::size_t>(i)]) {
        intact.push_back(corruption_probe_body(i));
      }
    }
    EXPECT_EQ(delivered, intact) << "seed " << seed;
    EXPECT_GT(router.checksum_failures(), 0u);
    EXPECT_EQ(router.checksum_failures(), tc.root("lo").stats().corrupted)
        << "seed " << seed;
    EXPECT_EQ(router.unroutable(), 0u);
  }
  EXPECT_GT(header_flips, 0);
  EXPECT_GT(checksum_flips, 0);
  EXPECT_GT(body_flips, 0);
}

TEST(Tbf, EnforcesSustainedRate) {
  TbfConfig cfg;
  cfg.rate = units::BytesPerSecond{1000.0};
  cfg.burst_bytes = 100.0;
  TbfQdisc q{cfg};
  // 10 packets of 100 bytes = 1000 bytes; at 1000 B/s it takes ~0.9 s after
  // the initial burst.
  for (std::uint64_t i = 0; i < 10; ++i) {
    Packet p;
    p.id = i;
    p.wire_size = 100;
    q.enqueue(std::move(p), TimePoint{});
  }
  // Polling every 50 ms, packets emerge at ~1 per 100 ms (rate / size).
  std::size_t total = drain(q, TimePoint{}).size();
  EXPECT_EQ(total, 1u);  // initial burst
  for (int ms = 50; ms <= 1000; ms += 50) {
    total += drain(q, TimePoint::from_seconds(ms / 1000.0)).size();
  }
  EXPECT_GE(total, 9u);
  EXPECT_LE(q.backlog(), 1u);
}

TEST(Tbf, BurstAllowsInitialSpike) {
  TbfConfig cfg;
  cfg.rate = units::BytesPerSecond{100.0};
  cfg.burst_bytes = 1000.0;
  TbfQdisc q{cfg};
  for (std::uint64_t i = 0; i < 10; ++i) {
    Packet p;
    p.id = i;
    p.wire_size = 100;
    q.enqueue(std::move(p), TimePoint{});
  }
  EXPECT_EQ(drain(q, TimePoint{}).size(), 10u);
}

}  // namespace
}  // namespace rdsim::net
