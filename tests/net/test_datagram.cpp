#include <gtest/gtest.h>

#include "net/datagram.hpp"
#include "net/serialization.hpp"
#include "net_test_util.hpp"

namespace rdsim::net {
namespace {

using util::Duration;
using util::TimePoint;

struct DgramFixture : public ::testing::Test {
  DgramFixture()
      : channel{tc, "lo"},
        router{channel},
        sock{router, channel, 3, LinkDirection::kUplink} {}

  TrafficControl tc;
  Channel channel;
  PacketRouter router;
  DatagramSocket sock;
};

TEST_F(DgramFixture, DeliversInSendOrderOnCleanLink) {
  for (int i = 0; i < 5; ++i) sock.send({static_cast<std::uint8_t>(i)}, 50, TimePoint{});
  router.poll(TimePoint{});
  for (int i = 0; i < 5; ++i) {
    const auto m = sock.receive();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->bytes[0], static_cast<std::uint8_t>(i));
    EXPECT_EQ(m->sequence, static_cast<std::uint32_t>(i));
  }
  EXPECT_FALSE(sock.receive().has_value());
}

TEST_F(DgramFixture, LossIsSilent) {
  tc.add("lo", parse_netem("loss 100%"));
  sock.send({1}, 50, TimePoint{});
  router.poll(TimePoint::from_seconds(1.0));
  EXPECT_FALSE(sock.receive().has_value());
  EXPECT_EQ(sock.sent_count(), 1u);
  EXPECT_EQ(sock.received_count(), 0u);
}

TEST_F(DgramFixture, ReceiveLatestSkipsBacklog) {
  for (int i = 0; i < 10; ++i) sock.send({static_cast<std::uint8_t>(i)}, 50, TimePoint{});
  router.poll(TimePoint{});
  const auto m = sock.receive_latest();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->bytes[0], 9);
  EXPECT_EQ(sock.stale_discarded(), 9u);
  EXPECT_FALSE(sock.receive_latest().has_value());
}

TEST_F(DgramFixture, ReceiveLatestIgnoresReorderedOldPackets) {
  // Reordering makes an old datagram arrive after a newer one; latest-wins
  // must not step backwards.
  tc.add("lo", parse_netem("delay 50ms reorder 50% gap 2"));
  for (int i = 0; i < 30; ++i) {
    sock.send({static_cast<std::uint8_t>(i)}, 50,
              TimePoint::from_micros(i * 1000));
  }
  std::uint32_t last_seq = 0;
  bool any = false;
  for (int ms = 0; ms < 120; ms += 5) {
    router.poll(TimePoint::from_micros(ms * 1000));
    if (const auto m = sock.receive_latest()) {
      if (any) {
        EXPECT_GE(m->sequence, last_seq);
      }
      last_seq = m->sequence;
      any = true;
    }
  }
  EXPECT_TRUE(any);
}

TEST_F(DgramFixture, WrongDirectionPacketsIgnored) {
  // A datagram with our stream id arriving from the *receive* direction
  // (i.e. looped back) must not be delivered as incoming data.
  ByteWriter w;
  w.u32(0);
  w.u64(0);
  w.bytes({1});
  send(channel, LinkDirection::kDownlink, seal(3, SegmentType::kDatagram, w.take()), 50,
       TimePoint{});
  router.poll(TimePoint{});
  EXPECT_FALSE(sock.receive().has_value());
}

}  // namespace
}  // namespace rdsim::net
