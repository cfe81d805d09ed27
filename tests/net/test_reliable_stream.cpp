// TCP-analogue semantics: ordering, retransmission, head-of-line blocking.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "net/reliable_stream.hpp"

namespace rdsim::net {
namespace {

using util::Duration;
using util::TimePoint;

struct StreamFixture : public ::testing::Test {
  StreamFixture()
      : channel{tc, "lo"}, router{channel},
        stream{router, channel, 1, LinkDirection::kDownlink, config()} {}

  static StreamConfig config() {
    StreamConfig cfg;
    cfg.mtu = 1000;
    return cfg;
  }

  /// Run the virtual clock forward, polling every millisecond.
  void run_for(Duration d) {
    const TimePoint end = now + d;
    while (now < end) {
      now += Duration::millis(1);
      router.poll(now);
      stream.step(now);
    }
  }

  Payload make_message(std::size_t bytes) {
    Payload p(bytes);
    for (std::size_t i = 0; i < bytes; ++i) p[i] = static_cast<std::uint8_t>(i * 7);
    return p;
  }

  TrafficControl tc;
  Channel channel;
  PacketRouter router;
  ReliableStream stream;
  TimePoint now;
};

TEST_F(StreamFixture, DeliversSingleMessage) {
  const Payload msg = make_message(100);
  stream.send_message(msg, 100, now);
  run_for(Duration::millis(5));
  const auto delivered = stream.pop_delivered();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(delivered->bytes, msg);
  EXPECT_EQ(stream.stats().messages_delivered, 1u);
}

TEST_F(StreamFixture, SegmentsLargeMessages) {
  // 10 KB at MTU 1000 = 10 segments.
  stream.send_message(make_message(500), 10000, now);
  run_for(Duration::millis(5));
  EXPECT_EQ(stream.stats().segments_sent, 10u);
  const auto delivered = stream.pop_delivered();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(delivered->bytes.size(), 500u);  // payload reassembled exactly
}

TEST_F(StreamFixture, InOrderDeliveryOfManyMessages) {
  for (int i = 0; i < 20; ++i) {
    Payload msg{static_cast<std::uint8_t>(i)};
    stream.send_message(msg, 100, now);
  }
  run_for(Duration::millis(10));
  for (int i = 0; i < 20; ++i) {
    const auto d = stream.pop_delivered();
    ASSERT_TRUE(d.has_value()) << i;
    EXPECT_EQ(d->bytes[0], static_cast<std::uint8_t>(i));
  }
}

TEST_F(StreamFixture, RecoversFromLossViaRetransmission) {
  tc.add("lo", parse_netem("loss 30%"));
  for (int i = 0; i < 50; ++i) {
    stream.send_message({static_cast<std::uint8_t>(i)}, 100, now);
  }
  run_for(Duration::seconds(10.0));
  int received = 0;
  while (auto d = stream.pop_delivered()) {
    EXPECT_EQ(d->bytes[0], static_cast<std::uint8_t>(received));
    ++received;
  }
  EXPECT_EQ(received, 50);
  EXPECT_GT(stream.stats().retransmits_rto + stream.stats().retransmits_fast, 0u);
}

TEST_F(StreamFixture, LossCausesHeadOfLineStall) {
  // With 200 ms min RTO, a lost segment stalls delivery of everything behind
  // it for on the order of the RTO.
  tc.add("lo", parse_netem("loss 100%"));
  stream.send_message({1}, 100, now);
  run_for(Duration::millis(50));
  tc.del("lo");
  stream.send_message({2}, 100, now);
  run_for(Duration::millis(50));
  // Message 2's segment arrived, but message 1 blocks delivery.
  EXPECT_FALSE(stream.pop_delivered().has_value());
  run_for(Duration::millis(400));  // let the RTO fire and retransmit
  auto first = stream.pop_delivered();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->bytes[0], 1);
  auto second = stream.pop_delivered();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->bytes[0], 2);
  EXPECT_GE(first->latency(), Duration::millis(200));  // paid at least one RTO
}

TEST_F(StreamFixture, FastRetransmitBeatsRtoWhenTrafficFlows) {
  // Drop exactly one segment, then keep sending: dup-ACKs should trigger a
  // fast retransmit well before the 200 ms RTO.
  tc.add("lo", parse_netem("loss 100%"));
  stream.send_message({9}, 100, now);
  run_for(Duration::millis(2));
  tc.del("lo");
  for (int i = 0; i < 6; ++i) {
    stream.send_message({static_cast<std::uint8_t>(i)}, 100, now);
    run_for(Duration::millis(5));
  }
  run_for(Duration::millis(60));
  EXPECT_GE(stream.stats().retransmits_fast, 1u);
  auto d = stream.pop_delivered();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->bytes[0], 9);
  EXPECT_LT(d->latency(), Duration::millis(150));
}

TEST_F(StreamFixture, DelayInflatesMessageLatency) {
  tc.add("lo", parse_netem("delay 50ms"));
  stream.send_message({1}, 100, now);
  run_for(Duration::millis(200));
  const auto d = stream.pop_delivered();
  ASSERT_TRUE(d.has_value());
  EXPECT_GE(d->latency(), Duration::millis(50));
  EXPECT_LT(d->latency(), Duration::millis(60));
}

TEST_F(StreamFixture, DuplicatesAreDiscardedByReceiver) {
  tc.add("lo", parse_netem("duplicate 100%"));
  for (int i = 0; i < 10; ++i) stream.send_message({static_cast<std::uint8_t>(i)}, 100, now);
  run_for(Duration::millis(20));
  int received = 0;
  while (stream.pop_delivered()) ++received;
  EXPECT_EQ(received, 10);
  EXPECT_GT(stream.stats().stale_segments, 0u);
}

TEST_F(StreamFixture, CorruptionBehavesAsLoss) {
  tc.add("lo", parse_netem("corrupt 100%"));
  stream.send_message({42}, 100, now);
  run_for(Duration::millis(100));
  EXPECT_FALSE(stream.pop_delivered().has_value());  // every copy mangled
  tc.del("lo");
  run_for(Duration::millis(500));  // retransmission over the clean link
  const auto d = stream.pop_delivered();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->bytes[0], 42);
}

TEST_F(StreamFixture, WindowLimitsInFlightSegments) {
  StreamConfig cfg = config();
  cfg.window_segments = 4;
  ReliableStream small{router, channel, 2, LinkDirection::kDownlink, cfg};
  tc.add("lo", parse_netem("delay 500ms"));  // keep ACKs away
  for (int i = 0; i < 20; ++i) small.send_message({static_cast<std::uint8_t>(i)}, 100, now);
  small.step(now);
  EXPECT_EQ(small.unacked_segments(), 4u);
  EXPECT_EQ(small.send_backlog(), 16u);
}

TEST_F(StreamFixture, RtoBacksOffExponentially) {
  tc.add("lo", parse_netem("loss 100%"));
  stream.send_message({1}, 100, now);
  run_for(Duration::seconds(3.0));
  // With min RTO 200 ms, max 2 s and doubling, ~5-7 attempts fit in 3 s;
  // without backoff there would be ~15.
  EXPECT_LE(stream.stats().retransmits_rto, 8u);
  EXPECT_GE(stream.stats().retransmits_rto, 3u);
}

TEST_F(StreamFixture, SrttTracksPathDelay) {
  tc.add("lo", parse_netem("delay 20ms"));
  for (int i = 0; i < 20; ++i) {
    stream.send_message({1}, 100, now);
    run_for(Duration::millis(60));
    stream.pop_delivered();
  }
  EXPECT_NEAR(stream.stats().srtt.value(), 40.0, 10.0);  // both directions delayed
}

TEST_F(StreamFixture, BidirectionalFaultHitsAcks) {
  // Even if only data gets through untouched, delayed ACKs stretch the
  // sender's RTT estimate — both directions share the device.
  tc.add("lo", parse_netem("delay 100ms"));
  stream.send_message({1}, 100, now);
  run_for(Duration::millis(500));
  EXPECT_GE(stream.stats().srtt.value(), 190.0);
}

/// One stream on its own seeded link, stepped on a fixed grid as the
/// teleop loop does: router poll, then stream step.
struct SeededStream {
  SeededStream(std::uint64_t seed, StreamConfig cfg)
      : tc{seed}, channel{tc, "lo"}, router{channel},
        stream{router, channel, 1, LinkDirection::kDownlink, cfg} {}

  void tick(Duration dt) {
    now += dt;
    router.poll(now);
    stream.step(now);
  }

  TrafficControl tc;
  Channel channel;
  PacketRouter router;
  ReliableStream stream;
  TimePoint now;
};

TEST(ReliableStreamProperties, ReorderDuplicateLossDeliversEveryMessageIntact) {
  // Reordering puts segments ahead of gaps (the out-of-order buffer),
  // duplicates exercise the stale path, and loss forces retransmissions
  // that close the gaps; none of it may change what the application sees.
  for (const std::uint64_t seed : {3ull, 17ull, 29ull}) {
    StreamConfig cfg;
    cfg.mtu = 1000;
    SeededStream s{seed, cfg};
    s.tc.add("lo", parse_netem("delay 20ms reorder 25% gap 5 duplicate 5% loss 2%"));

    std::vector<Payload> sent;
    for (int i = 0; i < 150; ++i) {
      // 1..12 segments each; every segment carries some real bytes.
      const auto segments = static_cast<std::uint32_t>(1 + i % 12);
      Payload msg(segments * 37 + static_cast<std::size_t>(i % 5));
      for (std::size_t b = 0; b < msg.size(); ++b) {
        msg[b] = static_cast<std::uint8_t>(b * 31 + static_cast<std::size_t>(i));
      }
      s.stream.send_message(msg, segments * cfg.mtu, s.now);
      sent.push_back(std::move(msg));
      s.tick(Duration::millis(4));
    }
    for (int i = 0; i < 10000 && s.stream.stats().messages_delivered < sent.size();
         ++i) {
      s.tick(Duration::millis(1));
    }

    std::uint32_t expected_id = 0;
    while (auto d = s.stream.pop_delivered()) {
      ASSERT_LT(expected_id, sent.size()) << "seed " << seed;
      EXPECT_EQ(d->message_id, expected_id) << "seed " << seed;
      EXPECT_EQ(d->bytes, sent[expected_id]) << "seed " << seed << " msg " << expected_id;
      ++expected_id;
    }
    EXPECT_EQ(expected_id, sent.size()) << "seed " << seed;
    EXPECT_GT(s.stream.stats().stale_segments, 0u) << "seed " << seed;
    EXPECT_GT(s.stream.stats().dup_acks_seen, 0u) << "seed " << seed;
  }
}

TEST(ReliableStreamRto, CachedRtoMatchesRfc6298Recomputation) {
  // Scripted RTT samples, an exponential backoff and the cum-ACK reset. The
  // stream recomputes its RTO only when it needs it; the reported value
  // (read after every tick) and every retransmit instant must equal RFC 6298
  // recomputed from scratch (default config: 200 ms initial and minimum,
  // 2 s maximum, G = 1 ms).
  SeededStream s{1, StreamConfig{}};
  const Duration grid = Duration::micros(250);
  double srtt = 0.0;
  double rttvar = 0.0;
  bool first = true;
  auto rfc_rto = [&](int backoff) {
    double rto = std::max(srtt + std::max(4.0 * rttvar, 1.0), 200.0);
    for (int i = 0; i < backoff; ++i) rto *= 2.0;
    return std::min(rto, 2000.0);
  };
  auto sample = [&](double r) {
    if (first) {
      srtt = r;
      rttvar = r / 2.0;
      first = false;
    } else {
      rttvar = 0.75 * rttvar + 0.25 * std::fabs(srtt - r);
      srtt = 0.875 * srtt + 0.125 * r;
    }
  };
  // stats().rto as RFC 6298 gives it at the last RTT sample, with the
  // backoff in force then; zero before the first sample.
  double reported = 0.0;
  auto tick_checked = [&] {
    s.tick(grid);
    EXPECT_DOUBLE_EQ(s.stream.stats().rto.value(), reported)
        << "at " << s.now.count_micros() << " us";
  };
  // Tick until the window is empty; the sample lands on the last tick.
  auto until_acked = [&] {
    while (s.stream.unacked_segments() > 0) {
      s.tick(grid);
      if (s.stream.unacked_segments() > 0) {
        EXPECT_DOUBLE_EQ(s.stream.stats().rto.value(), reported)
            << "at " << s.now.count_micros() << " us";
      }
    }
  };

  // RTT samples of 2 x the one-way delay: 100, 180 and 60 ms.
  for (const int one_way_ms : {50, 90, 30}) {
    const NetemConfig delay = parse_netem("delay " + std::to_string(one_way_ms) + "ms");
    if (first) {
      s.tc.add("lo", delay);
    } else {
      s.tc.change("lo", delay);
    }
    s.stream.send_message({1}, 100, s.now);
    s.stream.step(s.now);
    until_acked();
    sample(2.0 * one_way_ms);
    reported = rfc_rto(0);
    EXPECT_DOUBLE_EQ(s.stream.stats().srtt.value(), srtt);
    EXPECT_DOUBLE_EQ(s.stream.stats().rto.value(), reported);
  }
  EXPECT_DOUBLE_EQ(s.stream.stats().rto.value(), 326.25);

  // Blackhole the link: the timer fires at RTO, then 2x, 4x, then the 2 s cap.
  // RTO retransmit instants, relative to the call.
  // No RTT sample lands in here, so the reported RTO must not move while the
  // timer backs off.
  auto rto_instants = [&](int count) {
    std::vector<double> at_ms;
    const TimePoint start = s.now;
    std::uint64_t seen = s.stream.stats().retransmits_rto;
    while (static_cast<int>(at_ms.size()) < count) {
      tick_checked();
      if (s.stream.stats().retransmits_rto != seen) {
        seen = s.stream.stats().retransmits_rto;
        at_ms.push_back((s.now - start).to_millis());
      }
    }
    return at_ms;
  };
  s.tc.change("lo", parse_netem("delay 30ms loss 100%"));
  s.stream.send_message({2}, 100, s.now);
  s.stream.step(s.now);
  const std::vector<double> backed_off = rto_instants(3);
  ASSERT_EQ(backed_off.size(), 3u);
  EXPECT_DOUBLE_EQ(backed_off[0], rfc_rto(0));
  EXPECT_DOUBLE_EQ(backed_off[1], rfc_rto(0) + rfc_rto(1));
  EXPECT_DOUBLE_EQ(backed_off[2], rfc_rto(0) + rfc_rto(1) + rfc_rto(2));

  // Heal the link: the next (capped) retransmission is ACKed. That ACK
  // covers a retransmitted segment, so Karn's rule takes no sample and the
  // reported RTO stays; the backoff resets.
  s.tc.change("lo", parse_netem("delay 30ms"));
  const std::vector<double> healed = rto_instants(1);
  EXPECT_DOUBLE_EQ(healed[0], rfc_rto(3));
  EXPECT_DOUBLE_EQ(rfc_rto(3), 2000.0);
  while (s.stream.unacked_segments() > 0) tick_checked();
  EXPECT_DOUBLE_EQ(s.stream.stats().rto.value(), rfc_rto(0));

  // After the reset a fresh segment's timer runs at the un-backed-off RTO.
  s.tc.change("lo", parse_netem("delay 30ms loss 100%"));
  s.stream.send_message({3}, 100, s.now);
  s.stream.step(s.now);
  EXPECT_DOUBLE_EQ(rto_instants(1)[0], rfc_rto(0));
  EXPECT_EQ(s.stream.stats().retransmits_fast, 0u);

  // A sample under backoff: the timer has fired once for message 3 when the
  // link heals; 100 ms later message 4 goes out, late enough that the next
  // (doubled) RTO, which recovers message 3, does not resend it. The ACK
  // that covers both samples message 4's RTT with backoff 2 in force, and
  // stats().rto reports that backoff although the same ACK resets it.
  const std::uint64_t fires_before = s.stream.stats().retransmits_rto - 1;
  s.tc.change("lo", parse_netem("delay 30ms"));
  for (int i = 0; i < 400; ++i) tick_checked();
  const TimePoint sent_4 = s.now;
  s.stream.send_message({4}, 100, s.now);
  s.stream.step(s.now);
  until_acked();
  const auto backoff =
      static_cast<int>(s.stream.stats().retransmits_rto - fires_before);
  ASSERT_EQ(backoff, 2);
  sample((s.now - sent_4).to_millis());
  reported = rfc_rto(backoff);
  EXPECT_DOUBLE_EQ(s.stream.stats().srtt.value(), srtt);
  EXPECT_NEAR(s.stream.stats().rto.value(), reported, 1e-3);
  EXPECT_GT(reported, rfc_rto(0)) << "the sample must be taken under backoff";

  // The reset applies to the timer: the next segment's first RTO fires at
  // the un-backed-off value for the new estimate (to the tick grid).
  s.tc.change("lo", parse_netem("delay 30ms loss 100%"));
  s.stream.send_message({5}, 100, s.now);
  s.stream.step(s.now);
  const TimePoint start = s.now;
  const std::uint64_t seen = s.stream.stats().retransmits_rto;
  while (s.stream.stats().retransmits_rto == seen) {
    s.tick(grid);
    EXPECT_NEAR(s.stream.stats().rto.value(), reported, 1e-3);
  }
  EXPECT_NEAR((s.now - start).to_millis(), rfc_rto(0), grid.to_millis());
}

}  // namespace
}  // namespace rdsim::net
