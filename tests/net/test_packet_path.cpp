// Zero-allocation packet path: pool semantics, heap tie-break, move-vs-copy
// byte identity, idle-tick allocation gate, and the unified qdisc
// introspection surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/hash.hpp"
#include "net/reliable_stream.hpp"
#include "util/alloc_hook.hpp"
#include "net_test_util.hpp"

namespace rdsim::net {
namespace {

using util::Duration;
using util::TimePoint;

// ---------------------------------------------------------------- PayloadPool

TEST(PayloadPool, ReusesReleasedBuffers) {
  PayloadPool pool;
  Payload a = pool.acquire(100);
  a.assign(100, 0xab);
  const std::uint8_t* const data = a.data();
  pool.release(std::move(a));
  EXPECT_EQ(pool.cached(), 1u);

  Payload b = pool.acquire(200);  // same 256-byte class as the released buffer
  EXPECT_EQ(b.data(), data);      // LIFO freelist handed the same buffer back
  EXPECT_TRUE(b.empty());         // ...cleared
  EXPECT_GE(b.capacity(), 200u);
  EXPECT_EQ(pool.stats().reused, 1u);
  EXPECT_EQ(pool.stats().fresh, 1u);
}

TEST(PayloadPool, AcquireReservesBucketCapacity) {
  PayloadPool pool;
  Payload p = pool.acquire(1000);
  EXPECT_GE(p.capacity(), 1024u);  // rounded up to the size class
  EXPECT_TRUE(p.empty());
}

TEST(PayloadPool, OversizedRequestsBypassTheBuckets) {
  PayloadPool pool;
  Payload big = pool.acquire(2u << 20);  // 2 MiB > largest class
  EXPECT_GE(big.capacity(), 2u << 20);
  pool.release(std::move(big));
  // An over-large buffer lands in the largest class it can serve (1 MiB),
  // so it is still recycled rather than freed.
  EXPECT_EQ(pool.stats().recycled, 1u);

  Payload tiny;  // capacity 0: below every class, discarded on release
  pool.release(std::move(tiny));
  EXPECT_EQ(pool.stats().discarded, 1u);
}

TEST(PayloadPool, PerBucketCapIsEnforced) {
  // Release four distinct buffers into one size class; only two may be kept.
  PayloadPool capped{2};
  std::vector<Payload> buffers;
  for (int i = 0; i < 4; ++i) buffers.push_back(capped.acquire(64));
  for (auto& b : buffers) capped.release(std::move(b));
  EXPECT_EQ(capped.cached(), 2u);
  EXPECT_EQ(capped.stats().recycled, 2u);
  EXPECT_EQ(capped.stats().discarded, 2u);
}

// -------------------------------------------------------------------- Packet

TEST(Packet, EffectiveWireSizeTakesTheLargerOfWireAndPayload) {
  Packet p;
  p.payload = {1, 2, 3};
  p.wire_size = 0;
  EXPECT_EQ(p.effective_wire_size(), 3u);  // payload dominates
  p.wire_size = 1500;
  EXPECT_EQ(p.effective_wire_size(), 1500u);  // declared size dominates
  p.payload.clear();
  EXPECT_EQ(p.effective_wire_size(), 1500u);
  p.wire_size = 0;
  EXPECT_EQ(p.effective_wire_size(), 0u);  // both empty
}

TEST(Packet, CloneCopiesEveryField) {
  Packet p;
  p.id = 7;
  p.flow = 1;
  p.payload = {9, 8, 7};
  p.wire_size = 44;
  p.enqueued_at = TimePoint::from_micros(123);
  const Packet c = p.clone();
  EXPECT_EQ(c.id, 7u);
  EXPECT_EQ(c.flow, 1u);
  EXPECT_EQ(c.payload, p.payload);
  EXPECT_NE(c.payload.data(), p.payload.data());  // deep copy
  EXPECT_EQ(c.wire_size, 44u);
  EXPECT_EQ(c.enqueued_at.count_micros(), 123);
}

// -------------------------------------------- netem heap order / tfifo pin

/// With a fixed delay and no jitter, every packet enqueued at the same tick
/// has an identical release time: the binary heap must break the tie by
/// insertion sequence, reproducing tfifo (and the old sorted-vector) order.
TEST(NetemHeap, EqualReleaseTimesPreserveInsertionOrder) {
  NetemConfig cfg;
  cfg.delay = Duration::millis(10);
  NetemQdisc q{cfg, 1};
  for (std::uint64_t i = 0; i < 100; ++i) {
    Packet p;
    p.id = i;
    q.enqueue(std::move(p), TimePoint{});
  }
  const auto out = drain(q, TimePoint::from_micros(10000));
  ASSERT_EQ(out.size(), 100u);
  for (std::uint64_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].id, i);
}

/// Mixed release times: the released order must equal a stable sort of the
/// enqueue order by release time — exactly what the old sorted vector
/// produced. Staggered enqueues with decreasing delays create inversions.
TEST(NetemHeap, MatchesStableSortByReleaseTime) {
  NetemConfig cfg;
  cfg.delay = Duration::millis(50);
  NetemQdisc q{cfg, 1};

  struct Expected {
    std::int64_t release_us;
    std::uint64_t id;
  };
  std::vector<Expected> expected;
  std::uint64_t id = 0;
  // Two config changes mid-stream give three delay regimes, so later
  // packets overtake earlier ones (tc change keeps queued packets).
  for (const std::int64_t delay_ms : {50, 10, 30}) {
    NetemConfig c;
    c.delay = Duration::millis(delay_ms);
    q.change(c);
    for (int i = 0; i < 10; ++i) {
      const std::int64_t t_us = static_cast<std::int64_t>(id) * 1000;
      Packet p;
      p.id = id;
      q.enqueue(std::move(p), TimePoint::from_micros(t_us));
      expected.push_back({t_us + delay_ms * 1000, id});
      ++id;
    }
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Expected& a, const Expected& b) {
                     return a.release_us < b.release_us;
                   });
  const auto out = drain(q, TimePoint::from_micros(1000000));
  ASSERT_EQ(out.size(), expected.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].id, expected[i].id) << "position " << i;
  }
}

TEST(NetemHeap, DuplicateIsReleasedBeforeTheOriginal) {
  NetemConfig cfg;
  cfg.delay = Duration::millis(5);
  cfg.duplicate_probability = units::Probability{1.0};
  NetemQdisc q{cfg, 3};
  Packet p;
  p.id = 1;
  p.payload = {42};
  q.enqueue(std::move(p), TimePoint{});
  const auto out = drain(q, TimePoint::from_micros(5000));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].duplicate);   // clone was scheduled first
  EXPECT_FALSE(out[1].duplicate);
  EXPECT_EQ(out[0].payload, out[1].payload);
}

// ------------------------------------------------- move vs copy byte identity

std::uint64_t delivered_digest(std::uint64_t seed, const std::string& rule,
                               bool use_move_path) {
  TrafficControl tc{seed};
  Channel ch{tc, "lo"};
  tc.execute("qdisc add dev lo root " + rule);
  check::Fnv1a h;
  std::uint32_t fill = 0x12345u;
  for (std::int64_t tick = 0; tick < 500; ++tick) {
    const TimePoint now = TimePoint::from_micros(tick * 1000);
    Payload bytes(64 + static_cast<std::size_t>(tick % 700));
    for (auto& b : bytes) {
      fill = fill * 1664525u + 1013904223u;
      b = static_cast<std::uint8_t>(fill >> 24);
    }
    const LinkDirection dir =
        tick % 3 == 0 ? LinkDirection::kUplink : LinkDirection::kDownlink;
    if (use_move_path) {
      Packet p;
      p.payload = ch.acquire_payload(bytes.size());
      p.payload.assign(bytes.begin(), bytes.end());
      p.wire_size = static_cast<std::uint32_t>(bytes.size()) + 40;
      ch.send(dir, std::move(p), now);
    } else {
      send(ch, dir, bytes, static_cast<std::uint32_t>(bytes.size()) + 40, now);
    }
    ch.step(now);
    for (const LinkDirection d : {LinkDirection::kDownlink, LinkDirection::kUplink}) {
      while (auto got = ch.receive(d)) {
        h.u64(got->id);
        h.u32(got->flow);
        h.u64(got->payload.size());
        h.update(got->payload.data(), got->payload.size());
        if (use_move_path) ch.recycle(std::move(got->payload));
      }
    }
  }
  return h.digest();
}

TEST(PacketPath, MovedAndCopiedSendsDeliverIdenticalBytes) {
  for (const std::uint64_t seed : {11ull, 222ull, 3333ull}) {
    for (const std::string& rule :
         {std::string{"netem delay 20ms 5ms loss 2%"},
          std::string{"netem delay 20ms 5ms loss 5% reorder 10%"}}) {
      const std::uint64_t moved = delivered_digest(seed, rule, true);
      const std::uint64_t copied = delivered_digest(seed, rule, false);
      EXPECT_EQ(moved, copied) << "seed " << seed << " rule " << rule;
    }
  }
}

// ------------------------------------------------------ idle-tick allocation

TEST(PacketPath, IdleTicksDoNotAllocate) {
  TrafficControl tc{5};
  Channel ch{tc, "lo"};
  PacketRouter router{ch};
  ReliableStream stream{router, ch, 1, LinkDirection::kDownlink};
  // Prime: move one message through so every lazy structure exists, then
  // drain to quiescence.
  stream.send_message(Payload(512, 7), 512, TimePoint{});
  for (std::int64_t t = 0; t <= 500000; t += 5000) {
    router.poll(TimePoint::from_micros(t));
    stream.step(TimePoint::from_micros(t));
    while (stream.pop_delivered()) {
    }
  }
  ASSERT_EQ(stream.unacked_segments(), 0u);

  util::AllocCounter allocs;
  for (std::int64_t t = 500000; t <= 5500000; t += 5000) {
    router.poll(TimePoint::from_micros(t));
    stream.step(TimePoint::from_micros(t));
  }
  EXPECT_EQ(allocs.delta(), 0u) << "idle packet path must not touch the heap";
}

TEST(PacketPath, WarmStreamTickReusesPooledPayloads) {
  TrafficControl tc{5};
  Channel ch{tc, "lo"};
  PacketRouter router{ch};
  ReliableStream stream{router, ch, 1, LinkDirection::kDownlink};
  const Payload msg(2000, 9);
  std::int64_t t = 0;
  auto tick = [&](int n) {
    for (int i = 0; i < n; ++i) {
      t += 5000;
      const TimePoint now = TimePoint::from_micros(t);
      stream.send_message(msg, 2000, now);
      router.poll(now);
      stream.step(now);
      while (stream.pop_delivered()) {
      }
    }
  };
  tick(200);  // warm pools, maps and deques
  const auto before = ch.pool().stats();
  tick(200);
  const auto after = ch.pool().stats();
  // Steady state: every wire packet (DATA + ACK per tick) is served from the
  // freelist; no fresh payload allocations once warm.
  EXPECT_EQ(after.fresh, before.fresh);
  EXPECT_GT(after.reused, before.reused);
}

// ------------------------------------------- receive-path allocation scaling

/// Heap allocations inside router.poll() + pop_delivered(), per delivered
/// message of `segments` segments, once the payload pool is warm. One
/// message is sent per 5 ms tick over a clean link.
double receive_allocs_per_message(std::uint32_t segments) {
  TrafficControl tc{5};
  Channel ch{tc, "lo"};
  PacketRouter router{ch};
  StreamConfig cfg;
  cfg.mtu = 1000;
  cfg.window_segments = 256;  // two 92-segment messages are in flight per tick
  ReliableStream stream{router, ch, 1, LinkDirection::kDownlink, cfg};
  const Payload msg(64 * segments, 3);
  std::int64_t t = 0;
  std::uint64_t allocs = 0;
  std::uint64_t delivered = 0;
  auto tick = [&](int n, bool measure) {
    for (int i = 0; i < n; ++i) {
      t += 5000;
      const TimePoint now = TimePoint::from_micros(t);
      stream.send_message(msg, segments * cfg.mtu, now);
      util::AllocCounter counter;
      router.poll(now);
      std::uint64_t popped = 0;
      while (stream.pop_delivered()) ++popped;
      if (measure) {
        allocs += counter.delta();
        delivered += popped;
      }
      stream.step(now);
    }
  };
  tick(100, false);  // warm pools, queues and the window
  tick(200, true);
  EXPECT_EQ(delivered, 200u) << segments << " segments per message";
  return static_cast<double>(allocs) / static_cast<double>(delivered);
}

TEST(PacketPath, ReceiveAllocationsDoNotGrowWithSegmentsPerMessage) {
  // The in-order fast path appends each segment straight into the message
  // buffer, reserved once; DATA and ACK buffers cycle through the warm pool
  // and the inboxes keep their storage. So a message costs one allocation,
  // its byte buffer, whether it is one segment or a 92-segment video frame.
  for (const std::uint32_t segments : {1u, 8u, 92u}) {
    EXPECT_DOUBLE_EQ(receive_allocs_per_message(segments), 1.0)
        << segments << " segments per message";
  }
}

// ------------------------------------------------------ introspection surface

TEST(QdiscIntrospection, SummaryAndBacklogBytesAreConsistent) {
  FifoQdisc fifo;
  NetemConfig ncfg;
  ncfg.delay = Duration::millis(10);
  NetemQdisc netem{ncfg, 1};
  TbfQdisc tbf{TbfConfig{}};
  Qdisc* const qdiscs[] = {&fifo, &netem, &tbf};
  for (Qdisc* q : qdiscs) {
    for (std::uint64_t i = 0; i < 3; ++i) {
      Packet p;
      p.id = i;
      p.payload = {1, 2, 3, 4};
      p.wire_size = 100;
      q->enqueue(std::move(p), TimePoint{});
    }
    EXPECT_EQ(q->backlog(), 3u) << q->kind();
    EXPECT_EQ(q->backlog_bytes(), 300u) << q->kind();
    EXPECT_TRUE(q->next_event_at().has_value()) << q->kind();
    const std::string s = q->summary();
    EXPECT_NE(s.find("qdisc " + q->kind()), std::string::npos) << s;
    EXPECT_NE(s.find("backlog 300b 3p"), std::string::npos) << s;
    q->clear();
    EXPECT_EQ(q->backlog(), 0u) << q->kind();
    EXPECT_EQ(q->backlog_bytes(), 0u) << q->kind();
    EXPECT_FALSE(q->next_event_at().has_value()) << q->kind();
  }
}

TEST(QdiscIntrospection, FifoNextEventIsTheHeadEnqueueTime) {
  FifoQdisc q;
  EXPECT_FALSE(q.next_event_at().has_value());
  Packet p;
  q.enqueue(std::move(p), TimePoint::from_micros(777));
  ASSERT_TRUE(q.next_event_at().has_value());
  EXPECT_EQ(q.next_event_at()->count_micros(), 777);
}

TEST(ChannelNextEvent, TracksTheRootQdisc) {
  TrafficControl tc;
  Channel ch{tc, "lo"};
  tc.add("lo", parse_netem("delay 30ms"));
  EXPECT_FALSE(ch.next_event_at().has_value());
  send(ch, LinkDirection::kDownlink, {1}, 10, TimePoint{});
  ASSERT_TRUE(ch.next_event_at().has_value());
  EXPECT_EQ(ch.next_event_at()->count_micros(), 30000);
  ASSERT_TRUE(tc.next_event_at("lo").has_value());
  EXPECT_EQ(tc.next_event_at("lo")->count_micros(), 30000);
  ch.step(TimePoint::from_micros(30000));
  EXPECT_FALSE(ch.next_event_at().has_value());
}

}  // namespace
}  // namespace rdsim::net
