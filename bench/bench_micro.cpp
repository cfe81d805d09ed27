// google-benchmark micro benchmarks: costs of the building blocks — netem
// qdisc operations, reliable-stream throughput, simulator stepping, metric
// computation, and a full teleoperation tick.
#include <benchmark/benchmark.h>

#include "core/teleop.hpp"
#include "metrics/srr.hpp"
#include "metrics/ttc.hpp"

using namespace rdsim;

namespace {

/// Drops released packets, counting them.
class CountingSink final : public net::PacketSink {
 public:
  void accept(net::Packet&& /*packet*/) override { ++count; }
  std::uint64_t count{0};
};

void BM_NetemEnqueueDequeue(benchmark::State& state) {
  net::NetemConfig cfg;
  cfg.delay = util::Duration::millis(5);
  cfg.jitter = util::Duration::millis(1);
  cfg.loss_probability = units::Probability{0.02};
  net::NetemQdisc q{cfg, 1};
  std::uint64_t id = 0;
  std::int64_t t = 0;
  CountingSink sink;
  for (auto _ : state) {
    net::Packet p;
    p.id = ++id;
    p.wire_size = 1000;
    q.enqueue(std::move(p), util::TimePoint::from_micros(t));
    t += 100;
    q.dequeue_ready(util::TimePoint::from_micros(t - 5000), sink);
    benchmark::DoNotOptimize(sink.count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NetemEnqueueDequeue);

void BM_TcRuleParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::parse_netem("delay 50ms 10ms 25% loss 2% reorder 25% gap 5 rate 10mbit"));
  }
}
BENCHMARK(BM_TcRuleParse);

void BM_ReliableStreamRoundTrip(benchmark::State& state) {
  net::TrafficControl tc;
  net::Channel channel{tc, "lo"};
  net::PacketRouter router{channel};
  net::StreamConfig cfg;
  cfg.mtu = 65000;
  net::ReliableStream stream{router, channel, 1, net::LinkDirection::kDownlink, cfg};
  std::int64_t t = 0;
  const net::Payload msg(256, 0x5A);
  for (auto _ : state) {
    t += 1000;
    stream.send_message(msg, 65000, util::TimePoint::from_micros(t));
    router.poll(util::TimePoint::from_micros(t));
    stream.step(util::TimePoint::from_micros(t));
    while (stream.pop_delivered()) {
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReliableStreamRoundTrip);

void BM_WorldPhysicsStep(benchmark::State& state) {
  sim::World world{sim::make_town05_route()};
  sim::ScenarioRuntime runtime{sim::make_test_route_scenario(), world};
  sim::VehicleControl c;
  c.throttle = 0.4;
  world.apply_ego_control(c);
  for (auto _ : state) {
    world.step(units::Seconds{0.01});
    runtime.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WorldPhysicsStep);

void BM_RoadProjection(benchmark::State& state) {
  const auto road = sim::make_town05_route();
  double s = 0.0;
  for (auto _ : state) {
    const auto pose = road.sample_offset(s, 1.0);
    benchmark::DoNotOptimize(road.project(pose.position, s));
    s += 2.0;
    if (s > road.length()) s = 0.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RoadProjection);

// An actor driving on past the end of the reference line with a fresh hint:
// the best sample is the window's last one, so every query takes the
// whole-line fallback. Campaign traffic does this once the lead vehicle
// leaves the route.
void BM_RoadProjectionPastEnd(benchmark::State& state) {
  const auto road = sim::make_town05_route();
  const util::Pose end = road.sample_offset(road.length(), 1.0);
  double beyond = 0.0;
  for (auto _ : state) {
    const util::Vec2 p = end.position + end.forward() * beyond;
    benchmark::DoNotOptimize(road.project(p, road.length() + beyond));
    beyond += 0.16;
    if (beyond > 200.0) beyond = 0.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RoadProjectionPastEnd);

void BM_FrameEncodeDecode(benchmark::State& state) {
  sim::World world{sim::make_town05_route()};
  sim::ScenarioRuntime runtime{sim::make_test_route_scenario(), world};
  world.step(units::Seconds{0.01});
  const auto frame = world.snapshot();
  for (auto _ : state) {
    const auto bytes = frame.encode();
    benchmark::DoNotOptimize(sim::WorldFrame::decode(bytes));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FrameEncodeDecode);

void BM_TeleopTick(benchmark::State& state) {
  const auto make_session = [] {
    core::RunConfig rc;
    rc.run_id = "bm";
    rc.subject_id = "bm";
    rc.driver = core::DriverParams{};
    rc.seed = 5;
    return std::make_unique<core::TeleopSession>(std::move(rc),
                                                 sim::make_test_route_scenario());
  };
  auto session = make_session();
  for (auto _ : state) {
    if (!session->step()) {
      // A session holds a finite number of ticks; start a fresh run off the
      // clock when the benchmark outlasts it.
      state.PauseTiming();
      session = make_session();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TeleopTick);

const trace::RunTrace& bench_trace() {
  static const trace::RunTrace trace = [] {
    core::RunConfig rc;
    rc.run_id = "bm";
    rc.subject_id = "bm";
    rc.driver = core::DriverParams{};
    rc.seed = 5;
    core::TeleopSession session{std::move(rc), sim::make_following_scenario()};
    return session.run().trace;
  }();
  return trace;
}

void BM_TtcAnalysis(benchmark::State& state) {
  metrics::TtcAnalyzer ttc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ttc.summarize(ttc.series(bench_trace())));
  }
}
BENCHMARK(BM_TtcAnalysis);

void BM_SrrAnalysis(benchmark::State& state) {
  metrics::SrrAnalyzer srr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(srr.analyze(bench_trace()));
  }
}
BENCHMARK(BM_SrrAnalysis);

void BM_TraceCsvRoundTrip(benchmark::State& state) {
  const auto& trace = bench_trace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::RunTrace::from_csv(
        trace.ego_csv(), trace.others_csv(), trace.events_csv()));
  }
}
BENCHMARK(BM_TraceCsvRoundTrip);

}  // namespace

BENCHMARK_MAIN();
