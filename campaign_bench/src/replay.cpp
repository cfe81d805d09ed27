#include "replay.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "core/protocol.hpp"
#include "core/vehicle_subsystem.hpp"
#include "mitigate/governor.hpp"
#include "mitigate/link_quality.hpp"
#include "net/channel.hpp"
#include "net/datagram.hpp"
#include "net/fault_injector.hpp"
#include "net/router.hpp"
#include "net/tc.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace campaign_bench {

namespace {

namespace net = rdsim::net;
using rdsim::util::Duration;
using rdsim::util::TimePoint;

// The session's per-run random stream for frame-interval jitter
// (core::VehicleSubsystem); replaying it gives the run's exact cadence.
constexpr std::uint64_t kFrameJitterStream = 0x76656869636c65ULL;

struct Window {
  net::FaultSpec fault;
  TimePoint start;
  TimePoint stop;
};

TimePoint at_seconds(double s) { return TimePoint::from_micros(std::llround(s * 1e6)); }

std::vector<Window> fault_windows(const rdsim::trace::RunTrace& trace) {
  const std::vector<net::FaultSpec> model = net::paper_fault_model();
  std::vector<Window> out;
  for (const auto& w : trace.fault_windows()) {
    for (const net::FaultSpec& spec : model) {
      if (spec.label() == w.label) out.push_back({spec, at_seconds(w.start), at_seconds(w.stop)});
    }
  }
  return out;
}

void compare(std::vector<std::string>& diffs, const char* name, std::uint64_t replay,
             std::uint64_t run) {
  if (replay != run) {
    diffs.push_back(std::string{name} + " " + std::to_string(replay) + "/" +
                    std::to_string(run));
  }
}

void compare_stream(std::vector<std::string>& diffs, const char* prefix,
                    const net::StreamStats& a, const net::StreamStats& b) {
  const std::string p{prefix};
  compare(diffs, (p + ".messages_sent").c_str(), a.messages_sent, b.messages_sent);
  compare(diffs, (p + ".messages_delivered").c_str(), a.messages_delivered,
          b.messages_delivered);
  compare(diffs, (p + ".segments_sent").c_str(), a.segments_sent, b.segments_sent);
  compare(diffs, (p + ".retransmits_rto").c_str(), a.retransmits_rto, b.retransmits_rto);
  compare(diffs, (p + ".retransmits_fast").c_str(), a.retransmits_fast, b.retransmits_fast);
  compare(diffs, (p + ".acks_sent").c_str(), a.acks_sent, b.acks_sent);
  compare(diffs, (p + ".dup_acks_seen").c_str(), a.dup_acks_seen, b.dup_acks_seen);
  compare(diffs, (p + ".stale_segments").c_str(), a.stale_segments, b.stale_segments);
}

}  // namespace

ReplayResult replay_transport(const ReplayInput& in, SpanLog& log) {
  const rdsim::core::RdsConfig& rds = *in.rds;
  const rdsim::core::RunResult& run = *in.run;
  const std::uint16_t r = in.run_index;

  // The same objects, ids and seeds a TeleopSession wires up.
  net::TrafficControl tc{in.run_seed};
  net::Channel channel{tc, rds.device};
  net::PacketRouter router{channel};
  net::FaultInjector injector{tc, rds.device};
  std::unique_ptr<net::ReliableStream> video_stream;
  std::unique_ptr<net::ReliableStream> command_stream;
  std::unique_ptr<net::DatagramSocket> video_dgram;
  std::unique_ptr<net::DatagramSocket> command_dgram;
  if (rds.datagram_video) {
    video_dgram = std::make_unique<net::DatagramSocket>(
        router, channel, rdsim::core::kVideoStreamId, net::LinkDirection::kDownlink);
  } else {
    video_stream = std::make_unique<net::ReliableStream>(
        router, channel, rdsim::core::kVideoStreamId, net::LinkDirection::kDownlink,
        rds.transport);
  }
  if (rds.datagram_commands) {
    command_dgram = std::make_unique<net::DatagramSocket>(
        router, channel, rdsim::core::kCommandStreamId, net::LinkDirection::kUplink);
  } else {
    command_stream = std::make_unique<net::ReliableStream>(
        router, channel, rdsim::core::kCommandStreamId, net::LinkDirection::kUplink,
        rds.transport);
  }
  rdsim::mitigate::LinkQualityEstimator estimator{in.mitigation->estimator};
  rdsim::mitigate::DegradationGovernor governor{in.mitigation->governor};

  // Representative payloads: a real encoded world frame of the test route
  // and a real encoded command.
  rdsim::core::VehicleSubsystem vehicle{rds, rdsim::sim::make_test_route_scenario(), {},
                                        in.run_seed};
  const net::Payload frame_bytes = vehicle.maybe_encode_frame(TimePoint{})->payload;
  const net::Payload command_bytes = rdsim::core::CommandMsg{}.encode();

  const std::vector<Window> windows = fault_windows(run.trace);
  std::optional<std::size_t> active;
  rdsim::util::Random jitter{in.run_seed, kFrameJitterStream};
  const Duration comms_dt = Duration::seconds(1.0 / rds.comms_hz);
  const Duration command_period = Duration::seconds(1.0 / rds.station.command_rate_hz);
  const Duration display_latency = rds.station.display_latency.to_duration();
  const TimePoint end = at_seconds(run.duration.value());
  TimePoint next_frame{};
  TimePoint next_command{};
  std::optional<TimePoint> displayed_at;
  ReplayResult out;

  for (TimePoint now{}; now < end; now += comms_dt) {
    ++out.ticks;
    // Faults: the window covering `now`, switched with remove-then-inject
    // exactly as the session switches POI assignments.
    std::optional<std::size_t> due;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      if (windows[i].start <= now && now < windows[i].stop) {
        due = i;
        break;
      }
    }
    if (due != active) {
      if (active && injector.active()) injector.remove(now);
      if (due) injector.inject(windows[*due].fault, now);
      active = due;
    }

    // Video: frame cadence, sender-side drop, transport step, delivery.
    if (now >= next_frame) {
      // Same expression as the vehicle side, so the rounding matches too.
      next_frame = now + Duration::seconds((1.0 / rds.station.video_fps) *
                                           jitter.uniform(0.93, 1.09));
      ++out.frames_encoded;
      const std::uint32_t wire = rds.video.frame_wire_bytes;
      if (video_stream) {
        if (video_stream->send_backlog() > rds.video.sender_backlog_limit) {
          ++out.frames_skipped_sender;
        } else {
          log.time(Layer::kNetSend, r,
                   [&] { return video_stream->send_message(frame_bytes, wire, now); });
        }
      } else {
        log.time(Layer::kNetSend, r, [&] { return video_dgram->send(frame_bytes, wire, now); });
      }
    }
    if (video_stream) {
      log.time(Layer::kNetStreamStep, r, [&] { video_stream->step(now); });
      while (video_stream->pop_delivered()) displayed_at = now + display_latency;
    } else {
      while (video_dgram->receive_latest()) displayed_at = now + display_latency;
    }

    log.time(Layer::kNetRouterPoll, r, [&] { router.poll(now); });

    // The mitigation stack's per-tick work, fed with this replay's streams.
    log.time(Layer::kMitigateUpdate, r, [&] {
      const double staleness = displayed_at ? (now - *displayed_at).to_seconds()
                                            : std::numeric_limits<double>::infinity();
      if (estimator.update(video_stream ? &video_stream->stats() : nullptr,
                           command_stream ? &command_stream->stats() : nullptr,
                           rdsim::units::Seconds{staleness}, now)) {
        governor.update(estimator.quality(), now);
      }
    });

    // Commands: client cadence, sent once a frame is on screen.
    if (now >= next_command) {
      next_command = now + command_period;
      if (displayed_at) {
        ++out.commands_sent;
        log.time(Layer::kMitigateUpdate, r, [&] {
          return governor.shape(rdsim::sim::VehicleControl{},
                                rdsim::units::MetersPerSecond{}, now);
        });
        const std::uint32_t wire = rds.video.command_wire_bytes;
        if (command_stream) {
          log.time(Layer::kNetSend, r,
                   [&] { return command_stream->send_message(command_bytes, wire, now); });
        } else {
          log.time(Layer::kNetSend, r,
                   [&] { return command_dgram->send(command_bytes, wire, now); });
        }
      }
    }
    if (command_stream) {
      log.time(Layer::kNetStreamStep, r, [&] { command_stream->step(now); });
      while (command_stream->pop_delivered()) {
      }
    } else {
      while (command_dgram->receive_latest()) {
      }
    }
  }

  if (video_stream) out.video = video_stream->stats();
  if (command_stream) out.command = command_stream->stats();
  out.faults_injected = injector.injections();
  out.packets = channel.stats(net::LinkDirection::kDownlink).packets_sent +
                channel.stats(net::LinkDirection::kUplink).packets_sent;
  if (video_stream || command_stream) {
    for (const net::StreamStats* s : {&out.video, &out.command}) {
      out.data_packets += s->segments_sent + s->retransmits_rto + s->retransmits_fast;
    }
  } else {
    out.data_packets = out.frames_encoded + out.commands_sent;
  }

  compare_stream(out.differences, "video", out.video, run.video_stats);
  compare_stream(out.differences, "command", out.command, run.command_stats);
  compare(out.differences, "frames_encoded", out.frames_encoded, run.frames_encoded);
  compare(out.differences, "frames_skipped_sender", out.frames_skipped_sender,
          run.frames_skipped_sender);
  compare(out.differences, "faults_injected", out.faults_injected, run.faults_injected);
  return out;
}

}  // namespace campaign_bench
