// Transport replay: drives Channel/TrafficControl, PacketRouter and
// ReliableStream (or DatagramSocket) from the benchmark, without the
// simulator, at one campaign run's frame and command cadence, with that
// run's faults injected through FaultInjector at the times its trace
// recorded. Every call into the transport is a span, so the net layer's
// per-call cost is measured where the work happens.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "net/reliable_stream.hpp"
#include "spans.hpp"

namespace campaign_bench {

struct ReplayInput {
  const rdsim::core::RdsConfig* rds{nullptr};
  const rdsim::mitigate::MitigationConfig* mitigation{nullptr};
  std::uint64_t run_seed{0};  ///< the session seed (netem and frame-jitter streams)
  const rdsim::core::RunResult* run{nullptr};  ///< duration, faults, reference stats
  std::uint16_t run_index{kNoRun};
};

struct ReplayResult {
  rdsim::net::StreamStats video{};
  rdsim::net::StreamStats command{};
  std::uint64_t ticks{0};
  std::uint64_t frames_encoded{0};
  std::uint64_t frames_skipped_sender{0};
  std::uint64_t commands_sent{0};
  std::uint64_t packets{0};       ///< channel packets, both directions
  std::uint64_t data_packets{0};  ///< segment transmissions, or datagrams
  std::uint64_t faults_injected{0};
  /// Counters that differ from the campaign's own run, as "name replay/run".
  std::vector<std::string> differences;
};

ReplayResult replay_transport(const ReplayInput& in, SpanLog& log);

}  // namespace campaign_bench
