// In-memory span log of the traced (`layers`) run: one span per timed call
// into a library layer, recorded from the benchmark's own code around the
// call. Spans are written out once, when the run ends.
//
// File format (little-endian, fixed 24-byte records, no header):
//   u16 layer | u16 run | u32 reserved | i64 start_ns | i64 end_ns
// `layer` indexes kLayerNames; `run` is the campaign run index (2 * subject
// for the golden run, 2 * subject + 1 for the faulty run) or kNoRun.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <type_traits>
#include <string>
#include <utility>
#include <vector>

namespace campaign_bench {

enum class Layer : std::uint16_t {
  kNetSend,          ///< ReliableStream::send_message / DatagramSocket::send
  kNetRouterPoll,    ///< PacketRouter::poll (channel step + demux)
  kNetStreamStep,    ///< ReliableStream::step
  kNetQdisc,         ///< NetemQdisc::enqueue + dequeue_ready, one packet
  kSimPhysics,       ///< VehicleSubsystem::step_physics (World + ScenarioRuntime)
  kSimFrameEncode,   ///< VehicleSubsystem::maybe_encode_frame, when it encodes
  kSimFrameDecode,   ///< sim::WorldFrame::decode
  kCoreDriver,       ///< OperatorSubsystem::on_frame / poll
  kCoreTickNone,     ///< TeleopSession::step, no fault active
  kCoreTickDelay,    ///< TeleopSession::step, delay fault active
  kCoreTickLoss,     ///< TeleopSession::step, loss fault active
  kCoreSubject,      ///< ExperimentHarness::run_subject, serial
  kCoreCampaign,     ///< ExperimentHarness::run_campaign_parallel
  kCoreIo,           ///< serialize_campaign + deserialize_campaign
  kTraceRecord,      ///< TraceRecorder::step
  kMetricsTables,    ///< core::report renders of the paper tables
  kCheckHash,        ///< check::campaign_hash
  kMitigateUpdate,   ///< estimator + governor update, governor shape
  kObsPlain,         ///< capped campaign, no collector
  kObsAttached,      ///< the same campaign with an obs collector attached
  kEmpty,            ///< an empty span: the cost of timing itself
  kCount
};

inline constexpr const char* kLayerNames[] = {
    "net.send",        "net.router_poll",  "net.stream_step", "net.qdisc",
    "sim.physics",     "sim.frame_encode", "sim.frame_decode", "core.driver",
    "core.tick.none",  "core.tick.delay",  "core.tick.loss",  "core.subject",
    "core.campaign",   "core.io",          "trace.record",    "metrics.tables",
    "check.hash",      "mitigate.update",  "obs.plain",       "obs.attached",
    "empty",
};
static_assert(sizeof(kLayerNames) / sizeof(kLayerNames[0]) ==
              static_cast<std::size_t>(Layer::kCount));

inline constexpr std::uint16_t kNoRun = 0xffff;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  struct Span {
    std::uint16_t layer;
    std::uint16_t run;
    std::uint32_t reserved;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  static_assert(sizeof(Span) == 24);

  SpanLog() { spans_.reserve(1u << 20); }

  void add(Layer layer, std::uint16_t run, std::int64_t start, std::int64_t end) {
    spans_.push_back({static_cast<std::uint16_t>(layer), run, 0, start, end});
  }

  /// Times `fn()` as one span and returns its result.
  template <typename Fn>
  decltype(auto) time(Layer layer, std::uint16_t run, Fn&& fn) {
    const std::int64_t start = now_ns();
    if constexpr (std::is_void_v<decltype(fn())>) {
      std::forward<Fn>(fn)();
      add(layer, run, start, now_ns());
    } else {
      decltype(auto) result = std::forward<Fn>(fn)();
      add(layer, run, start, now_ns());
      return result;
    }
  }

  std::size_t size() const { return spans_.size(); }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    const std::size_t n = std::fwrite(spans_.data(), sizeof(Span), spans_.size(), f);
    return std::fclose(f) == 0 && n == spans_.size();
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace campaign_bench
